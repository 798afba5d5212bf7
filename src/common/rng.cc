#include "common/rng.h"

#include <cmath>
#include <numbers>

#include "common/check.h"

namespace opus {
namespace {

std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& w : s_) w = SplitMix64(sm);
  // All-zero state is invalid for xoshiro; splitmix64 cannot produce four
  // zero outputs in a row, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::NextU64() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1) with full double precision.
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::NextBounded(std::uint64_t bound) {
  OPUS_CHECK_GT(bound, 0u);
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = NextU64();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::NextInt(std::int64_t lo, std::int64_t hi) {
  OPUS_CHECK_LE(lo, hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // span == 0 means the full 64-bit range.
  const std::uint64_t r = (span == 0) ? NextU64() : NextBounded(span);
  return lo + static_cast<std::int64_t>(r);
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::NextUniform(double lo, double hi) {
  OPUS_CHECK_LE(lo, hi);
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  // Box-Muller; u1 in (0,1] to avoid log(0).
  const double u1 = 1.0 - NextDouble();
  const double u2 = NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::NextExponential(double lambda) {
  OPUS_CHECK_GT(lambda, 0.0);
  return -std::log(1.0 - NextDouble()) / lambda;
}

std::vector<std::size_t> Rng::Permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  Shuffle(p);
  return p;
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace opus
