// Deterministic pseudo-random number generation for reproducible experiments.
//
// All stochastic components of the library (workload generators, trace
// simulators, probabilistic blocking) draw from an explicitly seeded Rng so
// that every experiment in EXPERIMENTS.md is bit-reproducible. The engine is
// splitmix64-seeded xoshiro256**, which is fast, high quality, and has a
// stable cross-platform output sequence (unlike std::mt19937 distributions,
// whose mapping is implementation-defined for some distributions).
#pragma once

#include <cstdint>
#include <vector>

namespace opus {

// Deterministic 64-bit PRNG (xoshiro256**). Not thread-safe; use one Rng per
// thread or per logical stream.
class Rng {
 public:
  // Seeds the four-word state from `seed` via splitmix64. Any seed is valid.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Next raw 64-bit value.
  std::uint64_t NextU64();

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform integer in [0, bound) using rejection sampling (unbiased).
  // Requires bound > 0.
  std::uint64_t NextBounded(std::uint64_t bound);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t NextInt(std::int64_t lo, std::int64_t hi);

  // Bernoulli trial with success probability p (clamped to [0, 1]).
  bool NextBernoulli(double p);

  // Uniform double in [lo, hi). Requires lo <= hi.
  double NextUniform(double lo, double hi);

  // Standard normal via Box-Muller (no cached spare; deterministic stream).
  double NextGaussian();

  // Exponential with rate lambda > 0.
  double NextExponential(double lambda);

  // Fisher-Yates shuffle of `v` in place.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(NextBounded(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // A random permutation of {0, 1, ..., n-1}.
  std::vector<std::size_t> Permutation(std::size_t n);

  // Derives an independent child stream (useful to give each user/file its
  // own deterministic stream regardless of consumption order elsewhere).
  Rng Fork();

 private:
  std::uint64_t s_[4];
};

}  // namespace opus
