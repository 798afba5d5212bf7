#include "common/discrete_sampler.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace opus {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// The sampling chain as Rng::NextDiscrete ran it before DiscreteSampler
// replaced it, summing the weights on every call. `u` is the caller's
// rng.NextDouble(); the original computed `NextDouble() * total`, the same
// product. Every generated trace depends on this index sequence.
std::size_t OriginalChainAt(const std::vector<double>& weights, double u) {
  double total = 0.0;
  for (double w : weights) total += w;
  double x = u * total;
  for (std::size_t k = 0; k + 1 < weights.size(); ++k) {
    x -= weights[k];
    if (x < 0.0) return k;
  }
  return weights.size() - 1;
}

std::vector<std::vector<double>> AdversarialWeights() {
  std::vector<std::vector<double>> cases = {
      {0.0, 0.0, 0.0, 1.0, 2.0},           // leading zeros
      {1.0, 2.0, 0.0, 0.0, 0.0},           // trailing zeros
      {0.0, 0.0, 7.5, 0.0, 0.0},           // all but one zero
      {0.0, 0.0, 0.0, 0.0, 0.3},           // only the last is positive
      {3.0},                               // a single weight
      {5e-324, 1e-310, 2.5e-320, 1e-308},  // subnormals
      {1.0, 5e-324, 1.0, 4e-320, 0.0},     // subnormals among normals
      std::vector<double>(1000, 0.1),      // equal, inexact running sums
      // Streams the way GenerateTrace lays them out: genuine rates, then
      // zero-rate spurious streams the chain can round onto.
      {0.1, 0.7, 0.2, 0.0, 0.0, 0.0},
  };
  std::vector<double> range;  // 1e-300 .. 1e300, shuffled, with zeros
  for (int e = -300; e <= 300; e += 20) {
    range.push_back(std::pow(10.0, e));
    if (e % 100 == 0) range.push_back(0.0);
  }
  Rng(5).Shuffle(range);
  cases.push_back(range);
  std::vector<double> harmonic(256);  // Daemon::PrepareGen's prefs, user 15
  for (std::size_t j = 0; j < harmonic.size(); ++j) {
    harmonic[j] = 1.0 / (1.0 + static_cast<double>((j + 45) % 256));
  }
  cases.push_back(harmonic);
  return cases;
}

TEST(DiscreteSamplerTest, RespectsWeights) {
  Rng rng(37);
  const DiscreteSampler sampler({0.0, 3.0, 1.0});
  int counts[3] = {0, 0, 0};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[sampler.Sample(rng)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.75, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.25, 0.01);
}

TEST(DiscreteSamplerTest, TotalIsTheSequentialSum) {
  for (const std::vector<double>& w : AdversarialWeights()) {
    double total = 0.0;
    for (double x : w) total += x;
    EXPECT_EQ(DiscreteSampler(w).total(), total);
  }
}

TEST(DiscreteSamplerTest, DrawForDrawIdenticalToOriginalChain) {
  std::uint64_t seed = 100;
  for (const std::vector<double>& w : AdversarialWeights()) {
    const DiscreteSampler sampler(w);
    Rng a(seed), b(seed);
    ++seed;
    for (int i = 0; i < 20000; ++i) {
      ASSERT_EQ(sampler.Sample(a), OriginalChainAt(w, b.NextDouble()))
          << "draw " << i << " over " << w.size() << " weights";
    }
    // One draw per sample: the caller's stream continues in step.
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(DiscreteSamplerTest, IdenticalToOriginalChainAtBucketEdges) {
  // Random draws almost never land within rounding distance of a bucket
  // edge, where the running sums and the chain can disagree. Probe those
  // draws directly: both ends of [0, 1), and around every running sum's
  // position every offset up to 8 ulps of u, then doubling offsets out to
  // 64 (n + 1) ulps, past the sampler's fallback band.
  for (const std::vector<double>& w : AdversarialWeights()) {
    const DiscreteSampler sampler(w);
    std::vector<double> probes = {0.0, std::nextafter(1.0, 0.0)};
    const double reach = 64.0 * static_cast<double>(w.size() + 1);
    double running = 0.0;
    for (double x : w) {
      running += x;
      const double edge = running / sampler.total();
      const double ulp = std::nextafter(edge, 2.0) - edge;
      for (double m = 0.0; m <= reach; m = m < 8.0 ? m + 1.0 : 2.0 * m) {
        for (double u : {edge - m * ulp, edge + m * ulp}) {
          if (u >= 0.0 && u < 1.0) probes.push_back(u);
        }
      }
    }
    for (double u : probes) {
      ASSERT_EQ(sampler.SampleAt(u), OriginalChainAt(w, u))
          << "u=" << u << " over " << w.size() << " weights";
    }
  }
}

TEST(DiscreteSamplerDeathTest, RejectsNonFiniteWeights) {
  // The chain never returned an infinite weight's index: x = u * inf is
  // inf (or NaN), inf - inf is NaN, and NaN < 0 is false.
  EXPECT_DEATH((void)DiscreteSampler({1.0, kInf, 1.0}), "weight 1 is inf");
  EXPECT_DEATH((void)DiscreteSampler({kInf, 1.0}), "weight 0 is inf");
  EXPECT_DEATH((void)DiscreteSampler({1.0, 2.0, kNaN}), "weight 2 is nan");
  EXPECT_DEATH((void)DiscreteSampler({1.0, -kInf}), "weight 1 is -inf");
}

TEST(DiscreteSamplerDeathTest, RejectsNegativeWeights) {
  EXPECT_DEATH((void)DiscreteSampler({1.0, -0.5, 1.0}), "weight 1 is -0.5");
}

TEST(DiscreteSamplerDeathTest, RejectsZeroOrInfiniteTotal) {
  EXPECT_DEATH((void)DiscreteSampler(std::vector<double>{}),
               "weight total is 0");
  EXPECT_DEATH((void)DiscreteSampler({0.0, 0.0}), "weight total is 0");
  EXPECT_DEATH((void)DiscreteSampler({1e308, 1e308}), "weight total is inf");
}

}  // namespace
}  // namespace opus
