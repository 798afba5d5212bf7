// The parallel leave-one-out tax computation must be bit-identical to the
// sequential one (the solves are independent; threads only change wall
// time).
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/rng.h"
#include "core/opus.h"
#include "workload/preference_gen.h"

namespace opus {
namespace {

CachingProblem MediumProblem(std::uint64_t seed) {
  workload::ZipfPreferenceConfig cfg;
  cfg.num_users = 24;
  cfg.num_files = 40;
  cfg.alpha = 1.1;
  Rng rng(seed);
  CachingProblem p;
  p.preferences = workload::GenerateZipfPreferences(cfg, rng);
  p.capacity = 20.0;
  return p;
}

TEST(ParallelTaxTest, MatchesSequentialExactly) {
  const auto p = MediumProblem(11);
  OpusOptions seq;
  OpusOptions par;
  par.tax_threads = 4;
  OpusDiagnostics d_seq, d_par;
  OpusAllocator(seq).AllocateWithDiagnostics(p, &d_seq);
  OpusAllocator(par).AllocateWithDiagnostics(p, &d_par);
  ASSERT_EQ(d_seq.taxes.size(), d_par.taxes.size());
  for (std::size_t i = 0; i < d_seq.taxes.size(); ++i) {
    EXPECT_DOUBLE_EQ(d_seq.taxes[i], d_par.taxes[i]);
    EXPECT_DOUBLE_EQ(d_seq.net_utilities[i], d_par.net_utilities[i]);
  }
  EXPECT_EQ(d_seq.settled_on_sharing, d_par.settled_on_sharing);
}

TEST(ParallelTaxTest, MoreThreadsThanUsers) {
  CachingProblem p;
  p.preferences = Matrix::FromRows({{0.4, 0.6, 0.0}, {0.0, 0.6, 0.4}});
  p.capacity = 2.0;
  OpusOptions options;
  options.tax_threads = 16;  // clamped to N internally
  OpusDiagnostics diag;
  OpusAllocator(options).AllocateWithDiagnostics(p, &diag);
  EXPECT_NEAR(diag.net_utilities[0], 0.64, 1e-5);
  EXPECT_NEAR(diag.net_utilities[1], 0.64, 1e-5);
}

TEST(ParallelTaxTest, WorksWithPriorityWeights) {
  const auto p = MediumProblem(13);
  OpusOptions seq, par;
  seq.user_weights.assign(24, 1.0);
  seq.user_weights[0] = 3.0;
  par = seq;
  par.tax_threads = 3;
  OpusDiagnostics d_seq, d_par;
  OpusAllocator(seq).AllocateWithDiagnostics(p, &d_seq);
  OpusAllocator(par).AllocateWithDiagnostics(p, &d_par);
  for (std::size_t i = 0; i < 24; ++i) {
    EXPECT_DOUBLE_EQ(d_seq.taxes[i], d_par.taxes[i]);
  }
}

// Randomized incremental-window property: a sequence of windows with
// random drift (re-drawn rows) and misreports (spiked rows) must produce
// byte-for-byte identical allocations and taxes at tax_threads 1, 2, and 8
// — in per-user windows and under drift-adaptive aggregation. This is also
// the TSan target for the parallel pivotal solves and their per-slot
// scratch slabs.
TEST(ParallelTaxTest, RandomizedIncrementalWindowsBitIdentical) {
  constexpr std::size_t kUsers = 96, kFiles = 64, kWindows = 5;
  Rng rng(20260808);

  // Build the window sequence once, deterministically.
  std::vector<CachingProblem> windows;
  {
    workload::ZipfPreferenceConfig cfg;
    cfg.num_users = kUsers;
    cfg.num_files = kFiles;
    cfg.alpha = 1.1;
    cfg.support_fraction = 0.3;
    CachingProblem p;
    p.preferences = workload::GenerateZipfPreferences(cfg, rng);
    p.capacity = 16.0;
    windows.push_back(std::move(p));
  }
  auto renormalize = [](std::span<double> row) {
    double sum = 0.0;
    for (const double v : row) sum += v;
    if (sum <= 0.0) return;
    for (double& v : row) v /= sum;
  };
  for (std::size_t w = 1; w < kWindows; ++w) {
    CachingProblem next = windows.back();
    const std::size_t drifted = 4 + rng.NextBounded(12);
    for (std::size_t d = 0; d < drifted; ++d) {
      auto row = next.preferences.row(rng.NextBounded(kUsers));
      for (double& v : row) v = rng.NextDouble() < 0.3 ? rng.NextDouble() : 0.0;
      renormalize(row);
    }
    // One misreporting user spikes a single file to dominate its row.
    auto liar = next.preferences.row(rng.NextBounded(kUsers));
    liar[rng.NextBounded(kFiles)] += 10.0;
    renormalize(liar);
    next.InvalidatePreferencesCsr();
    windows.push_back(std::move(next));
  }

  for (const bool aggregated : {false, true}) {
    OpusOptions base;
    if (aggregated) {
      base.aggregation.auto_tune = true;
      base.aggregation.min_clusters = 8;
    }
    constexpr unsigned kThreads[] = {1, 2, 8};
    OpusWarmState states[3];
    for (std::size_t w = 0; w < kWindows; ++w) {
      AllocationResult results[3];
      for (std::size_t lane = 0; lane < 3; ++lane) {
        OpusOptions options = base;
        options.tax_threads = kThreads[lane];
        results[lane] = OpusAllocator(options).AllocateIncremental(
            windows[w], &states[lane]);
      }
      for (std::size_t lane = 1; lane < 3; ++lane) {
        SCOPED_TRACE(::testing::Message()
                     << (aggregated ? "aggregated" : "per-user") << " window "
                     << w << " threads " << kThreads[lane]);
        // Byte-for-byte: EQ on the double vectors, not NEAR.
        EXPECT_EQ(results[lane].file_alloc, results[0].file_alloc);
        EXPECT_EQ(results[lane].taxes, results[0].taxes);
        EXPECT_EQ(results[lane].reported_utilities,
                  results[0].reported_utilities);
        EXPECT_EQ(results[lane].shared, results[0].shared);
      }
    }
  }
}

}  // namespace
}  // namespace opus
