// ROBUS-style user aggregation (core/aggregation.h + clustered windows of
// AllocateIncremental): clustering is deterministic and complete, tax
// disaggregation splits by priority weight, singleton clusters reproduce
// the user-level mechanism, and aggregated windows preserve every user's
// isolation guarantee (the property cluster-level stage 2 alone cannot
// give).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/aggregation.h"
#include "core/opus.h"
#include "core/utility.h"
#include "workload/preference_gen.h"

namespace opus {
namespace {

CachingProblem ZipfProblem(std::size_t users, std::size_t files,
                           double capacity, std::uint64_t seed,
                           double density = 1.0) {
  workload::ZipfPreferenceConfig cfg;
  cfg.num_users = users;
  cfg.num_files = files;
  cfg.alpha = 1.1;
  if (density < 1.0) {
    cfg.support_fraction = density;
  }
  Rng rng(seed);
  CachingProblem p;
  p.preferences = workload::GenerateZipfPreferences(cfg, rng);
  p.capacity = capacity;
  return p;
}

TEST(AggregationTest, ClusteringIsDeterministicAndComplete) {
  const CachingProblem p = ZipfProblem(64, 32, 8.0, 3);
  AggregationOptions options;
  options.max_clusters = 12;
  options.similarity_threshold = 0.6;
  const UserClustering a = ClusterUsersByPreference(p, options);
  const UserClustering b = ClusterUsersByPreference(p, options);
  EXPECT_EQ(a.cluster_of, b.cluster_of);
  EXPECT_EQ(a.cluster_weight, b.cluster_weight);
  EXPECT_EQ(a.leader_of, b.leader_of);

  ASSERT_GT(a.num_clusters, 0u);
  EXPECT_LE(a.num_clusters, options.max_clusters);
  double clustered_weight = 0.0;
  for (std::size_t i = 0; i < p.num_users(); ++i) {
    ASSERT_TRUE(a.cluster_of[i] == kUnclustered ||
                a.cluster_of[i] < a.num_clusters);
    if (a.cluster_of[i] != kUnclustered) clustered_weight += 1.0;
  }
  double total_weight = 0.0;
  for (const double w : a.cluster_weight) total_weight += w;
  EXPECT_NEAR(total_weight, clustered_weight, 1e-9);
  // Zipf rows are all nonzero, so everyone joins some cluster.
  EXPECT_NEAR(clustered_weight, static_cast<double>(p.num_users()), 1e-9);
}

TEST(AggregationTest, ZeroRowsStayUnclustered) {
  CachingProblem p = ZipfProblem(8, 16, 4.0, 5);
  auto row = p.preferences.row(2);
  for (std::size_t j = 0; j < row.size(); ++j) row[j] = 0.0;
  p.InvalidatePreferencesCsr();
  AggregationOptions options;
  options.max_clusters = 8;
  const UserClustering c = ClusterUsersByPreference(p, options);
  EXPECT_EQ(c.cluster_of[2], kUnclustered);
}

TEST(AggregationTest, RowL1DistanceMatchesDense) {
  const CachingProblem p = ZipfProblem(10, 24, 6.0, 7, 0.4);
  const CsrMatrix& csr = p.PreferencesCsr();
  for (std::size_t a = 0; a < p.num_users(); ++a) {
    for (std::size_t b = a; b < p.num_users(); ++b) {
      double dense = 0.0;
      for (std::size_t j = 0; j < p.num_files(); ++j) {
        dense += std::abs(p.preferences(a, j) - p.preferences(b, j));
      }
      EXPECT_NEAR(RowL1DistanceCsr(csr, a, b), dense, 1e-12)
          << "rows " << a << "," << b;
    }
  }
}

TEST(AggregationTest, DisaggregateTaxesSplitsByWeight) {
  UserClustering c;
  c.num_clusters = 2;
  c.cluster_of = {0, 0, 1, kUnclustered, 1};
  c.cluster_weight = {3.0, 3.0};  // weights below sum to these
  const std::vector<double> cluster_taxes = {0.6, 1.2};
  const std::vector<double> weights = {1.0, 2.0, 2.0, 5.0, 1.0};
  std::vector<double> taxes;
  DisaggregateTaxes(c, cluster_taxes, weights, &taxes);
  ASSERT_EQ(taxes.size(), 5u);
  EXPECT_NEAR(taxes[0], 0.2, 1e-12);  // 0.6 * 1/3
  EXPECT_NEAR(taxes[1], 0.4, 1e-12);  // 0.6 * 2/3
  EXPECT_NEAR(taxes[2], 0.8, 1e-12);  // 1.2 * 2/3
  EXPECT_EQ(taxes[3], 0.0);           // unclustered: outside the mechanism
  EXPECT_NEAR(taxes[4], 0.4, 1e-12);  // 1.2 * 1/3
  // Member taxes reassemble the cluster tax.
  EXPECT_NEAR(taxes[0] + taxes[1], cluster_taxes[0], 1e-12);
  EXPECT_NEAR(taxes[2] + taxes[4], cluster_taxes[1], 1e-12);
}

TEST(AggregationTest, SingletonClustersReproduceTheDirectSolve) {
  // Every user its own cluster: the aggregate problem is the original one
  // and each leave-one-member-out solve is exactly the leave-one-out solve,
  // so the whole mechanism must round-trip through the aggregation layer.
  const CachingProblem p = ZipfProblem(12, 24, 6.0, 9);
  OpusOptions options;
  options.aggregation.max_clusters = 64;
  options.aggregation.similarity_threshold = 1e-9;
  options.aggregation.leaders_per_signature = 64;  // never force-join
  const OpusAllocator agg_alloc(options);
  OpusWarmState state;
  const AllocationResult agg = agg_alloc.AllocateIncremental(p, &state);
  ASSERT_EQ(agg.solver_agg_clusters, p.num_users());

  const AllocationResult direct = OpusAllocator().Allocate(p);
  EXPECT_EQ(agg.shared, direct.shared);
  for (std::size_t j = 0; j < p.num_files(); ++j) {
    EXPECT_NEAR(agg.file_alloc[j], direct.file_alloc[j], 1e-5) << j;
  }
  for (std::size_t i = 0; i < p.num_users(); ++i) {
    EXPECT_NEAR(agg.taxes[i], direct.taxes[i], 1e-5) << "user " << i;
    EXPECT_NEAR(agg.reported_utilities[i], direct.reported_utilities[i],
                1e-5)
        << "user " << i;
  }
}

TEST(AggregationTest, AggregatedWindowPreservesIsolationPerUser) {
  const CachingProblem p = ZipfProblem(96, 48, 12.0, 13, 0.3);
  OpusOptions options;
  options.aggregation.max_clusters = 12;
  options.aggregation.similarity_threshold = 0.6;
  const OpusAllocator alloc(options);
  OpusWarmState state;
  const AllocationResult r = alloc.AllocateIncremental(p, &state);
  ASSERT_GT(r.solver_agg_clusters, 0u);
  EXPECT_LE(r.solver_agg_clusters, 12u);

  const std::vector<double> isolated = IsolatedUtilities(p);
  for (std::size_t i = 0; i < p.num_users(); ++i) {
    EXPECT_GE(r.reported_utilities[i], isolated[i] - 1e-7) << "user " << i;
  }
  // Capacity is respected by the disaggregated allocation.
  double used = 0.0;
  for (std::size_t j = 0; j < p.num_files(); ++j) {
    used += r.file_alloc[j] * p.FileSize(j);
  }
  EXPECT_LE(used, p.capacity + 1e-6);
}

TEST(AggregationTest, AggregatedStateWarmStartsTheNextWindow) {
  const CachingProblem p = ZipfProblem(64, 32, 8.0, 17);
  OpusOptions options;
  options.aggregation.max_clusters = 8;
  options.aggregation.similarity_threshold = 0.8;
  const OpusAllocator alloc(options);
  OpusWarmState state;
  const AllocationResult first = alloc.AllocateIncremental(p, &state);
  EXPECT_FALSE(first.solver_warm_started);
  EXPECT_TRUE(state.valid);
  EXPECT_FALSE(state.cluster_of.empty());
  EXPECT_EQ(state.windows, 1u);

  const AllocationResult second = alloc.AllocateIncremental(p, &state);
  EXPECT_TRUE(second.solver_warm_started);
  EXPECT_EQ(state.windows, 2u);
  // Identical windows: the warm solve lands on the same outcome.
  for (std::size_t i = 0; i < p.num_users(); ++i) {
    EXPECT_NEAR(second.taxes[i], first.taxes[i], 1e-6);
  }

  // A window with aggregation off must not consume a cluster state — and
  // afterwards the state belongs to per-user windows.
  const OpusAllocator direct_alloc;
  const AllocationResult direct = direct_alloc.AllocateIncremental(p, &state);
  EXPECT_FALSE(direct.solver_warm_started);
  EXPECT_TRUE(state.cluster_of.empty());
}

TEST(AggregationTest, ChooseClusterBudgetFollowsDrift) {
  AggregationOptions o;
  o.auto_tune = true;
  o.min_clusters = 16;
  // Cold window (no drift signal): full budget = min(4 * min_clusters, N).
  EXPECT_EQ(ChooseClusterBudget(o, 1000, -1.0), 64u);
  EXPECT_EQ(ChooseClusterBudget(o, 40, -1.0), 40u);
  // Stable workload: coarse clusters at the floor.
  EXPECT_EQ(ChooseClusterBudget(o, 1000, 0.0), 16u);
  // Rising drift widens the budget: 16 * (1 + 8 * 0.25) = 48.
  EXPECT_EQ(ChooseClusterBudget(o, 1000, 0.25), 48u);
  // At the degrade threshold the window runs per-user (budget 0).
  EXPECT_EQ(ChooseClusterBudget(o, 1000, 0.5), 0u);
  EXPECT_EQ(ChooseClusterBudget(o, 1000, 0.9), 0u);
  // An explicit max_clusters caps the growth.
  o.max_clusters = 20;
  EXPECT_EQ(ChooseClusterBudget(o, 1000, 0.25), 20u);
  // Without auto_tune the budget is pinned at max_clusters.
  o.auto_tune = false;
  EXPECT_EQ(ChooseClusterBudget(o, 1000, 0.25), 20u);
}

TEST(AggregationTest, HighDriftDegradesToPerUserWithoutColdRestart) {
  // Prime an auto-tuned aggregated state, then hit it with a window where
  // every user's row drifts: the tuner must degrade the window to per-user
  // solves (no clusters) while still consuming the user-granularity warm
  // state — degrading is not a cold restart. The same window must also
  // trip delta auto-off.
  OpusOptions options;
  options.aggregation.auto_tune = true;
  options.aggregation.min_clusters = 4;
  options.delta.drift_threshold = 0.05;
  options.delta.auto_off_drift_fraction = 0.5;
  const OpusAllocator alloc(options);

  const CachingProblem w0 = ZipfProblem(64, 32, 8.0, 23);
  const CachingProblem w1 = ZipfProblem(64, 32, 8.0, 29);  // total drift
  OpusWarmState state;
  const AllocationResult first = alloc.AllocateIncremental(w0, &state);
  EXPECT_GT(first.solver_agg_clusters, 0u);

  const AllocationResult second = alloc.AllocateIncremental(w1, &state);
  EXPECT_EQ(second.solver_agg_clusters, 0u);  // degraded to per-user
  EXPECT_TRUE(second.solver_warm_started);    // ... but not cold
  EXPECT_TRUE(second.solver_delta_auto_off);
  EXPECT_FALSE(second.solver_delta_window);
  EXPECT_GE(second.solver_drift_fraction, 0.5);
  // The degraded window is a plain warm solve: exact per-user mechanism.
  const AllocationResult cold = OpusAllocator().Allocate(w1);
  ASSERT_EQ(second.taxes.size(), cold.taxes.size());
  for (std::size_t i = 0; i < cold.taxes.size(); ++i) {
    EXPECT_NEAR(second.taxes[i], cold.taxes[i], 1e-6) << "user " << i;
  }
}

TEST(AggregationTest, StickyReclusterKeepsStableUsersAndReusesTaxes) {
  // Low-drift auto-tuned windows: after the budget settles, a window with
  // a handful of drifted users must keep every stable user's cluster id
  // and reuse the untouched clusters' taxes.
  OpusOptions options;
  options.aggregation.auto_tune = true;
  options.aggregation.min_clusters = 8;
  options.delta.drift_threshold = 0.05;
  const OpusAllocator alloc(options);

  const CachingProblem w0 = ZipfProblem(128, 32, 8.0, 31, 0.4);
  OpusWarmState state;
  alloc.AllocateIncremental(w0, &state);  // cold, full budget
  alloc.AllocateIncremental(w0, &state);  // budget settles to the floor
  const std::vector<std::uint32_t> before = state.cluster_of;

  // Drift exactly one user: blend its row toward a fresh draw.
  CachingProblem w1 = w0;
  {
    const CachingProblem fresh = ZipfProblem(1, 32, 8.0, 37, 0.4);
    auto row = w1.preferences.row(5);
    const auto src = fresh.preferences.row(0);
    for (std::size_t j = 0; j < row.size(); ++j) {
      row[j] = 0.5 * row[j] + 0.5 * src[j];
    }
    w1.InvalidatePreferencesCsr();
  }

  const AllocationResult r = alloc.AllocateIncremental(w1, &state);
  EXPECT_GT(r.solver_agg_clusters, 0u);
  EXPECT_TRUE(r.solver_delta_window);  // cluster-tax reuse was active
  EXPECT_GT(r.solver_delta_reused, 0u);
  ASSERT_EQ(state.cluster_of.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (i == 5) continue;  // the drifted user may move clusters
    EXPECT_EQ(state.cluster_of[i], before[i]) << "user " << i;
  }
}

}  // namespace
}  // namespace opus
