// ROBUS-style user aggregation for million-tenant allocation windows.
//
// Algorithm 1 costs N+1 PF solves per window; at N = 10^5..10^6 even the
// restricted leave-one-out fast path is too slow for interactive windows.
// Aggregation collapses users into K << N clusters of similar normalized
// preference rows, solves the K-cluster problem (each cluster weighted by
// its member count / total priority so the PF objective approximates the
// user-level one), and disaggregates the outcome back to users:
//
//  - the file allocation a* is shared verbatim (it is per-file, not
//    per-user);
//  - each cluster's Clarke tax is split across members proportionally to
//    their priority weight, which makes every member's blocking
//    probability exactly the cluster's (T_i / w_i = T_c / W_c);
//  - isolation is then re-checked per *user* (net_i >= U-bar_i), because
//    cluster-level stage 2 only guarantees it for cluster aggregates —
//    callers fall back to isolated caches when any member would be hurt.
//
// Clustering is deterministic and cheap: users are bucketed by their
// top-preference file ("signature"), and inside a bucket a bounded greedy
// leader pass splits users whose rows are farther than an L1 threshold
// from every existing leader. Zero-preference rows stay unclustered (they
// are outside the mechanism, exactly as in the user-level solve).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.h"

namespace opus {

struct AggregationOptions {
  // Maximum clusters; 0 disables aggregation (unless auto_tune is set, in
  // which case the budget is unbounded above and the tuner picks it).
  std::size_t max_clusters = 0;
  // L1 distance (rows are normalized, so in [0, 2]) to the nearest leader
  // beyond which a user founds a new cluster (budget permitting).
  double similarity_threshold = 0.5;
  // Skip aggregation below this many users (the direct solve is cheap).
  std::size_t min_users = 0;
  // At most this many leaders per signature bucket; beyond it, users join
  // the nearest existing leader. Bounds the clustering pass to
  // O(N * leaders_per_signature * nnz_row).
  std::size_t leaders_per_signature = 4;

  // Drift-adaptive cluster auto-tuning. When set, the per-window cluster
  // budget is chosen from the drift statistics the warm state observed
  // instead of being pinned at max_clusters:
  //   - cold window (no drift signal): the full budget (max_clusters, or
  //     min(4 * min_clusters, N) when max_clusters = 0);
  //   - drift fraction d < degrade_drift_fraction: budget =
  //     min_clusters * (1 + growth_gain * d), clamped to
  //     [min_clusters, max budget] — coarse clusters while the workload is
  //     stable, growing toward fine granularity as drift rises;
  //   - d >= degrade_drift_fraction: aggregation is skipped for the window
  //     (per-user solves — the reuse gates have closed and cluster
  //     approximations stop paying for themselves).
  // The tuner also keeps the previous clustering sticky: non-drifted users
  // keep their cluster, only drifted/new users are re-assigned, and
  // clusters untouched by drift or membership changes can reuse their
  // leave-one-member-out tax from the warm state (subject to the
  // allocation-move gate of OpusDeltaOptions).
  bool auto_tune = false;
  std::size_t min_clusters = 64;
  double degrade_drift_fraction = 0.5;
  double growth_gain = 8.0;
};

// Drift-adaptive cluster budget for one window (see AggregationOptions).
// `drift_fraction` < 0 means "no signal" (cold window). Returns 0 when the
// window should degrade to per-user solves. Without auto_tune this is just
// max_clusters.
std::size_t ChooseClusterBudget(const AggregationOptions& options,
                                std::size_t num_users, double drift_fraction);

// Invalid cluster id: the user has an all-zero preference row and is
// outside the mechanism (tax 0, no objective term).
inline constexpr std::uint32_t kUnclustered = 0xffffffffu;

struct UserClustering {
  std::size_t num_clusters = 0;
  std::vector<std::uint32_t> cluster_of;  // [user] -> cluster id (or kUnclustered)
  std::vector<double> cluster_weight;     // [cluster] summed member weights
  std::vector<std::uint32_t> leader_of;   // [cluster] founding user id
};

// Deterministic clustering of `problem.preferences` rows (normalized).
// `user_weights` (optional, positive) are the per-user priorities; empty =
// all ones. Requires options.max_clusters > 0.
UserClustering ClusterUsersByPreference(const CachingProblem& problem,
                                        const AggregationOptions& options,
                                        std::span<const double> user_weights = {});

// Sticky re-clustering for drift-adaptive windows: users whose row did not
// drift keep their previous cluster (ids are stable, so cluster-level warm
// artifacts stay addressable); drifted users and users without a valid
// previous assignment are re-assigned against the surviving leaders'
// CURRENT rows, founding new clusters while num_clusters < budget.
// `dirty` (resized to the resulting cluster count) marks clusters whose
// member set or any member row changed — only those need their
// leave-one-member-out tax re-solved. Requires prev_cluster_of.size() ==
// num_users and every leader id < num_users.
UserClustering StickyReclusterByPreference(
    const CachingProblem& problem, const AggregationOptions& options,
    std::span<const double> user_weights,
    std::span<const std::uint32_t> prev_cluster_of,
    std::span<const std::uint32_t> prev_leader_of,
    std::span<const double> drift, double drift_threshold, std::size_t budget,
    std::vector<char>* dirty);

// K x M aggregate problem: cluster c's row is the weight-averaged member
// rows, re-normalized; capacity and file sizes carry over unchanged. The
// result is sparse-backed (CSR only): at-scale aggregates never build the
// K x M dense matrix.
CachingProblem BuildAggregateProblem(const CachingProblem& problem,
                                     const UserClustering& clustering);

// Splits per-cluster taxes across members proportionally to weight:
// T_i = T_c * w_i / W_c (0 for unclustered users). `user_weights` empty =
// all ones. Output is resized to clustering.cluster_of.size().
void DisaggregateTaxes(const UserClustering& clustering,
                       std::span<const double> cluster_taxes,
                       std::span<const double> user_weights,
                       std::vector<double>* user_taxes);

// Exact L1 distance between two users' normalized preference rows, walking
// only CSR nonzeros. Exposed for tests.
double RowL1DistanceCsr(const CsrMatrix& csr, std::size_t a, std::size_t b);

}  // namespace opus
