// OpuS — Opportunistic Sharing for high efficiency (paper Sec. IV,
// Algorithm 1).
//
// Stage 1 (VCG_PF): compute the proportional-fair allocation
//   a* = argmax sum_i log U_i(a)   s.t. 0 <= a_j <= 1, sum_j a_j <= C,
// then charge each user the Clarke pivot tax in virtual (log) utility:
//   T_i = sum_{k!=i} V_k(a*_{-i}) - sum_{k!=i} V_k(a*),
// where a*_{-i} is the PF allocation with user i removed. The tax is
// realized by blocking user i's in-memory accesses with probability
//   f_i = 1 - exp(-T_i),
// so the net utility is exp(-T_i) * U_i(a*).
//
// Stage 2 (PROVIDES_IG): if any user is charged beyond its break-even tax
//   T-bar_i = log(U_i(a*) / U-bar_i)
// (equivalently, its net utility falls below its isolated utility), the
// sharing attempt fails and the allocation reduces to isolated caches.
#pragma once

#include <cstdint>

#include "core/aggregation.h"
#include "core/allocator.h"

namespace opus {

// Tuning of aggregated incremental windows (options.aggregation): how
// drift is measured against the warm state, when a sticky cluster keeps its
// previous leave-one-member-out tax, and when that reuse shuts off.
// Windows without aggregation never read these: they re-solve every user,
// warm-started from the previous window's allocation.
struct OpusDeltaOptions {
  // Per-user L1 preference drift (normalized rows, so in [0, 2]) beyond
  // which a user counts as drifted: the auto-tuner's drift fraction and the
  // sticky re-clustering signal. 0.05 is well under the clustering
  // similarity threshold.
  double drift_threshold = 0.05;
  // A clean sticky cluster's tax is reused only if the allocation moved —
  // summed UNSIGNED over its preference row, sum_j p_cj |da_j| — by less
  // than this fraction of its star utility; larger neighborhood moves mean
  // the optimum shifted under the cluster and its solve is re-run.
  double utility_rel_tolerance = 0.01;
  // Auto-off: when the drifted-user fraction of a window reaches this,
  // cluster-tax reuse is skipped for the window — the bookkeeping costs
  // more than the few reusable taxes save. 1.0 (the default) never
  // auto-disables; the daemon flag --delta-auto-off sets it.
  double auto_off_drift_fraction = 1.0;
};

// Cross-window solver state owned by the control loop (OpusMaster). The
// allocator both consumes and refreshes it on every AllocateIncremental
// call; Invalidate() forces the next window cold (policy swap, capacity
// reconfig) and releases the stored rows.
//
// Storage is memory-lean by construction: preference rows live as one CSR
// (never a dense N x M copy — warm state for 10^6 users at 0.1% density is
// hundreds of MB, not TB), and the problem key is dimensions + capacity +
// an O(M + N) content hash of file sizes and priority weights instead of
// retained full copies. Every window stores user-granularity rows, so
// drift statistics work across per-user and clustered windows; clustered
// windows add the clustering and cluster taxes for sticky re-clustering
// and cluster-tax reuse.
struct OpusWarmState {
  bool valid = false;
  CsrMatrix preferences;  // normalized USER rows of the problem last solved
  double capacity = 0.0;
  std::uint64_t shape_key = 0;  // HashDoubles(file_sizes) ^mixed weights
  std::vector<double> star_allocation;  // previous applied a* (length M)
  // Aggregated-window artifacts (empty after a per-user window):
  std::vector<std::uint32_t> cluster_of;  // [user] -> cluster (or kUnclustered)
  std::vector<std::uint32_t> leader_of;   // [cluster] founding user id
  std::vector<double> cluster_taxes;      // [cluster] leave-one-member-out tax
  std::uint64_t windows = 0;  // consecutive windows served warm

  // Invalidates AND releases storage (the purge path: policy swap or
  // capacity reconfig must not keep a dead million-user CSR resident).
  void Invalidate();

  // Forgets one user's row (user churn): the stored row is tombstoned, so
  // a revived user's first non-empty window registers as drift and its
  // cluster is re-solved instead of reusing departed-tenant state.
  // Accumulated tombstones are compacted once they reach a quarter of the
  // stored entries, so mass dropuser churn returns the state's memory to
  // baseline instead of leaving dead rows resident.
  void ForgetUser(std::size_t user);

  // Heap bytes held by the state (tests and bench memory accounting).
  std::size_t MemoryBytes() const;

 private:
  friend class OpusAllocator;  // resets churn accounting on state refresh
  std::size_t tombstoned_nnz_ = 0;
};

struct OpusOptions {
  // Numerical slack for the isolation-guarantee gate: sharing is kept when
  // net_i >= U-bar_i - ig_tolerance for all i. Covers solver residual noise.
  double ig_tolerance = 1e-7;
  // PF solver optimality tolerance.
  double solver_tolerance = 1e-10;
  // PF solver iteration cap.
  int solver_max_iterations = 200000;
  // Threads for the N leave-one-out tax solves (0/1 = sequential). The
  // solves are independent, so results are bit-identical regardless of the
  // thread count; this only shrinks Algorithm 1's wall time at large N.
  unsigned tax_threads = 0;
  // Use the dense reference PF engine (pre-sparse-rewrite behaviour) for
  // every solve. Benchmarks and cross-check tests only; the production
  // sparse engine produces the same allocations to solver tolerance.
  bool use_dense_solver = false;
  // Serve leave-one-out tax solves with the active-set-restricted fast
  // path (sparse engine only): re-optimize just the columns near the
  // departing user's support plus the interior files, validate the composed
  // solution against the full problem's KKT residual, and fall back to a
  // full solve when the residual misses tolerance.
  bool restricted_tax_solves = true;
  // Aggregated-window tuning (only consulted when AllocateIncremental is
  // called with a state and aggregation is on; plain Allocate is cold).
  OpusDeltaOptions delta;
  // ROBUS-style user aggregation: cluster users by normalized-preference
  // similarity, solve the K-cluster problem, split each cluster's tax
  // across members by priority weight, and re-check isolation per user
  // (falling back to isolated caches when any member would be hurt).
  // max_clusters = 0 disables. Sparse engine only.
  AggregationOptions aggregation;
  // Priority weights (extension beyond the paper): user i's virtual
  // utility becomes w_i log U_i, its isolation baseline a C * w_i / sum(w)
  // partition, and its blocking probability 1 - exp(-T_i / w_i). Empty =
  // equal weights (the paper's mechanism). All weights must be positive.
  std::vector<double> user_weights;
};

// Detailed stage-1 artifacts, exposed for tests, benches, and the bench for
// Fig. 9 (chance of settling on sharing).
struct OpusDiagnostics {
  std::vector<double> pf_allocation;     // a*
  std::vector<double> pf_utilities;      // U_i(a*)
  std::vector<double> taxes;             // T_i (log-utility units, >= 0)
  std::vector<double> break_even_taxes;  // T-bar_i (+inf when U-bar_i = 0)
  std::vector<double> net_utilities;     // exp(-T_i) U_i(a*)
  std::vector<double> isolated_utilities;  // U-bar_i
  bool settled_on_sharing = false;
  int solver_iterations = 0;  // across all N+1 PF solves

  // Per-phase wall-clock breakdown of the window (ms). Timing only — never
  // feeds back into the allocation, so results stay deterministic.
  double drift_wall_ms = 0.0;     // drift stats vs. the warm state
  double cluster_wall_ms = 0.0;   // (re-)clustering + aggregate build
  double star_wall_ms = 0.0;      // star PF solve
  double tax_wall_ms = 0.0;       // leave-one-out / leave-one-member-out solves
  double finalize_wall_ms = 0.0;  // disaggregation, stage 2, state refresh
};

class OpusAllocator final : public CacheAllocator {
 public:
  explicit OpusAllocator(OpusOptions options = {}) : options_(options) {}

  std::string name() const override { return "opus"; }
  AllocationResult Allocate(const CachingProblem& problem) const override;

  // Allocate() plus the stage-1 diagnostics.
  AllocationResult AllocateWithDiagnostics(const CachingProblem& problem,
                                           OpusDiagnostics* diag) const;

  // Incremental window: warm-starts every PF solve from `state`, then
  // refreshes `state` with this window's outcome. A null, invalid, or
  // structurally incompatible state (dimension/capacity/file-size/weight
  // mismatch) degrades to the cold solve, byte-identical to Allocate().
  // With options.aggregation configured the window is solved at cluster
  // granularity and disaggregated (see OpusDeltaOptions for its reuse).
  AllocationResult AllocateIncremental(const CachingProblem& problem,
                                       OpusWarmState* state,
                                       OpusDiagnostics* diag = nullptr) const;

 private:
  OpusOptions options_;
};

}  // namespace opus
