#include "core/opus.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>

#include "common/check.h"
#include "common/mathutil.h"
#include "common/thread_pool.h"
#include "core/isolated.h"
#include "core/utility.h"
#include "solver/pf_solver.h"

namespace opus {
namespace {

using SteadyClock = std::chrono::steady_clock;

double WallMs(SteadyClock::time_point begin, SteadyClock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

// Warm-state problem key over the non-matrix inputs: O(N + M) hashing
// instead of retaining and comparing full copies of file sizes and weights.
std::uint64_t ProblemShapeKey(const CachingProblem& problem,
                              const std::vector<double>& priorities) {
  return HashDoubles(priorities, HashDoubles(problem.file_sizes));
}

// Shared inputs of the restricted leave-one-out fast path (read-only once
// the parallel tax loop starts, so the solves stay bit-identical at any
// thread count).
struct TaxContext {
  const CachingProblem* problem = nullptr;
  const CsrMatrix* csr = nullptr;  // null when the dense engine is in use
  const PfSolution* star = nullptr;
  PfOptions pf_options;
  bool restricted = false;

  // Star-allocation structure for the restricted fast path: files strictly
  // inside (0,1), and zero files ordered by the full-problem gradient at a*
  // (descending) — the order in which freed capacity would recruit them.
  std::vector<std::size_t> interior_files;
  std::vector<std::size_t> zero_order;
};

// Leave-one-out solve restricted to columns R = support(i) ∪ interior(a*)
// ∪ (leading zero files by gradient order, enough to absorb ~2x the
// capacity row i's support releases). Every other column is frozen at its
// star value: frozen columns pin their capacity share and contribute to
// every row's utility through per-row offsets, so the restricted optimum
// composes with a* into a candidate for the full problem. Returns the
// composed full-length solution when the full problem's KKT residual
// confirms it; nullopt when the restriction was skipped (R too large) or
// missed tolerance (`attempt_cost` then carries the wasted work for
// accounting).
std::optional<PfSolution> RestrictedLeaveOneOut(
    const TaxContext& ctx, std::size_t i, std::span<const double> loo_weights,
    bool* attempted, PfSolution* attempt_cost) {
  *attempted = false;
  const CsrMatrix& csr = *ctx.csr;
  const std::size_t m = csr.cols();
  const std::vector<double>& a_star = ctx.star->allocation;
  const std::vector<double>& sizes = ctx.problem->file_sizes;
  auto size_of = [&](std::size_t j) {
    return sizes.empty() ? 1.0 : sizes[j];
  };

  std::vector<char> in_r(m, 0);
  std::size_t count = 0;
  double freed = 0.0;  // capacity row i's support holds at a*
  for (std::uint32_t c : csr.row_cols(i)) {
    if (!in_r[c]) {
      in_r[c] = 1;
      ++count;
    }
    freed += size_of(c) * a_star[c];
  }
  for (std::size_t j : ctx.interior_files) {
    if (!in_r[j]) {
      in_r[j] = 1;
      ++count;
    }
  }
  double budget = 2.0 * freed;  // slack so recruits are not capacity-starved
  for (std::size_t j : ctx.zero_order) {
    if (budget <= 0.0) break;
    if (in_r[j]) continue;
    in_r[j] = 1;
    ++count;
    budget -= size_of(j);
  }
  // A restriction covering most columns saves nothing over the full solve.
  if (count * 4 >= m * 3) return std::nullopt;
  *attempted = true;

  std::vector<std::size_t> restricted;
  restricted.reserve(count);
  for (std::size_t j = 0; j < m; ++j) {
    if (in_r[j]) restricted.push_back(j);
  }
  const CsrMatrix sub = csr.ColumnSubset(restricted);

  // Frozen columns: capacity they pin and utility they contribute.
  double frozen_mass = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    if (!in_r[j]) frozen_mass += size_of(j) * a_star[j];
  }
  const double sub_capacity =
      std::max(0.0, ctx.problem->capacity - frozen_mass);
  std::vector<double> offsets(csr.rows(), 0.0);
  for (std::size_t k = 0; k < csr.rows(); ++k) {
    const auto cols = csr.row_cols(k);
    const auto vals = csr.row_vals(k);
    double off = 0.0;
    for (std::size_t t = 0; t < cols.size(); ++t) {
      if (!in_r[cols[t]]) off += vals[t] * a_star[cols[t]];
    }
    offsets[k] = off;
  }

  std::vector<double> warm(restricted.size());
  std::vector<double> sub_sizes;
  if (!sizes.empty()) sub_sizes.resize(restricted.size());
  for (std::size_t r = 0; r < restricted.size(); ++r) {
    warm[r] = a_star[restricted[r]];
    if (!sizes.empty()) sub_sizes[r] = sizes[restricted[r]];
  }

  PfSolution sol =
      SolveProportionalFairnessCsr(sub, sub_capacity, ctx.pf_options,
                                   loo_weights, warm, sub_sizes, offsets);

  // Compose back to full length; restricted utilities already include the
  // frozen columns through the offsets, so they are the full utilities.
  std::vector<double> full_alloc = a_star;
  for (std::size_t r = 0; r < restricted.size(); ++r) {
    full_alloc[restricted[r]] = sol.allocation[r];
  }
  sol.allocation = std::move(full_alloc);
  sol.residual = PfOptimalityResidualCsr(csr, ctx.problem->capacity,
                                         sol.allocation, loo_weights, sizes);
  if (!(sol.residual < ctx.pf_options.tolerance * 10.0)) {
    *attempt_cost = std::move(sol);
    return std::nullopt;
  }
  sol.converged = true;
  return sol;
}

// --- The allocation-window pipeline ----------------------------------------
//
// Every window is Algorithm 1 over the rows of a partition of the users:
// drift -> partition -> star -> taxes -> disaggregate and stage 2 ->
// refresh. Per-user windows solve the identity partition (one row per
// user); aggregated windows solve one row per cluster of similar users
// (ROBUS), of which the identity partition is the finest case.

// Phase 1 output: per-user L1 drift against the warm state's rows, and the
// share of mechanism users whose drift passes the threshold.
struct Drift {
  std::vector<double> per_user;
  double fraction = 0.0;
};

// Walks CSR nonzeros only. Each user writes its own slot, so the parallel
// run is byte-identical to the serial one.
Drift MeasureDrift(const CsrMatrix& now, const CsrMatrix& then,
                   double threshold, unsigned threads) {
  Drift out;
  out.per_user.assign(now.rows(), 0.0);
  ThreadPool::Shared().ParallelFor(
      now.rows(),
      [&](std::size_t i) {
        out.per_user[i] = RowL1DistanceBetween(now, i, then, i);
      },
      threads);
  std::size_t mechanism = 0;
  std::size_t drifted = 0;
  for (std::size_t i = 0; i < now.rows(); ++i) {
    if (now.row_sum(i) > 0.0 || then.row_sum(i) > 0.0) ++mechanism;
    if (out.per_user[i] > threshold) ++drifted;
  }
  out.fraction = mechanism == 0 ? 0.0
                                : static_cast<double>(drifted) /
                                      static_cast<double>(mechanism);
  return out;
}

// Phase 2 output: the rows Algorithm 1 runs over. The identity partition
// borrows the problem's own CSR and priorities; a user clustering owns its
// K-row aggregate problem (so a Partition is filled in place, never moved:
// `problem` may point at `aggregate`).
struct Partition {
  const CachingProblem* problem = nullptr;
  const CsrMatrix* csr = nullptr;   // null when the dense engine is in use
  std::span<const double> weights;  // [row] objective weight; empty = ones
  // Clustered partitions only (empty for the identity partition):
  UserClustering clustering;
  CachingProblem aggregate;
  std::vector<double> members;  // [cluster] member count
  std::vector<char> dirty;      // [cluster] members or a member row changed
  bool sticky = false;

  bool clustered() const { return clustering.num_clusters > 0; }
  double weight(std::size_t c) const {
    return weights.empty() ? 1.0 : weights[c];
  }
  double members_of(std::size_t c) const {
    return members.empty() ? 1.0 : members[c];
  }
};

// One PF solve over the partition's rows at `weights`, on the CSR engine
// or, with `use_dense_solver`, the dense reference engine.
PfSolution SolveRows(const Partition& part, const PfOptions& pf_options,
                     std::span<const double> weights,
                     std::span<const double> warm) {
  const CachingProblem& p = *part.problem;
  return part.csr != nullptr
             ? SolveProportionalFairnessCsr(*part.csr, p.capacity, pf_options,
                                            weights, warm, p.file_sizes)
             : SolveProportionalFairness(p.preferences, p.capacity,
                                         pf_options, weights, warm,
                                         p.file_sizes);
}

// Phase 2. Clusters the users when `aggregate` is set; the identity
// partition stays when it is not, when the auto-tuner degrades the window
// (budget 0), and when no user has a non-empty row. `warm` is the
// compatible warm state, null for a cold window.
void PartitionUsers(const CachingProblem& problem, const CsrMatrix* csr,
                    std::span<const double> priorities,
                    const OpusOptions& options, bool aggregate,
                    const OpusWarmState* warm, const Drift& drift,
                    Partition* out) {
  out->problem = &problem;
  out->csr = csr;
  out->weights = priorities;
  if (!aggregate) return;
  const std::size_t n = problem.num_users();
  const std::size_t budget = ChooseClusterBudget(
      options.aggregation, n, warm != nullptr ? drift.fraction : -1.0);
  // Auto-tuner degrade: drift crossed degrade_drift_fraction, so cluster
  // approximations stop paying for themselves. The window runs per user,
  // warm-started from the same user-granularity state.
  if (budget == 0) return;

  // Sticky against the previous window when auto-tuning and the warm
  // clustering is compatible (and the tuner did not shrink the budget to
  // under half the surviving cluster count — then a fresh coarse
  // clustering beats dragging a fine one along); fresh greedy pass
  // otherwise.
  const std::size_t prev_k = warm != nullptr ? warm->leader_of.size() : 0;
  const bool leaders_valid =
      prev_k > 0 && warm->cluster_of.size() == n &&
      warm->cluster_taxes.size() == prev_k &&
      std::all_of(warm->leader_of.begin(), warm->leader_of.end(),
                  [n](std::uint32_t leader) { return leader < n; });
  const bool sticky = options.aggregation.auto_tune && leaders_valid &&
                      budget * 2 >= prev_k;
  UserClustering clustering;
  if (sticky) {
    clustering = StickyReclusterByPreference(
        problem, options.aggregation, priorities, warm->cluster_of,
        warm->leader_of, drift.per_user, options.delta.drift_threshold,
        budget, &out->dirty);
  } else {
    AggregationOptions fresh = options.aggregation;
    fresh.max_clusters = budget;
    clustering = ClusterUsersByPreference(problem, fresh, priorities);
  }
  if (clustering.num_clusters == 0) return;
  out->aggregate = BuildAggregateProblem(problem, clustering);
  out->members.assign(clustering.num_clusters, 0.0);
  for (const std::uint32_t c : clustering.cluster_of) {
    if (c != kUnclustered) out->members[c] += 1.0;
  }
  out->clustering = std::move(clustering);
  out->problem = &out->aggregate;
  out->csr = &out->aggregate.PreferencesCsr();
  out->weights = out->clustering.cluster_weight;
  out->sticky = sticky;
}

// Cluster-tax reuse (sticky windows): a cluster untouched by drift or
// membership changes whose row saw only a tiny allocation move keeps its
// previous tax. The move is UNSIGNED, sum_j p_cj |a*new_j - a*old_j|:
// opposite-sign moves across a row's support cancel in its utility while
// still reshaping its leave-one-member-out landscape. Approximate by
// design; the per-window FairnessAuditor re-checks the guarantees on the
// applied allocation.
std::vector<char> ReusableRows(const Partition& part, const PfSolution& star,
                               const OpusWarmState& warm, double tolerance) {
  const CsrMatrix& csr = *part.csr;
  std::vector<char> reuse(csr.rows(), 0);
  for (std::size_t c = 0; c < csr.rows() && c < warm.cluster_taxes.size();
       ++c) {
    if (part.dirty[c]) continue;
    const auto cols = csr.row_cols(c);
    const auto vals = csr.row_vals(c);
    double moved = 0.0;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      moved += vals[k] * std::fabs(star.allocation[cols[k]] -
                                   warm.star_allocation[cols[k]]);
    }
    if (moved > tolerance * std::max(star.utilities[c], 1e-12)) continue;
    reuse[c] = 1;
  }
  return reuse;
}

// Phase 4: the Clarke pivot tax of one departing member of every row. Row
// c's weight drops by its mean member weight. A user row drops to exactly
// 0, which is the paper's leave-one-out solve and opens the restricted
// fast path and the zero-row shortcut. A cluster keeps its other members
// at the remaining weight: the individual Clarke pivot under the
// approximation that the member's preferences equal its cluster's
// (removing the whole cluster would price the coalition's externality and
// over-tax every member about member_count-fold). Rows flagged in `reuse`
// keep `prev_taxes[c]`.
//
// The solves are independent; with `tax_threads` > 1 they run through the
// shared pool, each participating thread owning one pre-sized scratch slab
// (weights + log buffer) via its ParallelForSlot slot id — no per-index
// allocation. Taxes and per-row solve stats (never the solutions: those
// would be O(rows * (rows + M)) doubles) land in index-addressed slots and
// are merged into `stats` in order, so the outcome is bit-identical to the
// serial run at any thread count.
std::vector<double> SolveRowTaxes(const Partition& part,
                                  const PfSolution& star,
                                  const PfOptions& pf_options,
                                  bool restricted, unsigned tax_threads,
                                  std::span<const char> reuse,
                                  std::span<const double> prev_taxes,
                                  PfStats* stats) {
  const CachingProblem& problem = *part.problem;
  const CsrMatrix* csr = part.csr;
  const std::size_t rows = problem.num_users();
  const std::size_t m = problem.num_files();
  const unsigned threads =
      tax_threads > 1
          ? std::min<unsigned>(tax_threads, static_cast<unsigned>(rows))
          : 1;

  // Which rows participate in the mechanism (non-empty preference row).
  std::vector<char> row_active(rows, 0);
  for (std::size_t c = 0; c < rows; ++c) {
    double row_sum = 0.0;
    if (csr != nullptr) {
      row_sum = csr->row_sum(c);
    } else {
      for (double p : problem.preferences.row(c)) row_sum += p;
    }
    row_active[c] = row_sum > 0.0 ? 1 : 0;
  }

  // Shared read-only context for the solves, including the star-allocation
  // structure the restricted fast path partitions on.
  TaxContext ctx;
  ctx.problem = &problem;
  ctx.csr = csr;
  ctx.star = &star;
  ctx.pf_options = pf_options;
  ctx.restricted = csr != nullptr && restricted;
  if (ctx.restricted) {
    for (std::size_t j = 0; j < m; ++j) {
      if (star.allocation[j] > 0.0 && star.allocation[j] < 1.0) {
        ctx.interior_files.push_back(j);
      }
    }
    // Gradient of the full objective at a*: zero files with the steepest
    // gradient are the ones freed capacity recruits first. For files
    // outside row c's support this full gradient equals the others'
    // gradient exactly (row c contributes nothing there), and support
    // files are always in R, so one global descending order serves every
    // solve.
    std::vector<double> g_full(m, 0.0);
    for (std::size_t c = 0; c < rows; ++c) {
      if (!row_active[c]) continue;
      const double u = star.utilities[c];
      if (u <= 0.0) continue;
      const double scale = part.weight(c) / u;
      const auto cols = csr->row_cols(c);
      const auto vals = csr->row_vals(c);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        g_full[cols[k]] += scale * vals[k];
      }
    }
    for (std::size_t j = 0; j < m; ++j) {
      if (star.allocation[j] <= 0.0) ctx.zero_order.push_back(j);
    }
    std::sort(ctx.zero_order.begin(), ctx.zero_order.end(),
              [&](std::size_t a, std::size_t b) {
                if (g_full[a] != g_full[b]) return g_full[a] > g_full[b];
                return a < b;  // deterministic tie-break
              });
  }

  // Virtual welfare at the star point, precomputed once: each active row's
  // log term and their Kahan total, so the welfare at star with row c
  // reweighted is an O(1) update instead of an O(rows) re-sum per solve
  // (an O(N^2) term all by itself at million-user scale).
  std::vector<double> star_logs(rows, 0.0);
  double star_log_total = 0.0;
  {
    std::vector<double> terms;
    terms.reserve(rows);
    for (std::size_t k = 0; k < rows; ++k) {
      if (!row_active[k] || part.weight(k) <= 0.0) continue;
      if (star.utilities[k] <= 0.0) continue;
      star_logs[k] = part.weight(k) * std::log(star.utilities[k]);
      terms.push_back(star_logs[k]);
    }
    star_log_total = KahanSum(terms);
  }

  std::vector<double> taxes(rows, 0.0);
  std::vector<PfStats> row_stats(rows);
  struct TaxScratch {
    std::vector<double> weights;  // row weights copy; [c] saved/restored
    std::vector<double> logs;     // welfare accumulation buffer
  };
  std::vector<TaxScratch> scratch(
      ThreadPool::Shared().SlotBound(rows, threads));
  auto tax_for = [&](std::size_t c, std::size_t slot) {
    if (part.members_of(c) <= 0.0) return;  // emptied-out sticky cluster
    if (!reuse.empty() && reuse[c]) {
      taxes[c] = std::max(0.0, prev_taxes[c]);
      return;
    }
    TaxScratch& s = scratch[slot];
    if (s.weights.size() != rows) {
      s.weights.assign(rows, 1.0);
      std::copy(part.weights.begin(), part.weights.end(), s.weights.begin());
      s.logs.reserve(rows);
    }
    std::vector<double>& weights = s.weights;
    const double saved = weights[c];
    const double kept = std::max(0.0, saved - saved / part.members_of(c));
    weights[c] = kept;
    PfSolution without;
    if (kept <= 0.0 && csr != nullptr && !row_active[c]) {
      // Row c never entered the objective, so the leave-one-out problem
      // *is* the star problem: reuse its solution at zero marginal cost.
      without.allocation = star.allocation;
      without.utilities = star.utilities;
      without.objective = star.objective;
      without.residual = star.residual;
      without.converged = star.converged;
    } else {
      bool attempted = false;
      std::optional<PfSolution> fast;
      PfSolution attempt_cost;
      if (kept <= 0.0 && ctx.restricted) {
        fast = RestrictedLeaveOneOut(ctx, c, weights, &attempted,
                                     &attempt_cost);
      }
      if (fast.has_value()) {
        without = std::move(*fast);
        row_stats[c].restricted_solves = 1;
      } else {
        if (attempted) row_stats[c].restricted_fallbacks = 1;
        // Full solve, warm-started from the best available point: the
        // failed restricted composition when there is one, else a*.
        std::span<const double> warm =
            attempted ? std::span<const double>(attempt_cost.allocation)
                      : std::span<const double>(star.allocation);
        without = SolveRows(part, pf_options, weights, warm);
        if (attempted) {
          // Fold the wasted restricted attempt into this tax's accounting.
          without.iterations += attempt_cost.iterations;
          without.projection_calls += attempt_cost.projection_calls;
          without.projection_warm_hits += attempt_cost.projection_warm_hits;
          without.projection_exact += attempt_cost.projection_exact;
        }
      }
    }

    s.logs.clear();
    for (std::size_t k = 0; k < rows; ++k) {
      if (weights[k] <= 0.0 || !row_active[k]) continue;
      // At a PF optimum with positive capacity every row with a non-zero
      // preference row has strictly positive utility; utility can be zero
      // only in the degenerate capacity-0 / no-files instances, where it is
      // zero in both the full and the leave-one-out solution and cancels
      // out of the tax — skip symmetrically with the star-side terms.
      if (without.utilities[k] <= 0.0) continue;
      s.logs.push_back(weights[k] * std::log(without.utilities[k]));
    }
    weights[c] = saved;
    const double welfare_without = KahanSum(s.logs);
    double welfare_at_star = star_log_total - star_logs[c];
    if (kept > 0.0 && row_active[c] && star.utilities[c] > 0.0) {
      welfare_at_star += kept * std::log(star.utilities[c]);
    }
    // The pivot tax is non-negative by optimality of the leave-one-out
    // solution; clamp away solver residual noise.
    taxes[c] = std::max(0.0, welfare_without - welfare_at_star);
    row_stats[c].Observe(without);
  };
  if (threads <= 1) {
    for (std::size_t c = 0; c < rows; ++c) tax_for(c, 0);
  } else {
    ThreadPool::Shared().ParallelForSlot(rows, tax_for, threads);
  }
  for (const PfStats& s : row_stats) stats->Merge(s);
  return taxes;
}

}  // namespace

void OpusWarmState::Invalidate() {
  valid = false;
  preferences = CsrMatrix();
  capacity = 0.0;
  shape_key = 0;
  // swap-with-empty releases capacity immediately: the purge path must not
  // keep a dead million-user state's buffers resident.
  std::vector<double>().swap(star_allocation);
  std::vector<std::uint32_t>().swap(cluster_of);
  std::vector<std::uint32_t>().swap(leader_of);
  std::vector<double>().swap(cluster_taxes);
  windows = 0;
  tombstoned_nnz_ = 0;
}

void OpusWarmState::ForgetUser(std::size_t user) {
  if (!valid || user >= preferences.rows()) return;
  tombstoned_nnz_ += preferences.ZeroRow(user);
  // Compact once tombstones hold a quarter of the stored entries (and are
  // worth the pass at all): mass dropuser churn returns the state to O(live
  // nnz) instead of leaving dead rows resident until the next full refresh.
  if (tombstoned_nnz_ >= 64 && tombstoned_nnz_ * 4 >= preferences.nnz()) {
    preferences.Compact();
    tombstoned_nnz_ = 0;
  }
}

std::size_t OpusWarmState::MemoryBytes() const {
  auto bytes = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  return preferences.MemoryBytes() + bytes(star_allocation) +
         bytes(cluster_of) + bytes(leader_of) + bytes(cluster_taxes);
}

AllocationResult OpusAllocator::Allocate(const CachingProblem& problem) const {
  return AllocateWithDiagnostics(problem, nullptr);
}

AllocationResult OpusAllocator::AllocateWithDiagnostics(
    const CachingProblem& problem, OpusDiagnostics* diag) const {
  return AllocateIncremental(problem, nullptr, diag);
}

AllocationResult OpusAllocator::AllocateIncremental(
    const CachingProblem& problem, OpusWarmState* state,
    OpusDiagnostics* diag) const {
  const auto t_begin = SteadyClock::now();
  const std::size_t n = problem.num_users();
  const std::size_t m = problem.num_files();
  const std::vector<double>& priorities = options_.user_weights;
  if (!priorities.empty()) {
    OPUS_CHECK_EQ(priorities.size(), n);
    for (double w : priorities) OPUS_CHECK_GT(w, 0.0);
  }
  auto priority_of = [&](std::size_t i) {
    return priorities.empty() ? 1.0 : priorities[i];
  };

  PfOptions pf_options;
  pf_options.tolerance = options_.solver_tolerance;
  pf_options.max_iterations = options_.solver_max_iterations;
  pf_options.use_dense_reference = options_.use_dense_solver;

  // The production engine works off the problem's cached CSR view: the
  // matrix is validated and row sums are taken exactly once, shared by
  // every solve of the window.
  const CsrMatrix* csr =
      options_.use_dense_solver ? nullptr : &problem.PreferencesCsr();
  const bool aggregate = (options_.aggregation.max_clusters > 0 ||
                          options_.aggregation.auto_tune) &&
                         csr != nullptr &&
                         n >= options_.aggregation.min_users && n > 0 &&
                         m > 0;
  // A state left over from a clustered window meets a window without
  // aggregation only on a config change (aggregation switched off); start
  // it cold rather than seed a differently-configured mechanism. The
  // auto-tuner's degrade case keeps aggregation on and reuses the state.
  if (!aggregate && state != nullptr && !state->cluster_of.empty()) {
    state->Invalidate();
  }

  // Warm state compatibility: the previous window's solve must describe the
  // same problem shape — dimensions, capacity, and the content hash of file
  // sizes and priority weights (O(N + M) to key instead of retaining and
  // comparing full copies). Anything else degrades to cold.
  const std::uint64_t shape_key = ProblemShapeKey(problem, priorities);
  const bool warm_ok =
      state != nullptr && state->valid && state->preferences.rows() == n &&
      state->preferences.cols() == m && state->capacity == problem.capacity &&
      state->shape_key == shape_key && state->star_allocation.size() == m;

  // Phase 1: drift against the stored user rows, the auto-tuner's input and
  // the sticky re-clustering signal. Measured only when aggregation is
  // configured.
  const bool measure_drift = aggregate && warm_ok;
  Drift drift;
  if (measure_drift) {
    drift = MeasureDrift(*csr, state->preferences,
                         options_.delta.drift_threshold,
                         std::max(1u, options_.tax_threads));
  }
  const auto t_drift = SteadyClock::now();

  // Phase 2: the rows to solve.
  Partition part;
  PartitionUsers(problem, csr, priorities, options_, aggregate,
                 warm_ok ? state : nullptr, drift, &part);
  const auto t_partition = SteadyClock::now();

  // Phase 3 — Stage 1 (VCG_PF): the star solve, warm-started from the
  // previous window's applied per-file allocation (valid however the
  // partition changed: a* is per-file, not per-row).
  const std::span<const double> star_warm =
      warm_ok ? std::span<const double>(state->star_allocation)
              : std::span<const double>();
  const PfSolution star = SolveRows(part, pf_options, part.weights, star_warm);
  const auto t_star = SteadyClock::now();

  // Phase 4: pivot taxes. Auto-off closes cluster-tax reuse when the
  // window drifted too much for its bookkeeping to pay.
  const bool auto_off =
      measure_drift && options_.delta.auto_off_drift_fraction < 1.0 &&
      drift.fraction >= options_.delta.auto_off_drift_fraction;
  const bool reuse_active = part.sticky && !auto_off;
  std::vector<char> reuse;
  if (reuse_active) {
    reuse = ReusableRows(part, star, *state,
                         options_.delta.utility_rel_tolerance);
  }
  const auto reused_taxes =
      static_cast<std::uint64_t>(std::count(reuse.begin(), reuse.end(), 1));
  PfStats solve_stats;
  solve_stats.Observe(star);
  std::vector<double> row_taxes = SolveRowTaxes(
      part, star, pf_options, options_.restricted_tax_solves,
      options_.tax_threads, reuse,
      reuse_active ? std::span<const double>(state->cluster_taxes)
                   : std::span<const double>(),
      &solve_stats);
  const auto t_tax = SteadyClock::now();

  // Phase 5: disaggregate to users, then Stage 2 (PROVIDES_IG). A user
  // row's tax is its user's. A cluster's member tax scales with priority
  // (T_i = member_tax_c * w_i / mean_w_c, which DisaggregateTaxes produces
  // from member_tax_c * member_count_c), so every member of a cluster gets
  // the same blocking probability.
  std::vector<double> taxes;
  std::vector<double> member_utilities;
  if (part.clustered()) {
    std::vector<double> scaled(row_taxes.size());
    for (std::size_t c = 0; c < row_taxes.size(); ++c) {
      scaled[c] = row_taxes[c] * part.members[c];
    }
    DisaggregateTaxes(part.clustering, scaled, priorities, &taxes);
    member_utilities.assign(n, 0.0);
    CsrUtilities(*csr, star.allocation, member_utilities);
  } else {
    taxes.swap(row_taxes);
  }
  const std::vector<double>& utilities =
      part.clustered() ? member_utilities : star.utilities;
  std::vector<double> blocking(n, 0.0);
  std::vector<double> net(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    // The tax lives in virtual-welfare units; user i's virtual utility is
    // w_i log U_i, so the utility share it keeps is exp(-T_i / w_i).
    blocking[i] = 1.0 - std::exp(-taxes[i] / priority_of(i));
    net[i] = std::exp(-taxes[i] / priority_of(i)) * utilities[i];
  }
  // Stage 2 runs at user granularity even for clustered windows: sharing is
  // kept only when every user's net utility covers its own isolated
  // baseline, which cluster-level stage 2 alone cannot promise.
  const std::vector<double> isolated = IsolatedUtilities(problem, priorities);
  bool ig_holds = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (net[i] < isolated[i] - options_.ig_tolerance) {
      ig_holds = false;
      break;
    }
  }

  // Phase 6: refresh the warm state with this window's outcome (even on an
  // isolation fallback: the PF solve and taxes are still the right seed
  // for the next window's sharing attempt). User rows are stored as one
  // CSR, never a dense N x M copy.
  if (state != nullptr) {
    state->preferences = problem.PreferencesCsr();
    state->capacity = problem.capacity;
    state->shape_key = shape_key;
    state->star_allocation = star.allocation;
    state->cluster_of = part.clustering.cluster_of;
    state->leader_of = part.clustering.leader_of;
    state->cluster_taxes = row_taxes;  // empty for the identity partition
    state->windows = warm_ok ? state->windows + 1 : 1;
    state->valid = true;
    state->tombstoned_nnz_ = 0;
  }
  const auto t_fin = SteadyClock::now();

  if (diag != nullptr) {
    diag->pf_allocation = star.allocation;
    diag->pf_utilities = utilities;
    diag->taxes = taxes;
    diag->break_even_taxes.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (isolated[i] <= 0.0) {
        diag->break_even_taxes[i] = std::numeric_limits<double>::infinity();
      } else if (utilities[i] <= 0.0) {
        diag->break_even_taxes[i] = 0.0;
      } else {
        diag->break_even_taxes[i] =
            priority_of(i) * std::log(utilities[i] / isolated[i]);
      }
    }
    diag->net_utilities = net;
    diag->isolated_utilities = isolated;
    diag->settled_on_sharing = ig_holds;
    diag->solver_iterations = static_cast<int>(solve_stats.iterations);
    diag->drift_wall_ms = WallMs(t_begin, t_drift);
    diag->cluster_wall_ms = WallMs(t_drift, t_partition);
    diag->star_wall_ms = WallMs(t_partition, t_star);
    diag->tax_wall_ms = WallMs(t_star, t_tax);
    diag->finalize_wall_ms = WallMs(t_tax, t_fin);
  }

  AllocationResult r;
  if (!ig_holds) {
    r = IsolatedAllocator(priorities).Allocate(problem);
  } else {
    r.file_alloc = star.allocation;
    r.taxes = std::move(taxes);
    r.blocking = std::move(blocking);
    for (std::size_t j = 0; j < m; ++j) {
      r.copy_footprint += r.file_alloc[j] * problem.FileSize(j);
    }
    if (problem.dense_backed()) {
      r.access = Matrix(n, m, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        const double keep = 1.0 - r.blocking[i];
        for (std::size_t j = 0; j < m; ++j) {
          r.access(i, j) = keep * r.file_alloc[j];
        }
      }
      r.reported_utilities = EvaluateUtilities(r, problem.preferences);
    } else {
      // Lean sparse output: the access matrix e_ij = (1 - f_i) a_j is
      // rank-1 and recoverable from blocking + file_alloc; materializing it
      // at N = 10^6 would dwarf every other allocation in the window.
      // Reported utilities are the nets (identical arithmetic to the dense
      // EvaluateUtilities contraction up to fp association).
      r.reported_utilities = std::move(net);
    }
  }
  r.policy = name();
  r.solver_iterations = solve_stats.iterations;
  r.solver_residual = solve_stats.max_residual;
  r.solver_solves = solve_stats.solves;
  r.solver_projections = solve_stats.projection_calls;
  r.solver_restricted_taxes = solve_stats.restricted_solves;
  r.solver_restricted_fallbacks = solve_stats.restricted_fallbacks;
  r.solver_nnz_ratio = part.csr != nullptr ? part.csr->NnzRatio() : 1.0;
  r.solver_warm_started = warm_ok;
  r.solver_agg_clusters = part.clustering.num_clusters;
  r.solver_delta_window = reuse_active;
  r.solver_delta_auto_off = auto_off;
  r.solver_drift_fraction = drift.fraction;
  if (reuse_active) {
    r.solver_delta_resolved =
        static_cast<std::uint64_t>(part.problem->num_users()) - reused_taxes;
    r.solver_delta_reused = reused_taxes;
  }
  return r;
}

}  // namespace opus
