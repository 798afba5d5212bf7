// Core value types of the cache allocation model (paper Sec. II).
//
// N users share M unit-size files under total cache capacity C. User i's
// caching preference for file j is p_ij, normalized so each non-empty row
// sums to 1. An allocation caches a_j in [0,1] of file j with sum_j a_j <= C.
// Because policies differ in *who may read* a cached byte (isolation blocks
// non-owners; FairRide and OpuS block probabilistically), an allocation
// outcome carries a per-(user,file) effective access matrix e_ij: the
// expected in-memory-readable fraction of file j for user i. A user's
// (net) utility against preference row q is sum_j e_ij * q_j, which equals
// its expected effective cache hit ratio when q is its true access
// distribution (Sec. VI, "Metric").
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/matrix.h"

namespace opus {

// A cache allocation instance: reported preferences + capacity.
//
// Two storage modes:
//  - dense-backed (the default): `preferences` holds the N x M matrix and
//    PreferencesCsr() derives the sparse view on demand;
//  - sparse-backed (FromCsr): only the CSR rows exist — `preferences`
//    stays empty — so million-user instances at 0.1% density never
//    materialize the N x M dense form. Sparse-backed problems are served
//    by the CSR-native allocators (OpuS, isolated); dense-only policies
//    must not receive them.
struct CachingProblem {
  Matrix preferences;  // N x M, rows normalized (or identically zero)
  double capacity = 0.0;

  // Optional per-file sizes (positive; empty = unit-size files). a_j stays
  // the cached *fraction* of file j; the capacity constraint becomes
  // sum_j s_j a_j <= C and all budgets/taxes are in size units (paper
  // Sec. V-B, varying file sizes).
  std::vector<double> file_sizes;

  std::size_t num_users() const {
    return dense_backed() ? preferences.rows() : csr_cache_->rows();
  }
  std::size_t num_files() const {
    return dense_backed() ? preferences.cols() : csr_cache_->cols();
  }

  // True when the dense matrix is the source of truth (sparse-backed
  // problems keep it empty and carry only the CSR view).
  bool dense_backed() const {
    return csr_cache_ == nullptr || !preferences.empty() ||
           csr_cache_->rows() == 0;
  }

  // Size of file j (1 when file_sizes is empty).
  double FileSize(std::size_t j) const;

  // Sum of all file sizes.
  double TotalSize() const;

  // Builds a problem from raw non-negative scores (e.g. access frequencies),
  // normalizing each row to sum to 1. Rows that sum to zero stay zero.
  // Requires capacity >= 0.
  static CachingProblem FromRaw(Matrix raw_scores, double capacity);

  // Sparse-backed construction: normalizes each CSR row to sum to 1 and
  // stores only the sparse view (the dense matrix is never built). The
  // row-wise arithmetic matches FromRaw exactly, so a sparse-backed problem
  // and the FromRaw problem of the same scores produce identical solver
  // inputs. Requires capacity >= 0.
  static CachingProblem FromCsr(CsrMatrix raw_scores, double capacity);

  // Copy of this problem with user `i`'s preference row replaced by the
  // (normalized) `misreport`. Used by strategy-proofness analyses.
  CachingProblem WithMisreport(std::size_t i,
                               std::vector<double> misreport) const;

  // CSR view of `preferences`, built (and validated) once on first call and
  // cached; OpuS's N+1 leave-one-out solves all share it. Not thread-safe
  // on the first call. Callers that mutate `preferences` directly after
  // calling this must InvalidatePreferencesCsr() (WithMisreport does).
  const CsrMatrix& PreferencesCsr() const;
  void InvalidatePreferencesCsr() {
    // Sparse-backed problems own no dense source to rebuild from; their
    // CSR is the data, never a cache to drop.
    if (dense_backed()) csr_cache_.reset();
  }

 private:
  mutable std::shared_ptr<const CsrMatrix> csr_cache_;
};

// Outcome of running an allocation policy.
struct AllocationResult {
  std::string policy;

  // Deduplicated in-memory fraction of each file (a_j). For isolated
  // allocations this is the union view (a single physical copy is kept, per
  // the paper's Sec. V implementation note).
  std::vector<double> file_alloc;

  // Effective access matrix e_ij in [0,1] (see file comment).
  Matrix access;

  // Per-user tax charged by the mechanism. Log-utility units for OpuS,
  // utility units for classic VCG, zero for tax-free policies.
  std::vector<double> taxes;

  // Per-user blocking probability f_i enforced to collect the tax.
  std::vector<double> blocking;

  // Utilities w.r.t. the *reported* preferences the allocator saw.
  std::vector<double> reported_utilities;

  // True when the policy settled on cache sharing; false when it reduced to
  // isolated caches (OpuS/VCG stage 2, or the isolation policy itself).
  bool shared = true;

  // For isolated allocations: own_ij = fraction of file j held in user i's
  // private partition (copies). Empty for sharing policies.
  Matrix per_user_copies;

  // Total physical memory consumed, counting duplicate copies (equals
  // sum_j a_j for sharing policies; may exceed it under isolation when the
  // system does not deduplicate). Our isolation dedupes, so this reports
  // the hypothetical copy footprint used for the waste metric.
  double copy_footprint = 0.0;

  // Solver accounting (observability): total iterations across every
  // underlying solve (for OpuS: the PF solve plus N leave-one-out tax
  // solves) and the worst optimality residual among them. Zero for
  // closed-form policies. Deterministic at any thread count.
  std::uint64_t solver_iterations = 0;
  double solver_residual = 0.0;

  // Sparse-solver cost accounting (zero for closed-form policies and for
  // the dense reference engine where not applicable): number of PF solves,
  // capped-simplex projections performed across them, leave-one-out tax
  // solves served by the active-set-restricted fast path, restricted
  // solves whose residual missed tolerance and fell back to a full solve,
  // and the preference-matrix density the solver saw (1 = fully dense).
  std::uint64_t solver_solves = 0;
  std::uint64_t solver_projections = 0;
  std::uint64_t solver_restricted_taxes = 0;
  std::uint64_t solver_restricted_fallbacks = 0;
  double solver_nnz_ratio = 0.0;

  // Incremental-window accounting (zero for cold solves): whether the star
  // solve was warm-started from a previous window, whether cluster-tax
  // reuse was active this window (sticky aggregated windows), how many
  // cluster tax solves ran vs. were reused from the warm state, and the
  // cluster count when user aggregation was in effect (0 = per-user).
  bool solver_warm_started = false;
  bool solver_delta_window = false;
  // True when cluster-tax reuse was skipped for this window because the
  // observed drifted-user fraction crossed
  // OpusDeltaOptions::auto_off_drift_fraction (bookkeeping would cost more
  // than reuse saves).
  bool solver_delta_auto_off = false;
  // Fraction of mechanism-active users whose preference row drifted beyond
  // the drift threshold vs. the warm state (0 for cold and per-user
  // windows without aggregation).
  double solver_drift_fraction = 0.0;
  std::uint64_t solver_delta_resolved = 0;
  std::uint64_t solver_delta_reused = 0;
  std::uint64_t solver_agg_clusters = 0;
};

// Sanity-checks structural invariants of `result` against `problem`
// (dimensions, ranges, capacity). Aborts on violation; used in tests and
// debug paths.
void ValidateResult(const CachingProblem& problem,
                    const AllocationResult& result, double tol = 1e-6);

}  // namespace opus
