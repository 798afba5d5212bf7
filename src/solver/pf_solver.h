// Proportional-fairness solver for the cache allocation problem (Eq. (2)):
//
//   maximize   sum_i w_i * log( sum_j p_ij * a_j )
//   subject to 0 <= a_j <= 1,  sum_j a_j <= C.
//
// The paper solves this with CVXPY; we ship a native projected-gradient
// method with Barzilai-Borwein steps, Armijo backtracking, and a
// projected-gradient optimality residual. The solver supports warm starts,
// which matter because OpuS's VCG tax computation solves N+1 closely related
// instances (full problem plus each leave-one-out problem).
//
// Two engines solve the same problem:
//  - Sparse (production): Objective/Gradient iterate a CsrMatrix's nonzeros
//    only (O(nnz) per pass) with the exact breakpoint projection and a
//    warm-started tau fast path. Preference validation and row sums are
//    computed once at CSR build time, so OpuS's N leave-one-out solves
//    never re-validate the matrix.
//  - Dense reference (PfOptions::use_dense_reference): the original
//    O(N*M)-per-pass implementation with the bisection projection, kept as
//    a cross-check and as the benchmark baseline.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/matrix.h"

namespace opus {

struct PfOptions {
  // Stop when the unit-step projected-gradient residual drops below this.
  double tolerance = 1e-9;
  // Hard iteration cap (safety net; typical solves need a few hundred).
  int max_iterations = 50000;
  // Check the residual every `check_interval` iterations.
  int check_interval = 10;
  // Use the dense reference engine (pre-sparse-rewrite behaviour: dense
  // passes, per-solve validation, bisection projection). Benchmarks and
  // cross-check tests only.
  bool use_dense_reference = false;
};

struct PfSolution {
  std::vector<double> allocation;  // a_j, feasible for the capped simplex
  std::vector<double> utilities;   // U_i = p_i . a (0 for zero-weight users)
  double objective = 0.0;          // sum of w_i log U_i over active users
  double residual = 0.0;           // final optimality residual
  int iterations = 0;
  bool converged = false;
  // True when a caller-supplied warm start seeded the iteration (the
  // projected warm point had finite objective); false for cold solves and
  // for warm points that were rejected (zero utility for an active user).
  bool warm_start_used = false;

  // Projection cost accounting: total capped-simplex projections, how many
  // resolved via the warm-started tau fast path, and how many ran the full
  // breakpoint (or bisection) solve.
  std::uint64_t projection_calls = 0;
  std::uint64_t projection_warm_hits = 0;
  std::uint64_t projection_exact = 0;
};

// Solves the PF problem.
//
// `preferences` is N x M; rows need not be normalized but must be
// non-negative. `weights` (size N, default all-ones) scales each user's log
// term; a weight of zero removes the user from the objective entirely —
// this is how leave-one-out tax problems are posed without reshaping the
// matrix. Users whose preference row sums to zero are likewise ignored.
// `warm_start` (size M, feasible or not — it is projected) seeds the
// iteration. `file_sizes` (size M, positive; empty = unit sizes) switches
// the capacity constraint to sum_j s_j a_j <= C for heterogeneous files
// (paper Sec. V-B). Requires capacity >= 0.
PfSolution SolveProportionalFairness(
    const Matrix& preferences, double capacity,
    const PfOptions& options = {},
    std::span<const double> weights = {},
    std::span<const double> warm_start = {},
    std::span<const double> file_sizes = {});

// CSR entry point: identical semantics on a prebuilt (validated) sparse
// view; per-pass cost is O(nnz) instead of O(N*M). `utility_offsets`
// (size N, default zeros) adds a fixed term to each user's utility:
// U_i = offset_i + p_i . a. This poses column-restricted subproblems —
// coordinates frozen at known values contribute their utility through the
// offset — and is how OpuS's active-set-restricted leave-one-out tax
// solves re-optimize only the columns near the departing user's support.
PfSolution SolveProportionalFairnessCsr(
    const CsrMatrix& preferences, double capacity,
    const PfOptions& options = {},
    std::span<const double> weights = {},
    std::span<const double> warm_start = {},
    std::span<const double> file_sizes = {},
    std::span<const double> utility_offsets = {});

// Deterministic accumulator over a batch of PF solves (observability):
// OpuS's N+1 tax solves fold their PfSolutions into one of these — in a
// fixed index order when the solves ran in parallel — so downstream
// metrics are identical at any thread count. The restricted_* fields are
// maintained by the caller (OpusAllocator), not Observe().
struct PfStats {
  std::uint64_t solves = 0;
  std::uint64_t iterations = 0;
  std::uint64_t projection_calls = 0;
  std::uint64_t projection_warm_hits = 0;
  std::uint64_t projection_exact = 0;
  std::uint64_t restricted_solves = 0;
  std::uint64_t restricted_fallbacks = 0;
  std::uint64_t warm_started_solves = 0;
  double max_residual = 0.0;

  void Observe(const PfSolution& solution);
  // Adds `other`'s counts and keeps the larger residual.
  void Merge(const PfStats& other);
};

// Max KKT violation of `allocation` for the PF problem: the L-inf norm of
// Proj(a + grad f(a)) - a. Zero iff `allocation` is optimal. Used by tests.
double PfOptimalityResidual(const Matrix& preferences, double capacity,
                            std::span<const double> allocation,
                            std::span<const double> weights = {},
                            std::span<const double> file_sizes = {});

// CSR variant of the residual, used by the restricted leave-one-out tax
// fast path to decide whether a composed solution is already optimal for
// the full problem or must fall back to a full solve.
double PfOptimalityResidualCsr(const CsrMatrix& preferences, double capacity,
                               std::span<const double> allocation,
                               std::span<const double> weights = {},
                               std::span<const double> file_sizes = {});

// Utilities U_i = p_i . a against a CSR matrix (O(nnz)); bitwise identical
// to the dense dot products (zeros add exactly nothing).
void CsrUtilities(const CsrMatrix& preferences,
                  std::span<const double> allocation,
                  std::vector<double>& utilities);

}  // namespace opus
