#include "solver/pf_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/mathutil.h"
#include "solver/projection.h"

namespace opus {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

double UserWeight(std::span<const double> weights, std::size_t i) {
  return weights.empty() ? 1.0 : weights[i];
}

double OffsetAt(std::span<const double> offsets, std::size_t i) {
  return offsets.empty() ? 0.0 : offsets[i];
}

// --- Dense reference engine (pre-sparse-rewrite behaviour) ---------------

// Users that participate in the objective: positive weight and a non-zero
// preference row. The dense engine re-validates the matrix per solve, like
// the original implementation did; the sparse engine validates once at CSR
// build time instead.
struct DenseOps {
  const Matrix& prefs;
  std::uint64_t projection_calls = 0;
  std::uint64_t projection_exact = 0;

  std::size_t rows() const { return prefs.rows(); }
  std::size_t cols() const { return prefs.cols(); }
  double Offset(std::size_t) const { return 0.0; }

  std::vector<std::size_t> Active(std::span<const double> weights) const {
    std::vector<std::size_t> active;
    for (std::size_t i = 0; i < prefs.rows(); ++i) {
      if (!weights.empty() && weights[i] <= 0.0) continue;
      double row_sum = 0.0;
      for (double p : prefs.row(i)) {
        OPUS_CHECK_GE(p, 0.0);
        row_sum += p;
      }
      if (row_sum > 0.0) active.push_back(i);
    }
    return active;
  }

  // Objective sum_i w_i log(p_i . a) over active users; -inf if any active
  // user has zero utility.
  double Objective(std::span<const double> weights,
                   const std::vector<std::size_t>& active,
                   std::span<const double> a,
                   std::vector<double>& utilities) const {
    double obj = 0.0;
    for (std::size_t i : active) {
      const double u = Dot(prefs.row(i), a);
      utilities[i] = u;
      if (u <= 0.0) return kNegInf;
      obj += UserWeight(weights, i) * std::log(u);
    }
    return obj;
  }

  // grad_j = sum_i w_i p_ij / U_i. `utilities` must already hold p_i . a.
  void Gradient(std::span<const double> weights,
                const std::vector<std::size_t>& active,
                const std::vector<double>& utilities,
                std::vector<double>& g) const {
    std::fill(g.begin(), g.end(), 0.0);
    for (std::size_t i : active) {
      const double scale = UserWeight(weights, i) / utilities[i];
      const auto row = prefs.row(i);
      for (std::size_t j = 0; j < row.size(); ++j) g[j] += scale * row[j];
    }
  }

  void Project(std::span<const double> y, double capacity,
               std::span<const double> file_sizes, std::vector<double>& out) {
    out = ProjectCappedSimplexBisect(y, capacity, file_sizes);
    ++projection_calls;
    ++projection_exact;
  }

  double Utility(std::size_t i, std::span<const double> a) const {
    return Dot(prefs.row(i), a);
  }

  std::uint64_t warm_hits() const { return 0; }
};

// --- Sparse production engine --------------------------------------------

struct SparseOps {
  const CsrMatrix& prefs;
  std::span<const double> offsets;  // fixed utility term per user (or empty)
  CappedSimplexProjector projector;

  std::size_t rows() const { return prefs.rows(); }
  std::size_t cols() const { return prefs.cols(); }
  double Offset(std::size_t i) const { return OffsetAt(offsets, i); }

  // Row sums are cached in the CSR view, so the active-user scan is O(N)
  // and never re-validates preferences.
  std::vector<std::size_t> Active(std::span<const double> weights) const {
    std::vector<std::size_t> active;
    for (std::size_t i = 0; i < prefs.rows(); ++i) {
      if (!weights.empty() && weights[i] <= 0.0) continue;
      if (prefs.row_sum(i) > 0.0 || Offset(i) > 0.0) active.push_back(i);
    }
    return active;
  }

  double Objective(std::span<const double> weights,
                   const std::vector<std::size_t>& active,
                   std::span<const double> a,
                   std::vector<double>& utilities) const {
    double obj = 0.0;
    for (std::size_t i : active) {
      const double u = Utility(i, a);
      utilities[i] = u;
      if (u <= 0.0) return kNegInf;
      obj += UserWeight(weights, i) * std::log(u);
    }
    return obj;
  }

  void Gradient(std::span<const double> weights,
                const std::vector<std::size_t>& active,
                const std::vector<double>& utilities,
                std::vector<double>& g) const {
    std::fill(g.begin(), g.end(), 0.0);
    for (std::size_t i : active) {
      const double scale = UserWeight(weights, i) / utilities[i];
      const auto cols = prefs.row_cols(i);
      const auto vals = prefs.row_vals(i);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        g[cols[k]] += scale * vals[k];
      }
    }
  }

  void Project(std::span<const double> y, double capacity,
               std::span<const double> file_sizes, std::vector<double>& out) {
    projector.Project(y, capacity, file_sizes, out);
  }

  double Utility(std::size_t i, std::span<const double> a) const {
    double u = Offset(i);
    const auto cols = prefs.row_cols(i);
    const auto vals = prefs.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) u += vals[k] * a[cols[k]];
    return u;
  }

  std::uint64_t projection_calls_total() const {
    return projector.stats().calls;
  }
  std::uint64_t warm_hits() const { return projector.stats().warm_hits; }
  std::uint64_t exact_solves() const { return projector.stats().exact_solves; }
};

void RecordProjectionStats(const DenseOps& ops, PfSolution& sol) {
  sol.projection_calls = ops.projection_calls;
  sol.projection_warm_hits = 0;
  sol.projection_exact = ops.projection_exact;
}

void RecordProjectionStats(const SparseOps& ops, PfSolution& sol) {
  sol.projection_calls = ops.projection_calls_total();
  sol.projection_warm_hits = ops.warm_hits();
  sol.projection_exact = ops.exact_solves();
}

// Shared projected-gradient core: Barzilai-Borwein steps, Armijo
// backtracking on the projected step, periodic KKT residual checks. The
// engine (`Ops`) supplies Objective/Gradient/Project/Utility; both engines
// run the byte-same control flow, so dense-vs-sparse differences reduce to
// per-pass arithmetic over zeros (exactly nothing in IEEE) and projection
// root-finding noise.
template <typename Ops>
PfSolution SolveCore(Ops& ops, double capacity, const PfOptions& options,
                     std::span<const double> weights,
                     std::span<const double> warm_start,
                     std::span<const double> file_sizes) {
  OPUS_CHECK_GE(capacity, 0.0);
  const std::size_t n = ops.rows();
  if (!weights.empty()) OPUS_CHECK_EQ(weights.size(), n);
  const std::size_t m = ops.cols();
  if (!file_sizes.empty()) {
    OPUS_CHECK_EQ(file_sizes.size(), m);
    for (double s : file_sizes) OPUS_CHECK_GT(s, 0.0);
  }
  double total_size = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    total_size += file_sizes.empty() ? 1.0 : file_sizes[j];
  }

  PfSolution sol;
  sol.utilities.assign(n, 0.0);

  const auto active = ops.Active(weights);
  if (m == 0 || capacity == 0.0 || active.empty()) {
    // Nothing to allocate or nobody to please: any feasible point is
    // optimal; return the zero allocation (or projected warm start when no
    // user is active but capacity exists — zero keeps results deterministic).
    sol.allocation.assign(m, 0.0);
    sol.objective = active.empty() ? 0.0 : kNegInf;
    sol.converged = true;
    // Utilities are still reported against the returned allocation (zero
    // here), which for restricted subproblems is the fixed offset term.
    for (std::size_t i = 0; i < n; ++i) sol.utilities[i] = ops.Offset(i);
    RecordProjectionStats(ops, sol);
    return sol;
  }

  // If capacity covers every file, a_j = 1 is optimal (objective is
  // monotone non-decreasing in each a_j).
  if (capacity >= total_size) {
    sol.allocation.assign(m, 1.0);
    std::vector<double> util(n, 0.0);
    sol.objective = ops.Objective(weights, active, sol.allocation, util);
    for (std::size_t i = 0; i < n; ++i) {
      sol.utilities[i] = ops.Utility(i, sol.allocation);
    }
    sol.converged = true;
    RecordProjectionStats(ops, sol);
    return sol;
  }

  // Starting point: warm start if provided (projected), else uniform spread
  // which guarantees positive utility for every active user.
  std::vector<double> a;
  const double uniform_fill = capacity / total_size;  // < 1 here
  if (!warm_start.empty()) {
    OPUS_CHECK_EQ(warm_start.size(), m);
    ops.Project(warm_start, capacity, file_sizes, a);
    std::vector<double> util(n, 0.0);
    if (ops.Objective(weights, active, a, util) == kNegInf) {
      a.assign(m, uniform_fill);
    } else {
      sol.warm_start_used = true;
    }
  } else {
    a.assign(m, uniform_fill);
  }

  std::vector<double> utilities(n, 0.0);
  std::vector<double> g(m, 0.0), g_prev(m, 0.0), a_prev(m, 0.0);
  std::vector<double> cand(m, 0.0), trial(m, 0.0), proj(m, 0.0);
  std::vector<double> cand_util(n, 0.0);

  double f = ops.Objective(weights, active, a, utilities);
  OPUS_CHECK(f > kNegInf);
  ops.Gradient(weights, active, utilities, g);

  double step = 1.0;
  bool have_prev = false;

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    sol.iterations = iter;

    // Barzilai-Borwein step length from the previous iterate pair.
    if (have_prev) {
      double sy = 0.0, ss = 0.0;
      for (std::size_t j = 0; j < m; ++j) {
        const double s = a[j] - a_prev[j];
        const double y = g_prev[j] - g[j];  // curvature of -f
        ss += s * s;
        sy += s * y;
      }
      if (sy > 1e-18 && ss > 0.0) {
        step = Clamp(ss / sy, 1e-12, 1e12);
      } else {
        step = std::min(step * 2.0, 1e12);
      }
    }

    // Armijo backtracking on the projected step.
    double f_cand = kNegInf;
    bool accepted = false;
    for (int bt = 0; bt < 80; ++bt) {
      for (std::size_t j = 0; j < m; ++j) trial[j] = a[j] + step * g[j];
      ops.Project(trial, capacity, file_sizes, cand);
      f_cand = ops.Objective(weights, active, cand, cand_util);
      if (f_cand > kNegInf) {
        double descent = 0.0;  // <g, cand - a> >= 0 for a projected ascent
        for (std::size_t j = 0; j < m; ++j) descent += g[j] * (cand[j] - a[j]);
        if (f_cand >= f + 1e-4 * descent || descent <= 0.0) {
          accepted = true;
          break;
        }
      }
      step *= 0.5;
    }
    if (!accepted) break;  // numerically stuck; residual reported below

    std::swap(a_prev, a);
    std::swap(g_prev, g);
    std::swap(a, cand);
    std::swap(utilities, cand_util);
    f = f_cand;
    ops.Gradient(weights, active, utilities, g);
    have_prev = true;

    if (iter % options.check_interval == 0) {
      // Unit-step projected-gradient residual: zero iff KKT-optimal.
      for (std::size_t j = 0; j < m; ++j) trial[j] = a[j] + g[j];
      ops.Project(trial, capacity, file_sizes, proj);
      const double res = MaxAbsDiff(proj, a);
      if (res < options.tolerance) {
        sol.residual = res;
        sol.converged = true;
        break;
      }
    }
  }

  if (!sol.converged) {
    for (std::size_t j = 0; j < m; ++j) trial[j] = a[j] + g[j];
    ops.Project(trial, capacity, file_sizes, proj);
    sol.residual = MaxAbsDiff(proj, a);
    sol.converged = sol.residual < options.tolerance * 10.0;
  }

  sol.allocation = std::move(a);
  sol.objective = f;
  for (std::size_t i = 0; i < n; ++i) {
    sol.utilities[i] = ops.Utility(i, sol.allocation);
  }
  RecordProjectionStats(ops, sol);
  return sol;
}

}  // namespace

PfSolution SolveProportionalFairness(const Matrix& preferences,
                                     double capacity,
                                     const PfOptions& options,
                                     std::span<const double> weights,
                                     std::span<const double> warm_start,
                                     std::span<const double> file_sizes) {
  if (options.use_dense_reference) {
    DenseOps ops{preferences};
    return SolveCore(ops, capacity, options, weights, warm_start, file_sizes);
  }
  // One-time validation + row sums happen in the CSR build; repeated solves
  // over the same matrix should prebuild the view (CachingProblem caches
  // it) and call SolveProportionalFairnessCsr directly.
  const CsrMatrix csr = CsrMatrix::FromDense(preferences);
  return SolveProportionalFairnessCsr(csr, capacity, options, weights,
                                      warm_start, file_sizes);
}

PfSolution SolveProportionalFairnessCsr(const CsrMatrix& preferences,
                                        double capacity,
                                        const PfOptions& options,
                                        std::span<const double> weights,
                                        std::span<const double> warm_start,
                                        std::span<const double> file_sizes,
                                        std::span<const double> utility_offsets) {
  if (!utility_offsets.empty()) {
    OPUS_CHECK_EQ(utility_offsets.size(), preferences.rows());
  }
  SparseOps ops{preferences, utility_offsets, {}};
  return SolveCore(ops, capacity, options, weights, warm_start, file_sizes);
}

double PfOptimalityResidual(const Matrix& preferences, double capacity,
                            std::span<const double> allocation,
                            std::span<const double> weights,
                            std::span<const double> file_sizes) {
  const CsrMatrix csr = CsrMatrix::FromDense(preferences);
  return PfOptimalityResidualCsr(csr, capacity, allocation, weights,
                                 file_sizes);
}

double PfOptimalityResidualCsr(const CsrMatrix& preferences, double capacity,
                               std::span<const double> allocation,
                               std::span<const double> weights,
                               std::span<const double> file_sizes) {
  OPUS_CHECK_EQ(allocation.size(), preferences.cols());
  SparseOps ops{preferences, {}, {}};
  const auto active = ops.Active(weights);
  std::vector<double> utilities(preferences.rows(), 0.0);
  if (ops.Objective(weights, active, allocation, utilities) == kNegInf) {
    return std::numeric_limits<double>::infinity();
  }
  std::vector<double> g(preferences.cols(), 0.0);
  ops.Gradient(weights, active, utilities, g);
  std::vector<double> trial(preferences.cols());
  for (std::size_t j = 0; j < trial.size(); ++j) {
    trial[j] = allocation[j] + g[j];
  }
  const auto proj = ProjectCappedSimplex(trial, capacity, file_sizes);
  return MaxAbsDiff(proj, allocation);
}

void CsrUtilities(const CsrMatrix& preferences,
                  std::span<const double> allocation,
                  std::vector<double>& utilities) {
  OPUS_CHECK_EQ(allocation.size(), preferences.cols());
  utilities.assign(preferences.rows(), 0.0);
  for (std::size_t i = 0; i < preferences.rows(); ++i) {
    const auto cols = preferences.row_cols(i);
    const auto vals = preferences.row_vals(i);
    double u = 0.0;
    for (std::size_t k = 0; k < cols.size(); ++k) u += vals[k] * allocation[cols[k]];
    utilities[i] = u;
  }
}

void PfStats::Observe(const PfSolution& solution) {
  ++solves;
  iterations += static_cast<std::uint64_t>(solution.iterations);
  projection_calls += solution.projection_calls;
  projection_warm_hits += solution.projection_warm_hits;
  projection_exact += solution.projection_exact;
  warm_started_solves += solution.warm_start_used ? 1 : 0;
  max_residual = std::max(max_residual, solution.residual);
}

void PfStats::Merge(const PfStats& other) {
  solves += other.solves;
  iterations += other.iterations;
  projection_calls += other.projection_calls;
  projection_warm_hits += other.projection_warm_hits;
  projection_exact += other.projection_exact;
  restricted_solves += other.restricted_solves;
  restricted_fallbacks += other.restricted_fallbacks;
  warm_started_solves += other.warm_started_solves;
  max_residual = std::max(max_residual, other.max_residual);
}

}  // namespace opus
