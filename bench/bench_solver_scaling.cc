// Solver scaling bench: full OpusAllocator::Allocate (star PF solve plus N
// leave-one-out tax solves) across an N x M x density grid, run through
// both PF engines:
//   - sparse (production): CSR kernels, exact breakpoint projection with
//     warm-started tau, active-set-restricted tax solves;
//   - dense (reference): the pre-optimization baseline — dense passes,
//     per-solve validation, bisection projection, full tax solves.
//
// Emits machine-readable JSON (default BENCH_solver.json) with median/p90
// wall time, iteration and projection counts, and the sparse/dense
// agreement self-check; exits non-zero when the engines disagree, so CI
// can gate on it. `--smoke` shrinks the grid for CI.
//
// A second grid benchmarks incremental allocation windows (minority-drift
// scenarios, N up to 10^4): window 0 primes an OpusWarmState, then window 1
// — identical except for a drifted minority of users — is solved cold,
// warm-started, and through ROBUS-style user aggregation. Self-checks gate
// the run: warm results must agree with the cold solve, and the aggregated
// allocation must preserve every user's isolation guarantee.
//
// A third grid benchmarks full allocation windows at scale (N up to 10^6
// users, built directly in CSR — no dense N x M intermediate anywhere).
// Each cell runs in a forked child so the parent can account its true peak
// RSS (wait4 ru_maxrss); the child compares the PR-7-era fixed-cluster
// config against the drift-adaptive auto-tuner (sticky re-clustering +
// cluster-tax reuse + reuse auto-off) and self-gates on (a) bit-identical
// results across tax thread counts, (b) per-user isolation, and (c)
// agreement with a no-reuse oracle window.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/mathutil.h"
#include "common/rng.h"
#include "core/opus.h"
#include "core/utility.h"
#include "scenarios.h"

namespace opus::bench {
namespace {

struct Cell {
  std::size_t users = 0;
  std::size_t files = 0;
  double density = 0.0;  // ZipfProblem support fraction
};

struct EngineRun {
  double median_ms = 0.0;
  double p90_ms = 0.0;
  AllocationResult result;  // representative (runs are deterministic)
};

double Percentile(std::vector<double> v, double q) {
  OPUS_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

EngineRun RunEngine(const CachingProblem& problem, bool dense, unsigned threads,
                    int reps) {
  OpusOptions options;
  options.use_dense_solver = dense;
  options.tax_threads = threads;
  const OpusAllocator alloc(options);
  EngineRun run;
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    AllocationResult result = alloc.Allocate(problem);
    const auto end = std::chrono::steady_clock::now();
    ms.push_back(std::chrono::duration<double, std::milli>(end - start).count());
    if (r == 0) run.result = std::move(result);
  }
  run.median_ms = Percentile(ms, 0.5);
  run.p90_ms = Percentile(ms, 0.9);
  return run;
}

double MaxDiff(const std::vector<double>& a, const std::vector<double>& b) {
  OPUS_CHECK_EQ(a.size(), b.size());
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d = std::max(d, std::fabs(a[i] - b[i]));
  }
  return d;
}

// --- incremental-window (warm / aggregation) grid -------------------------

struct IncCell {
  std::size_t users = 0;
  std::size_t files = 0;
  double density = 0.0;         // ZipfProblem support fraction
  double drift_fraction = 0.0;  // share of users whose rows change
};

// Window-1 problem: `base` with the first ceil(fraction * N) users' rows
// blended halfway toward freshly randomized Zipf rows (a minority-drift
// window: the drifted rows stay normalized and land at L1 distance ~1
// from their old selves — far above any sane drift threshold, while the
// rest of the population is bit-identical).
CachingProblem MinorityDrift(const CachingProblem& base, double fraction,
                             double density, Rng& rng) {
  CachingProblem out = base;
  const std::size_t n = base.num_users();
  const std::size_t drifted = std::max<std::size_t>(
      1, static_cast<std::size_t>(fraction * static_cast<double>(n)));
  const CachingProblem fresh = ZipfProblem(drifted, base.num_files(),
                                           base.capacity, rng, 1.1, density);
  for (std::size_t i = 0; i < drifted; ++i) {
    auto dst = out.preferences.row(i);
    const auto src = fresh.preferences.row(i);
    for (std::size_t j = 0; j < dst.size(); ++j) {
      dst[j] = 0.5 * dst[j] + 0.5 * src[j];
    }
  }
  out.InvalidatePreferencesCsr();
  return out;
}

struct IncRun {
  double median_ms = 0.0;
  AllocationResult result;
};

// Times AllocateIncremental on `window1` with a state primed on `window0`
// (the prime solve is not measured; each rep re-primes a fresh state so
// every measurement sees the same one-window-old warm state).
IncRun RunIncrementalMode(const OpusOptions& options,
                          const CachingProblem& window0,
                          const CachingProblem& window1, int reps) {
  const OpusAllocator alloc(options);
  IncRun run;
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    OpusWarmState state;
    alloc.AllocateIncremental(window0, &state);
    const auto start = std::chrono::steady_clock::now();
    AllocationResult result = alloc.AllocateIncremental(window1, &state);
    const auto end = std::chrono::steady_clock::now();
    ms.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
    if (r == 0) run.result = std::move(result);
  }
  run.median_ms = Percentile(ms, 0.5);
  return run;
}

// Runs the incremental grid, appending a JSON array under key
// "incremental". Returns false when any self-check fails.
bool RunIncrementalGrid(FILE* out, bool smoke, int reps, unsigned threads) {
  std::vector<IncCell> cells;
  if (smoke) {
    cells.push_back({128, 128, 0.1, 0.1});
    cells.push_back({256, 128, 0.1, 0.1});
  } else {
    cells.push_back({4096, 256, 0.05, 0.01});
    cells.push_back({4096, 256, 0.05, 0.1});
    cells.push_back({10000, 256, 0.05, 0.1});
  }

  // Warm windows re-solve the same problems and must match the cold solve
  // to solver tolerance.
  constexpr double kAllocTol = 1e-5;
  constexpr double kExactTaxTol = 1e-6;
  constexpr double kIsolationTol = 1e-6;

  std::fprintf(out, "  \"incremental\": [\n");
  bool all_ok = true;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const IncCell& cell = cells[c];
    const double capacity = 0.25 * static_cast<double>(cell.files);
    Rng rng(40900 + 311 * c);
    const CachingProblem window0 = ZipfProblem(
        cell.users, cell.files, capacity, rng, 1.1, cell.density);
    const CachingProblem window1 =
        MinorityDrift(window0, cell.drift_fraction, cell.density, rng);

    OpusOptions base_options;
    base_options.tax_threads = threads;

    // Cold baseline: plain Allocate on window 1. Timed once at very large
    // N (the whole point of the incremental path is not paying this).
    const int cold_reps = cell.users > 20000 ? 1 : reps;
    const OpusAllocator cold_alloc(base_options);
    double cold_ms = 0.0;
    AllocationResult cold;
    {
      std::vector<double> ms;
      for (int r = 0; r < cold_reps; ++r) {
        const auto start = std::chrono::steady_clock::now();
        AllocationResult result = cold_alloc.Allocate(window1);
        const auto end = std::chrono::steady_clock::now();
        ms.push_back(
            std::chrono::duration<double, std::milli>(end - start).count());
        if (r == 0) cold = std::move(result);
      }
      cold_ms = Percentile(ms, 0.5);
    }

    // Warm: every solve warm-started, nothing reused.
    const IncRun warm =
        RunIncrementalMode(base_options, window0, window1, reps);
    // Aggregated: cluster users, solve at cluster granularity.
    OpusOptions agg_options = base_options;
    agg_options.aggregation.max_clusters =
        std::min<std::size_t>(256, cell.users / 4);
    agg_options.aggregation.similarity_threshold = 0.6;
    const IncRun agg = RunIncrementalMode(agg_options, window0, window1, reps);

    const double warm_alloc_diff =
        MaxDiff(warm.result.file_alloc, cold.file_alloc);
    const double warm_tax_diff = MaxDiff(warm.result.taxes, cold.taxes);
    const bool warm_ok = warm.result.shared == cold.shared &&
                         warm_alloc_diff <= kAllocTol &&
                         warm_tax_diff <= kExactTaxTol;

    // Aggregation collapses the problem, so its allocation legitimately
    // differs from the cold one; the guarantee it must preserve is per-user
    // isolation (reported utilities are net of blocking).
    const std::vector<double> isolated = IsolatedUtilities(window1);
    bool agg_isolation_ok = true;
    double agg_net_ratio = 0.0;
    {
      double net_sum = 0.0, cold_sum = 0.0;
      for (std::size_t i = 0; i < cell.users; ++i) {
        if (agg.result.reported_utilities[i] < isolated[i] - kIsolationTol) {
          agg_isolation_ok = false;
        }
        net_sum += agg.result.reported_utilities[i];
        cold_sum += cold.reported_utilities[i];
      }
      agg_net_ratio = cold_sum > 0.0 ? net_sum / cold_sum : 1.0;
    }

    all_ok = all_ok && warm_ok && agg_isolation_ok;
    auto speedup = [&](double mode_ms) {
      return mode_ms > 0.0 ? cold_ms / mode_ms : 0.0;
    };

    std::fprintf(
        out,
        "    {\"users\": %zu, \"files\": %zu, \"density\": %g, "
        "\"drift_fraction\": %g, \"capacity\": %g,\n"
        "     \"cold\": {\"median_ms\": %.3f, \"solves\": %llu},\n"
        "     \"warm\": {\"median_ms\": %.3f, \"speedup\": %.2f, "
        "\"warm_started\": %s, \"max_alloc_diff\": %.3e, "
        "\"max_tax_diff\": %.3e, \"agree\": %s},\n"
        "     \"agg\": {\"median_ms\": %.3f, \"speedup\": %.2f, "
        "\"clusters\": %llu, \"net_utility_ratio\": %.4f, "
        "\"isolation_ok\": %s}}%s\n",
        cell.users, cell.files, cell.density, cell.drift_fraction, capacity,
        cold_ms, static_cast<unsigned long long>(cold.solver_solves),
        warm.median_ms, speedup(warm.median_ms),
        warm.result.solver_warm_started ? "true" : "false", warm_alloc_diff,
        warm_tax_diff, warm_ok ? "true" : "false", agg.median_ms,
        speedup(agg.median_ms),
        static_cast<unsigned long long>(agg.result.solver_agg_clusters),
        agg_net_ratio, agg_isolation_ok ? "true" : "false",
        c + 1 < cells.size() ? "," : "");
    std::fprintf(
        stderr,
        "[inc %zu/%zu] N=%zu M=%zu drift=%.0f%%: cold %.1f ms, warm %.1f ms "
        "(%.1fx), agg %.1f ms (%.1fx, %llu clusters) ok=%s\n",
        c + 1, cells.size(), cell.users, cell.files,
        100.0 * cell.drift_fraction, cold_ms, warm.median_ms,
        speedup(warm.median_ms), agg.median_ms, speedup(agg.median_ms),
        static_cast<unsigned long long>(agg.result.solver_agg_clusters),
        warm_ok && agg_isolation_ok ? "yes" : "NO");
  }
  std::fprintf(out, "  ],\n");
  return all_ok;
}

// --- at-scale sparse grid (fork-isolated, peak-RSS accounted) -------------

struct ScaleCell {
  std::size_t users = 0;
  std::size_t files = 0;
  std::size_t support = 0;         // nonzeros per user row
  std::size_t fixed_clusters = 0;  // PR-7 baseline cluster count; 0 = skip
  std::size_t auto_min = 0;        // auto-tuner min_clusters
  double drift_fraction = 0.0;     // share of users re-drawn for window 1
  double max_rss_mb = 0.0;         // 0 = record only, else a hard CI bound
};

// Builds an N x M sparse-backed problem directly in CSR form: each user's
// row holds `support` distinct files drawn from a Zipf(alpha) popularity
// curve by inverse-CDF. The builder itself must stay memory-lean — at
// N = 10^6 the dense form would be over 100 GB, so no N x M intermediate
// may exist at any point.
CachingProblem SparseZipfProblem(std::size_t users, std::size_t files,
                                 std::size_t support, double capacity,
                                 Rng& rng, double alpha = 1.1) {
  OPUS_CHECK_GT(support, 0u);
  OPUS_CHECK_LE(support, files);
  std::vector<double> cdf(files);
  double total = 0.0;
  for (std::size_t j = 0; j < files; ++j) {
    total += 1.0 / std::pow(static_cast<double>(j + 1), alpha);
    cdf[j] = total;
  }
  std::vector<std::size_t> row_ptr(users + 1, 0);
  std::vector<std::uint32_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(users * support);
  values.reserve(users * support);
  std::vector<std::uint32_t> row;
  row.reserve(support);
  for (std::size_t i = 0; i < users; ++i) {
    row.clear();
    // Inverse-CDF draws with dedupe. Popular head files collide often, so
    // the attempt budget is capped and a pathological draw sequence simply
    // yields a slightly smaller support (never spins).
    for (std::size_t attempts = 0;
         row.size() < support && attempts < 8 * support; ++attempts) {
      const double u = rng.NextDouble() * total;
      auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
      if (it == cdf.end()) --it;
      const auto j = static_cast<std::uint32_t>(it - cdf.begin());
      if (std::find(row.begin(), row.end(), j) == row.end()) row.push_back(j);
    }
    std::sort(row.begin(), row.end());
    for (const std::uint32_t j : row) {
      col_idx.push_back(j);
      values.push_back(0.5 + rng.NextDouble());
    }
    row_ptr[i + 1] = col_idx.size();
  }
  return CachingProblem::FromCsr(
      CsrMatrix::FromParts(users, files, std::move(row_ptr),
                           std::move(col_idx), std::move(values)),
      capacity);
}

// Window-1 problem: the first ceil(fraction * N) users' rows are re-drawn
// from the same popularity curve (new support and new scores); every other
// row is spliced through bit-identical, so drift detection separates the
// populations exactly.
CachingProblem SparseMinorityDrift(const CachingProblem& base,
                                   std::size_t support, double fraction,
                                   Rng& rng) {
  const CsrMatrix& csr = base.PreferencesCsr();
  const std::size_t n = csr.rows();
  const std::size_t drifted = std::max<std::size_t>(
      1, static_cast<std::size_t>(fraction * static_cast<double>(n)));
  const CachingProblem fresh =
      SparseZipfProblem(drifted, csr.cols(), support, base.capacity, rng);
  const CsrMatrix& fcsr = fresh.PreferencesCsr();
  std::vector<std::size_t> row_ptr(n + 1, 0);
  std::vector<std::uint32_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(csr.nnz());
  values.reserve(csr.nnz());
  for (std::size_t i = 0; i < n; ++i) {
    const CsrMatrix& src = i < drifted ? fcsr : csr;
    const auto cols = src.row_cols(i);
    const auto vals = src.row_vals(i);
    col_idx.insert(col_idx.end(), cols.begin(), cols.end());
    values.insert(values.end(), vals.begin(), vals.end());
    row_ptr[i + 1] = col_idx.size();
  }
  return CachingProblem::FromCsr(
      CsrMatrix::FromParts(n, csr.cols(), std::move(row_ptr),
                           std::move(col_idx), std::move(values)),
      base.capacity);
}

bool BytesEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// One at-scale cell, run inside the forked child: primes a warm state on
// window 0, then measures window 1 under the fixed-cluster baseline and the
// auto-tuner, and runs the three correctness gates. Prints one complete
// JSON object (no trailing comma — the parent splices in the RSS) and
// returns whether every gate passed.
bool RunScaleCell(const ScaleCell& cell, unsigned threads, FILE* out) {
  const double capacity = 0.25 * static_cast<double>(cell.files);
  Rng rng(77000 + 13 * cell.users);
  const CachingProblem window0 = SparseZipfProblem(
      cell.users, cell.files, cell.support, capacity, rng);
  // Window 1 is the cell's drift window (cell.drift_fraction of the users
  // re-drawn — uniform drift touches nearly every cluster, so it measures
  // budget growth and sticky re-clustering). Window 2 is a stable window
  // (a handful of users re-drawn): the regime cluster-tax reuse exists
  // for, and where the correctness gates have teeth.
  const CachingProblem window1 =
      SparseMinorityDrift(window0, cell.support, cell.drift_fraction, rng);
  const CachingProblem window2 = SparseMinorityDrift(
      window1, cell.support, 8.0 / static_cast<double>(cell.users), rng);
  const std::size_t nnz = window1.PreferencesCsr().nnz();

  auto wall_ms = [](auto fn) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(end - start).count();
  };

  // PR-7-era baseline: pinned cluster count, fresh clustering every window,
  // no cross-window reuse.
  double fixed1_ms = 0.0, fixed2_ms = 0.0;
  AllocationResult fixed_result;
  if (cell.fixed_clusters > 0) {
    OpusOptions fixed_options;
    fixed_options.tax_threads = threads;
    fixed_options.aggregation.max_clusters = cell.fixed_clusters;
    fixed_options.aggregation.similarity_threshold = 0.6;
    const OpusAllocator fixed_alloc(fixed_options);
    OpusWarmState state;
    fixed_alloc.AllocateIncremental(window0, &state);
    fixed1_ms = wall_ms([&] {
      fixed_alloc.AllocateIncremental(window1, &state);
    });
    fixed2_ms = wall_ms([&] {
      fixed_result = fixed_alloc.AllocateIncremental(window2, &state);
    });
  }

  // Drift-adaptive auto-tuner: sticky re-clustering, cluster-tax reuse,
  // reuse auto-off once the drifted fraction breaches 5%.
  OpusOptions auto_options;
  auto_options.tax_threads = threads;
  auto_options.aggregation.auto_tune = true;
  auto_options.aggregation.min_clusters = cell.auto_min;
  auto_options.aggregation.similarity_threshold = 0.6;
  auto_options.delta.drift_threshold = 0.02;
  auto_options.delta.utility_rel_tolerance = 0.05;
  auto_options.delta.auto_off_drift_fraction = 0.05;
  const OpusAllocator auto_alloc(auto_options);

  OpusWarmState primed;
  const double prime_ms = wall_ms([&] {
    // Two priming windows: the cold window runs at the tuner's full cold
    // budget, and the second lets the budget settle into the low-drift
    // regime — so the measured window exercises sticky re-clustering and
    // cluster-tax reuse (the steady serving state, not the one-window
    // post-cold transient where the budget shrink forces a re-cluster).
    auto_alloc.AllocateIncremental(window0, &primed);
    auto_alloc.AllocateIncremental(window0, &primed);
  });
  const double warm_state_mb =
      static_cast<double>(primed.MemoryBytes()) / (1024.0 * 1024.0);

  OpusDiagnostics diag1, diag2;
  AllocationResult auto1, auto2;
  double auto1_ms = 0.0, auto2_ms = 0.0;
  OpusWarmState after1;  // the state entering window 2 (gate legs re-run it)
  {
    OpusWarmState state = primed;
    auto1_ms = wall_ms([&] {
      auto1 = auto_alloc.AllocateIncremental(window1, &state, &diag1);
    });
    after1 = state;
    auto2_ms = wall_ms([&] {
      auto2 = auto_alloc.AllocateIncremental(window2, &state, &diag2);
    });
  }

  // Gate (a): tax solves are bit-identical at any thread count.
  bool determinism_ok = true;
  {
    AllocationResult r1, r8;
    {
      OpusOptions o = auto_options;
      o.tax_threads = 1;
      OpusWarmState state = after1;
      r1 = OpusAllocator(o).AllocateIncremental(window2, &state);
    }
    {
      OpusOptions o = auto_options;
      o.tax_threads = 8;
      OpusWarmState state = after1;
      r8 = OpusAllocator(o).AllocateIncremental(window2, &state);
    }
    determinism_ok = BytesEqual(r1.file_alloc, r8.file_alloc) &&
                     BytesEqual(r1.taxes, r8.taxes) &&
                     BytesEqual(auto2.file_alloc, r1.file_alloc) &&
                     BytesEqual(auto2.taxes, r1.taxes);
  }

  // Gate (b): both aggregated windows preserve every user's isolation
  // guarantee (reported utilities are net of blocking).
  bool isolation_ok = true;
  {
    const std::vector<double> iso1 = IsolatedUtilities(window1);
    const std::vector<double> iso2 = IsolatedUtilities(window2);
    for (std::size_t i = 0; i < cell.users; ++i) {
      if (auto1.reported_utilities[i] < iso1[i] - 1e-6 ||
          auto2.reported_utilities[i] < iso2[i] - 1e-6) {
        isolation_ok = false;
        break;
      }
    }
  }

  // Gate (c): a no-reuse oracle of the stable window (reuse gate tolerance
  // 0 recomputes every cluster tax; same sticky clustering, same star
  // solve) must agree with the measured window — the allocation exactly,
  // every per-user tax within the reuse error budget.
  bool oracle_ok = true;
  double oracle_tax_diff = 0.0;
  {
    OpusOptions o = auto_options;
    o.delta.utility_rel_tolerance = 0.0;
    OpusWarmState state = after1;
    const AllocationResult oracle =
        OpusAllocator(o).AllocateIncremental(window2, &state);
    oracle_tax_diff = MaxDiff(auto2.taxes, oracle.taxes);
    oracle_ok = auto2.shared == oracle.shared &&
                BytesEqual(auto2.file_alloc, oracle.file_alloc) &&
                oracle_tax_diff <= 0.1;
  }

  // Reporting self-check (the delta_window flag must track the live
  // resolve/reuse counters, at cluster granularity here).
  const bool flags_ok =
      auto1.solver_delta_window == (auto1.solver_delta_resolved +
                                        auto1.solver_delta_reused >
                                    0) &&
      auto2.solver_delta_window == (auto2.solver_delta_resolved +
                                        auto2.solver_delta_reused >
                                    0);

  const bool ok = determinism_ok && isolation_ok && oracle_ok && flags_ok;
  const double speedup1 =
      fixed1_ms > 0.0 && auto1_ms > 0.0 ? fixed1_ms / auto1_ms : 0.0;
  const double speedup2 =
      fixed2_ms > 0.0 && auto2_ms > 0.0 ? fixed2_ms / auto2_ms : 0.0;

  auto window_json = [&](const char* key, double ms, double speedup,
                         const AllocationResult& r,
                         const OpusDiagnostics& d) {
    std::fprintf(
        out,
        "     \"%s\": {\"window_ms\": %.1f, \"speedup_vs_fixed\": %.2f, "
        "\"clusters\": %llu, \"delta_window\": %s, \"resolved\": %llu, "
        "\"reused\": %llu, \"observed_drift\": %.4f,\n"
        "      \"walls_ms\": {\"drift\": %.1f, \"cluster\": %.1f, "
        "\"star\": %.1f, \"tax\": %.1f, \"finalize\": %.1f}},\n",
        key, ms, speedup,
        static_cast<unsigned long long>(r.solver_agg_clusters),
        r.solver_delta_window ? "true" : "false",
        static_cast<unsigned long long>(r.solver_delta_resolved),
        static_cast<unsigned long long>(r.solver_delta_reused),
        r.solver_drift_fraction, d.drift_wall_ms, d.cluster_wall_ms,
        d.star_wall_ms, d.tax_wall_ms, d.finalize_wall_ms);
  };
  std::fprintf(
      out,
      "    {\"users\": %zu, \"files\": %zu, \"support\": %zu, "
      "\"nnz\": %zu, \"capacity\": %g, \"drift_fraction\": %g,\n"
      "     \"prime_ms\": %.1f, \"warm_state_mb\": %.1f,\n"
      "     \"fixed\": {\"drift_window_ms\": %.1f, "
      "\"stable_window_ms\": %.1f, \"clusters\": %llu},\n",
      cell.users, cell.files, cell.support, nnz, capacity,
      cell.drift_fraction, prime_ms, warm_state_mb, fixed1_ms, fixed2_ms,
      static_cast<unsigned long long>(fixed_result.solver_agg_clusters));
  window_json("auto_drift_window", auto1_ms, speedup1, auto1, diag1);
  window_json("auto_stable_window", auto2_ms, speedup2, auto2, diag2);
  std::fprintf(
      out,
      "     \"determinism_ok\": %s, \"isolation_ok\": %s, "
      "\"oracle_ok\": %s, \"oracle_max_tax_diff\": %.3e, "
      "\"flags_consistent\": %s}",
      determinism_ok ? "true" : "false", isolation_ok ? "true" : "false",
      oracle_ok ? "true" : "false", oracle_tax_diff,
      flags_ok ? "true" : "false");
  std::fprintf(
      stderr,
      "[scale] N=%zu M=%zu nnz=%zu: prime %.0f ms; drift window fixed "
      "%.0f ms, auto %.0f ms (%.1fx, %llu clusters); stable window fixed "
      "%.0f ms, auto %.0f ms (%.1fx, %llu/%llu reused); state %.1f MB "
      "ok=%s\n",
      cell.users, cell.files, nnz, prime_ms, fixed1_ms, auto1_ms, speedup1,
      static_cast<unsigned long long>(auto1.solver_agg_clusters), fixed2_ms,
      auto2_ms, speedup2,
      static_cast<unsigned long long>(auto2.solver_delta_reused),
      static_cast<unsigned long long>(auto2.solver_agg_clusters),
      warm_state_mb, ok ? "yes" : "NO");
  return ok;
}

struct ForkedCell {
  bool ok = false;
  double rss_mb = 0.0;
  std::string json;
};

// Runs one cell in a forked child so wait4's ru_maxrss is the cell's true
// peak (the parent's own allocations never pollute it, and cells never
// inherit each other's heap high-water marks).
ForkedCell RunScaleCellForked(const ScaleCell& cell, unsigned threads) {
  ForkedCell result;
  int fds[2];
  if (pipe(fds) != 0) return result;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return result;
  }
  if (pid == 0) {
    close(fds[0]);
    FILE* w = fdopen(fds[1], "w");
    const bool ok = w != nullptr && RunScaleCell(cell, threads, w);
    if (w != nullptr) std::fflush(w);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  FILE* r = fdopen(fds[0], "r");
  if (r != nullptr) {
    char buf[4096];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof buf, r)) > 0) {
      result.json.append(buf, got);
    }
    std::fclose(r);
  }
  int status = 0;
  struct rusage ru {};
  wait4(pid, &status, 0, &ru);
  result.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  result.rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
  return result;
}

// Runs the at-scale grid, appending a JSON array under key "at_scale".
// Returns false when any cell's gates fail or a bounded cell breaches its
// peak-RSS budget.
bool RunScaleGrid(FILE* out, bool smoke, unsigned threads) {
  std::vector<ScaleCell> cells;
  if (smoke) {
    // CI cell: big enough that a dense N x M anywhere (160 MB per copy)
    // blows the RSS bound, small enough to finish in seconds.
    cells.push_back({10000, 2048, 8, 128, 32, 0.01, /*max_rss_mb=*/512.0});
  } else {
    cells.push_back({10000, 2048, 8, 128, 32, 0.01, 0.0});
    cells.push_back({100000, 8192, 16, 256, 64, 0.01, 0.0});
    // 10^6 users: the fixed-cluster baseline is skipped (its fresh
    // clustering pass alone dominates the window) — this cell exists to
    // pin the memory-lean path's peak RSS and wall time on record.
    cells.push_back({1000000, 16384, 16, 0, 64, 0.01, 0.0});
  }

  std::fprintf(out, "  \"at_scale\": [\n");
  bool all_ok = true;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const ScaleCell& cell = cells[c];
    ForkedCell forked = RunScaleCellForked(cell, threads);
    const bool rss_ok =
        cell.max_rss_mb <= 0.0 || forked.rss_mb <= cell.max_rss_mb;
    all_ok = all_ok && forked.ok && rss_ok;

    // Splice the parent-side RSS into the child's JSON object.
    std::string body = forked.json;
    const std::size_t brace = body.rfind('}');
    if (brace == std::string::npos) {
      body = "    {\"users\": " + std::to_string(cell.users) +
             ", \"failed\": true";
    } else {
      body.resize(brace);
    }
    std::fprintf(out, "%s, \"peak_rss_mb\": %.1f, \"rss_ok\": %s}%s\n",
                 body.c_str(), forked.rss_mb, rss_ok ? "true" : "false",
                 c + 1 < cells.size() ? "," : "");
    if (!rss_ok) {
      std::fprintf(stderr,
                   "[scale] N=%zu peak RSS %.1f MB breaches the %.0f MB "
                   "bound\n",
                   cell.users, forked.rss_mb, cell.max_rss_mb);
    } else {
      std::fprintf(stderr, "[scale] N=%zu peak RSS %.1f MB\n", cell.users,
                   forked.rss_mb);
    }
  }
  std::fprintf(out, "  ],\n");
  return all_ok;
}

int Run(bool smoke, const std::string& out_path, int reps, unsigned threads) {
  // Each cell is one random Zipf instance; `density` maps to the per-user
  // support fraction, so nnz/(N*M) lands near it.
  std::vector<Cell> cells;
  if (smoke) {
    for (double d : {0.1, 0.5}) {
      cells.push_back({8, 128, d});
      cells.push_back({16, 256, d});
    }
  } else {
    for (double d : {0.05, 0.25}) {
      cells.push_back({16, 1024, d});
      cells.push_back({32, 2048, d});
      cells.push_back({64, 4096, d});
    }
  }

  // Agreement thresholds: both engines converge to residual below 1e-9, so
  // utilities and taxes agree tightly; allocations get extra slack for
  // near-degenerate coordinates where the optimum is flat.
  constexpr double kAllocTol = 1e-5;
  constexpr double kTaxTol = 1e-6;
  constexpr double kUtilTol = 1e-6;

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"solver_scaling\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n  \"reps\": %d,\n  \"cells\": [\n",
               smoke ? "true" : "false", reps);

  bool all_agree = true;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    const double capacity = 0.25 * static_cast<double>(cell.files);
    Rng rng(9100 + 977 * c);
    const CachingProblem problem = ZipfProblem(
        cell.users, cell.files, capacity, rng, 1.1, cell.density);

    const EngineRun sparse = RunEngine(problem, /*dense=*/false, threads, reps);
    const EngineRun dense = RunEngine(problem, /*dense=*/true, threads, reps);

    const double alloc_diff =
        MaxDiff(sparse.result.file_alloc, dense.result.file_alloc);
    const double tax_diff = MaxDiff(sparse.result.taxes, dense.result.taxes);
    const double util_diff = MaxDiff(sparse.result.reported_utilities,
                                     dense.result.reported_utilities);
    const bool agree = sparse.result.shared == dense.result.shared &&
                       alloc_diff <= kAllocTol && tax_diff <= kTaxTol &&
                       util_diff <= kUtilTol;
    all_agree = all_agree && agree;
    const double speedup =
        sparse.median_ms > 0.0 ? dense.median_ms / sparse.median_ms : 0.0;

    std::fprintf(
        out,
        "    {\"users\": %zu, \"files\": %zu, \"density\": %g, "
        "\"capacity\": %g, \"nnz_ratio\": %.6f,\n"
        "     \"sparse\": {\"median_ms\": %.3f, \"p90_ms\": %.3f, "
        "\"iterations\": %llu, \"projections\": %llu, "
        "\"restricted_taxes\": %llu, \"restricted_fallbacks\": %llu},\n"
        "     \"dense\": {\"median_ms\": %.3f, \"p90_ms\": %.3f, "
        "\"iterations\": %llu, \"projections\": %llu},\n"
        "     \"speedup\": %.2f, \"max_alloc_diff\": %.3e, "
        "\"max_tax_diff\": %.3e, \"max_utility_diff\": %.3e, "
        "\"agree\": %s}%s\n",
        cell.users, cell.files, cell.density, capacity,
        sparse.result.solver_nnz_ratio, sparse.median_ms, sparse.p90_ms,
        static_cast<unsigned long long>(sparse.result.solver_iterations),
        static_cast<unsigned long long>(sparse.result.solver_projections),
        static_cast<unsigned long long>(sparse.result.solver_restricted_taxes),
        static_cast<unsigned long long>(
            sparse.result.solver_restricted_fallbacks),
        dense.median_ms, dense.p90_ms,
        static_cast<unsigned long long>(dense.result.solver_iterations),
        static_cast<unsigned long long>(dense.result.solver_projections),
        speedup, alloc_diff, tax_diff, util_diff, agree ? "true" : "false",
        c + 1 < cells.size() ? "," : "");
    std::fprintf(stderr,
                 "[%zu/%zu] N=%zu M=%zu density=%.2f: sparse %.1f ms, dense "
                 "%.1f ms (%.1fx), agree=%s\n",
                 c + 1, cells.size(), cell.users, cell.files, cell.density,
                 sparse.median_ms, dense.median_ms, speedup,
                 agree ? "yes" : "NO");
  }

  std::fprintf(out, "  ],\n");
  const bool incremental_ok = RunIncrementalGrid(out, smoke, reps, threads);
  const bool at_scale_ok = RunScaleGrid(out, smoke, threads);
  std::fprintf(out,
               "  \"incremental_agree\": %s,\n  \"at_scale_ok\": %s,\n"
               "  \"all_agree\": %s\n}\n",
               incremental_ok ? "true" : "false",
               at_scale_ok ? "true" : "false",
               all_agree && incremental_ok && at_scale_ok ? "true" : "false");
  std::fclose(out);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  if (!all_agree) {
    std::fprintf(stderr, "FAIL: sparse/dense engines disagree\n");
    return 1;
  }
  if (!incremental_ok) {
    std::fprintf(stderr,
                 "FAIL: incremental solves disagree with the cold solver\n");
    return 1;
  }
  if (!at_scale_ok) {
    std::fprintf(stderr,
                 "FAIL: at-scale gates (determinism / isolation / oracle / "
                 "peak RSS)\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace opus::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_solver.json";
  int reps = 3;
  unsigned threads = 1;  // single-threaded taxes: clean engine comparison
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t len = std::strlen(prefix);
      if (arg.rfind(prefix, 0) == 0) return arg.c_str() + len;
      return nullptr;
    };
    if (arg == "--smoke") {
      smoke = true;
    } else if (const char* v = value("--out=")) {
      out_path = v;
    } else if (const char* v = value("--reps=")) {
      reps = std::max(1, std::atoi(v));
    } else if (const char* v = value("--threads=")) {
      threads = static_cast<unsigned>(std::max(1, std::atoi(v)));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--out=PATH] [--reps=N] "
                   "[--threads=N]\n",
                   argv[0]);
      return 2;
    }
  }
  return opus::bench::Run(smoke, out_path, reps, threads);
}
