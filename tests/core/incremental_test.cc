// Incremental allocation windows (AllocateIncremental + OpusWarmState):
// warm-started windows must agree with the cold solver to solver accuracy
// — the allocation, every tax and the sharing decision — and the warm
// state must follow user churn. Per-user windows are also pinned bit for
// bit (OpusPipelineTest).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "core/opus.h"
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

// `base` with `drifted` leading users' rows blended halfway toward fresh
// Zipf rows (rows stay normalized; L1 drift ~1, far above any threshold).
CachingProblem BlendDrift(const CachingProblem& base, std::size_t drifted,
                          std::uint64_t seed, double density = 1.0) {
  CachingProblem out = base;
  const CachingProblem fresh =
      ZipfProblem(drifted, base.num_files(), base.capacity, seed, density);
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

void ExpectSameResult(const AllocationResult& a, const AllocationResult& b,
                      double alloc_tol, double tax_tol) {
  EXPECT_EQ(a.shared, b.shared);
  ASSERT_EQ(a.file_alloc.size(), b.file_alloc.size());
  for (std::size_t j = 0; j < a.file_alloc.size(); ++j) {
    EXPECT_NEAR(a.file_alloc[j], b.file_alloc[j], alloc_tol) << "file " << j;
  }
  ASSERT_EQ(a.taxes.size(), b.taxes.size());
  for (std::size_t i = 0; i < a.taxes.size(); ++i) {
    EXPECT_NEAR(a.taxes[i], b.taxes[i], tax_tol) << "user " << i;
  }
}

TEST(IncrementalTest, NullStateMatchesAllocate) {
  const CachingProblem p = ZipfProblem(12, 24, 6.0, 5);
  const OpusAllocator alloc;
  const AllocationResult cold = alloc.Allocate(p);
  const AllocationResult inc = alloc.AllocateIncremental(p, nullptr);
  EXPECT_EQ(inc.file_alloc, cold.file_alloc);
  EXPECT_EQ(inc.taxes, cold.taxes);
  EXPECT_FALSE(inc.solver_warm_started);
}

TEST(IncrementalTest, WarmWindowAgreesWithCold) {
  const CachingProblem w0 = ZipfProblem(16, 32, 8.0, 11);
  const CachingProblem w1 = BlendDrift(w0, 3, 12);
  const OpusAllocator alloc;
  OpusWarmState state;
  const AllocationResult first = alloc.AllocateIncremental(w0, &state);
  EXPECT_FALSE(first.solver_warm_started);  // nothing to warm-start from
  EXPECT_TRUE(state.valid);
  EXPECT_EQ(state.windows, 1u);

  const AllocationResult warm = alloc.AllocateIncremental(w1, &state);
  EXPECT_TRUE(warm.solver_warm_started);
  EXPECT_EQ(state.windows, 2u);
  ExpectSameResult(warm, alloc.Allocate(w1), 1e-5, 1e-6);
}

TEST(IncrementalTest, IncompatibleStateDegradesToCold) {
  const CachingProblem other = ZipfProblem(16, 48, 8.0, 21);
  const CachingProblem p = ZipfProblem(16, 32, 8.0, 22);
  const OpusAllocator alloc;
  OpusWarmState state;
  alloc.AllocateIncremental(other, &state);  // wrong M

  const AllocationResult r = alloc.AllocateIncremental(p, &state);
  EXPECT_FALSE(r.solver_warm_started);
  // The degraded window is the cold computation, bit for bit.
  const AllocationResult cold = alloc.Allocate(p);
  EXPECT_EQ(r.file_alloc, cold.file_alloc);
  EXPECT_EQ(r.taxes, cold.taxes);
  // ... and the state now belongs to the new problem.
  EXPECT_TRUE(state.valid);
  EXPECT_EQ(state.windows, 1u);
  EXPECT_EQ(state.preferences.cols(), p.num_files());
}

TEST(IncrementalTest, CapacityChangeRunsCold) {
  CachingProblem p = ZipfProblem(12, 24, 6.0, 31);
  const OpusAllocator alloc;
  OpusWarmState state;
  alloc.AllocateIncremental(p, &state);
  p.capacity = 8.0;  // live reconfig: capacity moved between windows
  const AllocationResult r = alloc.AllocateIncremental(p, &state);
  EXPECT_FALSE(r.solver_warm_started);
  EXPECT_EQ(state.capacity, 8.0);
  EXPECT_EQ(state.windows, 1u);
}

// Property: across randomized drift sets and misreports, with and without
// priority weights, a warm per-user window lands on the cold solver's
// allocation, taxes and sharing decision. The delta options tune only
// aggregated windows: configured here, they must reuse no per-user tax.
TEST(IncrementalTest, DeltaAgreesAcrossRandomizedDrift) {
  for (std::uint64_t seed : {101u, 202u, 303u, 404u}) {
    Rng rng(seed);
    const std::size_t n = 16 + rng.NextBounded(16);
    const CachingProblem w0 = ZipfProblem(n, 64, 16.0, seed);

    // Drift a random minority, then overwrite one extra row entirely (a
    // misreport: the master cannot tell drift from lies, and the warm
    // window may not treat them differently).
    const std::size_t drifted = 1 + rng.NextBounded(n / 4);
    CachingProblem w1 = BlendDrift(w0, drifted, seed + 7);
    std::vector<double> lie(w1.num_files(), 0.0);
    for (std::size_t j = 0; j < 3; ++j) {
      lie[rng.NextBounded(w1.num_files())] = 1.0;
    }
    w1 = w1.WithMisreport(n - 1, lie);

    OpusOptions tuned;
    tuned.delta.drift_threshold = 0.05;
    tuned.delta.utility_rel_tolerance = 0.05;
    OpusOptions weighted = tuned;
    weighted.user_weights.assign(n, 1.0);
    weighted.user_weights[2] = 3.0;
    weighted.user_weights[9] = 0.5;
    for (const OpusOptions& options : {OpusOptions(), tuned, weighted}) {
      const OpusAllocator alloc(options);
      OpusWarmState state;
      alloc.AllocateIncremental(w0, &state);
      const AllocationResult warm = alloc.AllocateIncremental(w1, &state);
      EXPECT_TRUE(warm.solver_warm_started);
      EXPECT_FALSE(warm.solver_delta_window);
      EXPECT_EQ(warm.solver_delta_reused, 0u);
      ExpectSameResult(warm, alloc.Allocate(w1), 1e-5, 1e-6);
    }
  }
}

// Priority weights enter a warm per-user window exactly as they enter the
// cold solver, with the delta options at their tightest.
TEST(IncrementalTest, DeltaRespectsPriorityWeights) {
  OpusOptions options;
  options.delta.drift_threshold = 0.05;
  options.delta.utility_rel_tolerance = 0.0;
  options.user_weights.assign(16, 1.0);
  options.user_weights[2] = 3.0;
  options.user_weights[9] = 0.5;
  const OpusAllocator alloc(options);
  OpusOptions cold_options;
  cold_options.user_weights = options.user_weights;
  const CachingProblem w0 = ZipfProblem(16, 64, 16.0, 71);
  const CachingProblem w1 = BlendDrift(w0, 2, 72);
  OpusWarmState state;
  alloc.AllocateIncremental(w0, &state);
  const AllocationResult r = alloc.AllocateIncremental(w1, &state);
  EXPECT_TRUE(r.solver_warm_started);
  ExpectSameResult(r, OpusAllocator(cold_options).Allocate(w1), 1e-5, 1e-6);
}

TEST(IncrementalTest, ForgetUserForcesResolve) {
  OpusOptions options;
  options.aggregation.auto_tune = true;
  options.aggregation.min_clusters = 4;
  options.delta.utility_rel_tolerance = 1e9;  // reuse whenever allowed
  const OpusAllocator alloc(options);
  const CachingProblem p = ZipfProblem(12, 24, 6.0, 41);
  OpusWarmState state;
  alloc.AllocateIncremental(p, &state);  // cold, full budget
  alloc.AllocateIncremental(p, &state);  // budget settles to the floor
  // An unchanged sticky window reuses every cluster's tax.
  const AllocationResult stable = alloc.AllocateIncremental(p, &state);
  ASSERT_TRUE(stable.solver_delta_window);
  EXPECT_EQ(stable.solver_delta_resolved, 0u);
  EXPECT_EQ(stable.solver_delta_reused, stable.solver_agg_clusters);

  // Churn: user 3 leaves and a new tenant with identical preferences takes
  // the slot. Its zeroed warm row must register as drift, so its cluster's
  // tax is re-solved (a reuse would ship the departed tenant's window).
  state.ForgetUser(3);
  const AllocationResult r = alloc.AllocateIncremental(p, &state);
  EXPECT_GT(r.solver_drift_fraction, 0.0);
  EXPECT_TRUE(r.solver_delta_window);
  EXPECT_GE(r.solver_delta_resolved, 1u);
}

TEST(IncrementalTest, MassChurnCompactsTombstonedRows) {
  // Mass dropuser churn: forgetting most of a sparse state's users must
  // compact the tombstoned CSR rows and return the state's memory toward
  // baseline — never leave the departed tenants' rows resident until the
  // next full refresh.
  const CachingProblem p = ZipfProblem(512, 128, 32.0, 81, 0.25);
  OpusWarmState state;
  OpusAllocator().AllocateIncremental(p, &state);
  ASSERT_TRUE(state.valid);
  const std::size_t nnz_full = state.preferences.nnz();
  const std::size_t bytes_full = state.MemoryBytes();

  for (std::size_t i = 0; i < 500; ++i) state.ForgetUser(i);

  // 500 of 512 rows tombstoned: compaction fired along the way, so live
  // nnz collapsed to the 12 surviving rows (plus at most one threshold's
  // worth of not-yet-compacted tombstones) and the CSR heap followed.
  EXPECT_TRUE(state.valid);
  EXPECT_LT(state.preferences.nnz(), nnz_full / 4);
  EXPECT_LT(state.MemoryBytes(), bytes_full);
  EXPECT_EQ(state.preferences.rows(), 512u);  // shape intact, rows empty

  // The next warm window re-solves every user, revived ones included, and
  // still matches the cold solver.
  const OpusAllocator alloc;
  const AllocationResult r = alloc.AllocateIncremental(p, &state);
  EXPECT_TRUE(r.solver_warm_started);
  ExpectSameResult(r, OpusAllocator().Allocate(p), 1e-5, 1e-6);

  // The purge path releases everything immediately.
  state.Invalidate();
  EXPECT_FALSE(state.valid);
  EXPECT_EQ(state.MemoryBytes(), 0u);
}

// A cold window, then three warm windows: drift, a misreport (the last
// user claims three files only), and drift again.
std::vector<CachingProblem> DriftWindows(std::size_t users, std::size_t files,
                                         double capacity, std::uint64_t seed,
                                         double density = 1.0) {
  std::vector<CachingProblem> w;
  w.push_back(ZipfProblem(users, files, capacity, seed, density));
  w.push_back(BlendDrift(w.back(), 3, seed + 1, density));
  std::vector<double> lie(files, 0.0);
  lie[1] = 1.0;
  lie[files / 2] = 1.0;
  lie[files - 1] = 1.0;
  w.push_back(w.back().WithMisreport(users - 1, lie));
  w.push_back(BlendDrift(w.back(), 2, seed + 2, density));
  return w;
}

// FNV-1a over the bits of integers, doubles and sequences of them.
class Fnv1a {
 public:
  template <typename T>
  void Add(const T& v) {
    if constexpr (std::is_floating_point_v<T>) {
      Add(std::bit_cast<std::uint64_t>(v));
    } else if constexpr (std::is_integral_v<T>) {
      for (int byte = 0; byte < 8; ++byte) {
        h_ ^= (static_cast<std::uint64_t>(v) >> (8 * byte)) & 0xff;
        h_ *= 0x100000001b3ull;
      }
    } else {
      Add(v.size());
      for (const auto& x : v) Add(x);
    }
  }
  void Add(const Matrix& m) {
    Add(m.rows());
    Add(m.cols());
    for (std::size_t i = 0; i < m.rows(); ++i) Add(m.row(i));
  }
  void Add(const CsrMatrix& m) {
    Add(m.rows());
    Add(m.cols());
    for (std::size_t i = 0; i < m.rows(); ++i) {
      Add(m.row_cols(i));
      Add(m.row_vals(i));
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// Runs `windows` in order through one allocator and one warm state, and
// hashes every output of every window: the result with its solver
// counters, the stage-1 diagnostics (wall times aside) and the refreshed
// warm state.
std::uint64_t PinWindows(const OpusOptions& options,
                         const std::vector<CachingProblem>& windows) {
  const OpusAllocator alloc(options);
  OpusWarmState s;
  Fnv1a h;
  for (const CachingProblem& w : windows) {
    OpusDiagnostics d;
    const AllocationResult r = alloc.AllocateIncremental(w, &s, &d);
    h.Add(r.policy);
    h.Add(r.file_alloc);
    h.Add(r.access);
    h.Add(r.taxes);
    h.Add(r.blocking);
    h.Add(r.reported_utilities);
    h.Add(r.shared);
    h.Add(r.per_user_copies);
    h.Add(r.copy_footprint);
    h.Add(r.solver_iterations);
    h.Add(r.solver_residual);
    h.Add(r.solver_solves);
    h.Add(r.solver_projections);
    h.Add(r.solver_restricted_taxes);
    h.Add(r.solver_restricted_fallbacks);
    h.Add(r.solver_nnz_ratio);
    h.Add(r.solver_warm_started);
    h.Add(r.solver_delta_window);
    h.Add(r.solver_delta_auto_off);
    h.Add(r.solver_drift_fraction);
    h.Add(r.solver_delta_resolved);
    h.Add(r.solver_delta_reused);
    h.Add(r.solver_agg_clusters);
    h.Add(d.pf_allocation);
    h.Add(d.pf_utilities);
    h.Add(d.taxes);
    h.Add(d.break_even_taxes);
    h.Add(d.net_utilities);
    h.Add(d.isolated_utilities);
    h.Add(d.settled_on_sharing);
    h.Add(d.solver_iterations);
    h.Add(s.valid);
    h.Add(s.preferences);
    h.Add(s.capacity);
    h.Add(s.shape_key);
    h.Add(s.star_allocation);
    h.Add(s.cluster_of);
    h.Add(s.leader_of);
    h.Add(s.cluster_taxes);
    h.Add(s.windows);
  }
  return h.value();
}

// The hashes were recorded with the allocator that ran per-user windows
// and clustered windows as two separate functions; the one window pipeline
// must reproduce every per-user window bit for bit.
TEST(OpusPipelineTest, PinnedPerUserWindows) {
  const OpusOptions plain;
  EXPECT_EQ(PinWindows(plain, {ZipfProblem(12, 24, 6.0, 5)}),
            0x479e132056a9ccd0ull);
  const std::vector<CachingProblem> drift = DriftWindows(16, 32, 8.0, 11);
  EXPECT_EQ(PinWindows(plain, drift), 0x38583bc2f7a4d5dcull);

  OpusOptions weighted;
  weighted.user_weights.assign(16, 1.0);
  weighted.user_weights[2] = 3.0;
  weighted.user_weights[9] = 0.5;
  EXPECT_EQ(PinWindows(weighted, drift), 0x716a3ab708a49ec7ull);

  std::vector<CachingProblem> sized = DriftWindows(10, 20, 9.0, 21);
  for (CachingProblem& w : sized) {
    for (std::size_t j = 0; j < w.num_files(); ++j) {
      w.file_sizes.push_back(0.5 + 0.25 * static_cast<double>(j % 5));
    }
  }
  EXPECT_EQ(PinWindows(plain, sized), 0x61e82855b0b6c06aull);

  // User 4 reports nothing in the first two windows, then returns.
  std::vector<CachingProblem> zero_row = DriftWindows(12, 24, 6.0, 31);
  for (std::size_t k = 0; k < 2; ++k) {
    zero_row[k] = zero_row[k].WithMisreport(4, std::vector<double>(24, 0.0));
  }
  EXPECT_EQ(PinWindows(plain, zero_row), 0xf06e13d412cc44e0ull);

  // Capacity covers every file: the star caches everything.
  EXPECT_EQ(PinWindows(plain, DriftWindows(8, 16, 16.0, 41)),
            0x83d04316f95686f5ull);

  // Disjoint demands under tight capacity: taxes pass break-even and both
  // windows fall back to isolated caches.
  CachingProblem disjoint;
  disjoint.preferences = Matrix::FromRows({{1.0, 0.0}, {0.0, 1.0}});
  disjoint.capacity = 1.0;
  EXPECT_EQ(PinWindows(plain, {disjoint, disjoint}), 0x847954d03c0e00ccull);

  // Tax solves are bit-identical at any thread count, so one pin covers
  // the sequential default and 1 and 4 threads.
  for (const unsigned threads : {1u, 4u}) {
    OpusOptions threaded;
    threaded.tax_threads = threads;
    EXPECT_EQ(PinWindows(threaded, drift), 0x38583bc2f7a4d5dcull) << threads;
  }

  OpusOptions dense;
  dense.use_dense_solver = true;
  EXPECT_EQ(PinWindows(dense, drift), 0x4ca7a89708335cc0ull);

  OpusOptions unrestricted;
  unrestricted.restricted_tax_solves = false;
  EXPECT_EQ(PinWindows(unrestricted, drift), 0x82f3e6cf15793e97ull);

  // Sparse rows over many files: restricted leave-one-out solves hit and
  // fall back, and the windows fall back to isolated caches.
  EXPECT_EQ(PinWindows(plain, DriftWindows(24, 512, 24.0, 51, 0.02)),
            0x483a265333e15d61ull);

  // Sparse-backed problems report net utilities without an access matrix.
  std::vector<CachingProblem> sparse;
  for (const CachingProblem& w : drift) {
    sparse.push_back(CachingProblem::FromCsr(w.PreferencesCsr(), w.capacity));
  }
  EXPECT_EQ(PinWindows(plain, sparse), 0x72cf9f1fe8c135a0ull);
}

}  // namespace
}  // namespace opus
