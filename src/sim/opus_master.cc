#include "sim/opus_master.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/check.h"
#include "common/mathutil.h"
#include "core/opus.h"
#include "workload/preference_gen.h"

namespace opus::sim {
namespace {

// Average absolute preference drift between two normalized matrices; the
// adaptive-window signal.
double Drift(const Matrix& a, const Matrix& b) {
  if (a.empty() || b.empty() || a.rows() != b.rows() ||
      a.cols() != b.cols()) {
    return 0.0;
  }
  double total = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      total += std::fabs(a(i, j) - b(i, j));
    }
  }
  return total / static_cast<double>(a.rows());
}

}  // namespace

void OpusMaster::set_allocator(const CacheAllocator* allocator) {
  OPUS_CHECK(allocator != nullptr);
  allocator_ = allocator;
  // A warm state describes the previous allocator's solve; a swapped-in
  // policy (even OpuS with different options) must not inherit it.
  warm_.Invalidate();
}

void OpusMaster::set_capacity_units(double units) {
  if (units <= 0.0) {
    const double mean_file_bytes =
        static_cast<double>(cluster_->catalog().TotalBytes()) /
        static_cast<double>(cluster_->catalog().size());
    units = static_cast<double>(cluster_->config().cache_capacity_bytes) /
            mean_file_bytes;
  }
  config_.capacity_units = units;
  // The capacity-mismatch check inside AllocateIncremental would catch this
  // too; invalidating here keeps the intent explicit for live reconfig.
  warm_.Invalidate();
}

OpusMaster::OpusMaster(const CacheAllocator* allocator,
                       cache::CacheCluster* cluster, OpusMasterConfig config)
    : allocator_(allocator), cluster_(cluster), config_(config),
      auditor_(config.audit_config),
      window_metrics_(config.max_metric_windows) {
  OPUS_CHECK(allocator_ != nullptr);
  OPUS_CHECK(cluster_ != nullptr);
  OPUS_CHECK_GT(config_.update_interval, 0u);
  OPUS_CHECK_GT(config_.learning_window, 0u);
  const std::size_t n = cluster_->config().num_users;
  const std::size_t m = cluster_->catalog().size();
  // An empty catalog (or zero total bytes) would make mean_file_bytes 0/0
  // and silently propagate NaN capacity_units into every PF solve.
  OPUS_CHECK_MSG(m > 0, "OpusMaster requires a non-empty catalog");
  OPUS_CHECK_MSG(cluster_->catalog().TotalBytes() > 0,
                 "OpusMaster requires a catalog with positive total bytes");
  counts_ = Matrix(n, m, 0.0);
  // Allocation is posed in "units" of one mean file; heterogeneous
  // catalogs carry per-file sizes in the same unit so the capacity
  // constraint stays in bytes (paper Sec. V-B).
  const double mean_file_bytes =
      static_cast<double>(cluster_->catalog().TotalBytes()) /
      static_cast<double>(m);
  if (config_.capacity_units <= 0.0) {
    config_.capacity_units =
        static_cast<double>(cluster_->config().cache_capacity_bytes) /
        mean_file_bytes;
  }
  file_sizes_.resize(m);
  bool heterogeneous = false;
  for (std::size_t j = 0; j < m; ++j) {
    file_sizes_[j] =
        static_cast<double>(cluster_->catalog().Get(static_cast<cache::FileId>(j)).size_bytes) /
        mean_file_bytes;
    if (std::fabs(file_sizes_[j] - 1.0) > 1e-6) heterogeneous = true;
  }
  if (!heterogeneous) file_sizes_.clear();  // unit-size fast path
  InitObservability();
}

void OpusMaster::InitObservability() {
  obs::MetricsRegistry& m = cluster_->metrics();
  realloc_counter_ = &m.counter("master.reallocations");
  lazy_skip_counter_ = &m.counter("master.lazy_skips");
  ig_fallback_counter_ = &m.counter("master.ig_fallbacks");
  window_gauge_ = &m.gauge("master.window_size");
  window_gauge_->Set(static_cast<double>(config_.learning_window));
  drift_gauge_ = &m.gauge("master.drift");
  residual_gauge_ = &m.gauge("master.solver.residual");
  // Sparse-solver cost accounting (per AllocationResult, summed across
  // reallocations): PF solves, capped-simplex projections, restricted
  // leave-one-out tax solves and their full-solve fallbacks, plus the
  // preference density the last solve saw. All deterministic at any
  // thread count (the allocator folds per-solve stats in index order).
  solver_solves_counter_ = &m.counter("master.solver.solves");
  solver_projections_counter_ = &m.counter("master.solver.projections");
  solver_restricted_counter_ = &m.counter("master.solver.restricted_taxes");
  solver_fallback_counter_ = &m.counter("master.solver.restricted_fallbacks");
  solver_nnz_gauge_ = &m.gauge("master.solver.nnz_ratio");
  // Incremental-window accounting: windows whose star solve warm-started,
  // windows with cluster-tax reuse active, cluster tax solves run vs
  // reused across those windows, and the cluster count of the last
  // aggregated window (0 = per-user).
  solver_warm_counter_ = &m.counter("master.solver.warm_starts");
  delta_window_counter_ = &m.counter("master.solver.delta_windows");
  delta_resolved_counter_ = &m.counter("master.solver.delta_resolved");
  delta_reused_counter_ = &m.counter("master.solver.delta_reused");
  agg_clusters_gauge_ = &m.gauge("master.solver.agg_clusters");
  solve_iterations_hist_ = &m.histogram(
      "master.solve.iterations", {100.0, 1000.0, 10000.0, 100000.0});
  // Wall time is the one genuinely nondeterministic signal the master
  // records; flagged volatile so default snapshots stay byte-identical
  // across reruns and thread counts.
  solve_wall_hist_ = &m.histogram("master.solve.wall_sec",
                                  {1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0});
  m.MarkVolatile("master.solve.wall_sec");
  if (config_.audit) {
    auditor_.Attach(&m, &cluster_->trace());
  }
}

void OpusMaster::Prime(const Matrix& preferences) {
  OPUS_CHECK_EQ(preferences.rows(), counts_.rows());
  OPUS_CHECK_EQ(preferences.cols(), counts_.cols());
  CachingProblem problem =
      CachingProblem::FromRaw(preferences, config_.capacity_units);
  problem.file_sizes = file_sizes_;
  previous_prefs_ = problem.preferences;
  SolveAndApply(problem);
}

void OpusMaster::OnAccess(const workload::AccessEvent& event) {
  OPUS_CHECK_LT(event.user, counts_.rows());
  OPUS_CHECK_LT(event.file, counts_.cols());
  window_.push_back(event);
  counts_(event.user, event.file) += 1.0;
  while (window_.size() > config_.learning_window) {
    const auto& old = window_.front();
    counts_(old.user, old.file) -= 1.0;
    window_.pop_front();
  }
  if (++since_update_ >= config_.update_interval) {
    Reallocate();
  }
}

cache::UserId OpusMaster::RegisterClient(std::string name) {
  OPUS_CHECK_MSG(client_names_.size() < counts_.rows(),
                 "more clients than the cluster's num_users="
                     << counts_.rows());
  client_names_.push_back(std::move(name));
  return static_cast<cache::UserId>(client_names_.size() - 1);
}

const std::string& OpusMaster::client_name(cache::UserId id) const {
  OPUS_CHECK_LT(id, client_names_.size());
  return client_names_[id];
}

void OpusMaster::ReportPreferences(cache::UserId client,
                                   std::vector<double> prefs) {
  OPUS_CHECK_LT(client, counts_.rows());
  OPUS_CHECK_EQ(prefs.size(), counts_.cols());
  OPUS_CHECK_MSG(NormalizeToOne(prefs),
                 "explicitly reported preferences must have positive mass");
  if (explicit_prefs_.empty()) explicit_prefs_.resize(counts_.rows());
  explicit_prefs_[client] = std::move(prefs);
}

void OpusMaster::ClearReportedPreferences(cache::UserId client) {
  OPUS_CHECK_LT(client, counts_.rows());
  if (client < explicit_prefs_.size()) explicit_prefs_[client].clear();
}

bool OpusMaster::HasReportedPreferences(cache::UserId client) const {
  OPUS_CHECK_LT(client, counts_.rows());
  return client < explicit_prefs_.size() &&
         !explicit_prefs_[client].empty();
}

void OpusMaster::RenameClient(cache::UserId client, std::string name) {
  OPUS_CHECK_LT(client, client_names_.size());
  client_names_[client] = std::move(name);
}

void OpusMaster::PurgeUser(cache::UserId client) {
  OPUS_CHECK_LT(client, counts_.rows());
  // Drop the user's accesses from the sliding window (and its counts row
  // wholesale — the row is exactly the sum of its window entries).
  window_.erase(std::remove_if(window_.begin(), window_.end(),
                               [client](const workload::AccessEvent& e) {
                                 return e.user == client;
                               }),
                window_.end());
  auto row = counts_.row(client);
  std::fill(row.begin(), row.end(), 0.0);
  if (client < explicit_prefs_.size()) explicit_prefs_[client].clear();
  warm_.ForgetUser(client);
}

Matrix OpusMaster::InferredPreferences() const {
  Matrix prefs = workload::PreferencesFromCounts(counts_);
  // Explicit reports override inference per client (Sec. V-A: preferences
  // are either reported through an API or inferred from access history).
  for (std::size_t i = 0; i < explicit_prefs_.size(); ++i) {
    if (explicit_prefs_[i].empty()) continue;
    auto row = prefs.row(i);
    for (std::size_t j = 0; j < row.size(); ++j) {
      row[j] = explicit_prefs_[i][j];
    }
  }
  return prefs;
}

void OpusMaster::Reallocate() {
  since_update_ = 0;
  Matrix prefs = InferredPreferences();
  const double drift = Drift(prefs, previous_prefs_);
  drift_gauge_->Set(drift);
  // Lazy mode: a stable preference estimate means the current allocation
  // is still (near-)optimal — skip the N+1 solves entirely.
  if (config_.lazy_threshold > 0.0 && reallocations_ > 0 &&
      drift < config_.lazy_threshold) {
    ++skipped_;
    lazy_skip_counter_->Increment();
    cluster_->trace().Emit("master.realloc_lazy_skip",
                           {{"drift", obs::FormatDouble(drift)}});
    return;
  }
  if (config_.adaptive_window) AdaptWindow();
  CachingProblem problem;
  problem.preferences = prefs;
  problem.capacity = config_.capacity_units;
  problem.file_sizes = file_sizes_;
  SolveAndApply(problem);
  previous_prefs_ = std::move(prefs);
}

void OpusMaster::SolveAndApply(const CachingProblem& problem) {
  obs::ScopedSpan realloc_span(&cluster_->spans(), "master.realloc");
  realloc_span.AddAttr("epoch", std::to_string(reallocations_ + 1));

  AllocationResult result;
  // When the allocator is OpuS, run the diagnostics variant (same solves,
  // same result) so the auditor sees the stage-1 arithmetic — without it,
  // Stage-2 fallback windows cannot be checked for justification.
  OpusDiagnostics diag;
  const auto* opus_allocator = dynamic_cast<const OpusAllocator*>(allocator_);
  const auto t0 = std::chrono::steady_clock::now();
  {
    obs::ScopedSpan solve_span(&cluster_->spans(), "master.solve");
    if (opus_allocator != nullptr) {
      // Incremental mode threads the cross-window warm state through the
      // solve; a null state degrades to the cold path byte-for-byte.
      result = opus_allocator->AllocateIncremental(
          problem, config_.incremental ? &warm_ : nullptr, &diag);
    } else {
      result = allocator_->Allocate(problem);
    }
    solve_span.AddAttr("policy", result.policy);
    solve_span.AddAttr("iterations",
                       std::to_string(result.solver_iterations));
    solve_span.AddAttr("residual",
                       obs::FormatDouble(result.solver_residual));
    solve_span.AddAttr("shared", result.shared ? "1" : "0");
  }
  const double wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  solve_wall_hist_->Observe(wall_sec);
  solve_iterations_hist_->Observe(
      static_cast<double>(result.solver_iterations));
  residual_gauge_->Set(result.solver_residual);
  solver_solves_counter_->Increment(result.solver_solves);
  solver_projections_counter_->Increment(result.solver_projections);
  solver_restricted_counter_->Increment(result.solver_restricted_taxes);
  solver_fallback_counter_->Increment(result.solver_restricted_fallbacks);
  solver_nnz_gauge_->Set(result.solver_nnz_ratio);
  if (result.solver_warm_started) solver_warm_counter_->Increment();
  if (result.solver_delta_window) delta_window_counter_->Increment();
  delta_resolved_counter_->Increment(result.solver_delta_resolved);
  delta_reused_counter_->Increment(result.solver_delta_reused);
  agg_clusters_gauge_->Set(static_cast<double>(result.solver_agg_clusters));
  if (!result.shared) {
    ig_fallback_counter_->Increment();
    cluster_->trace().Emit("master.ig_fallback",
                           {{"epoch", std::to_string(reallocations_ + 1)},
                            {"policy", result.policy}});
  }
  Apply(result);
  if (config_.audit) {
    obs::ScopedSpan audit_span(&cluster_->spans(), "master.audit");
    const obs::WindowAudit& audit = auditor_.AuditWindow(
        reallocations_, problem, result,
        opus_allocator != nullptr ? &diag : nullptr);
    audit_span.AddAttr("violations",
                       std::to_string(audit.violations.size()));
  }
  // Close the window: record what happened in the metrics since the last
  // applied allocation (the auditor's and opus_inspect's per-window input).
  window_metrics_.Capture(cluster_->metrics(), reallocations_);
}

void OpusMaster::AdaptWindow() {
  const Matrix now = InferredPreferences();
  // Consecutive windows share all but `update_interval` of their samples,
  // so the largest possible L1 distance between them is about
  // 2 * interval / window; normalize the observed drift by that ceiling to
  // get a window-size-independent signal in [0, ~1].
  const double overlap_ceiling =
      2.0 * static_cast<double>(config_.update_interval) /
      static_cast<double>(std::max<std::size_t>(config_.learning_window,
                                                config_.update_interval));
  const double drift = Drift(now, previous_prefs_) / overlap_ceiling;
  // Fast drift -> shrink the window to forget stale popularity sooner;
  // stability -> grow it for lower-variance estimates.
  const std::size_t before = config_.learning_window;
  if (drift > 0.2) {
    config_.learning_window =
        std::max(config_.min_window, config_.learning_window / 2);
  } else if (drift < 0.05) {
    config_.learning_window =
        std::min(config_.max_window, config_.learning_window * 2);
  }
  if (config_.learning_window != before) {
    window_gauge_->Set(static_cast<double>(config_.learning_window));
    cluster_->trace().Emit(
        "master.window_resized",
        {{"from", std::to_string(before)},
         {"to", std::to_string(config_.learning_window)},
         {"drift", obs::FormatDouble(drift)}});
  }
  while (window_.size() > config_.learning_window) {
    const auto& old = window_.front();
    counts_(old.user, old.file) -= 1.0;
    window_.pop_front();
  }
}

void OpusMaster::Apply(const AllocationResult& result) {
  current_ = result;
  ++reallocations_;
  realloc_counter_->Increment();
  cluster_->trace().Emit(
      "master.realloc_applied",
      {{"epoch", std::to_string(reallocations_)},
       {"policy", result.policy},
       {"shared", result.shared ? "1" : "0"},
       {"solver_iterations", std::to_string(result.solver_iterations)}});
  cluster_->ApplyAllocation(result.file_alloc);
  // Per-(user,file) unblocked share e_ij / a_j for the delay model.
  const std::size_t n = counts_.rows();
  const std::size_t m = counts_.cols();
  Matrix unblocked(n, m, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      unblocked(i, j) = result.file_alloc[j] > 1e-12
                            ? result.access(i, j) / result.file_alloc[j]
                            : 0.0;
    }
  }
  if (config_.enable_journal) {
    cache::JournalEntry entry;
    entry.epoch = reallocations_;
    entry.file_fractions = result.file_alloc;
    entry.unblocked_share = unblocked;
    journal_.Append(std::move(entry));
  }
  cluster_->SetAccessModel(std::move(unblocked));
}

}  // namespace opus::sim
