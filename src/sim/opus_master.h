// OpusMaster — the allocation control loop of the paper's Fig. 4/Sec. V:
// tallies per-(user,file) access frequencies over a sliding learning window,
// periodically turns them into a CachingProblem (frequencies -> normalized
// preferences), runs a pluggable CacheAllocator (OpuS, FairRide, ...), and
// pushes the outcome to the cluster (block pins via CacheUpdate + the
// per-user blocking/access model for delay emulation).
//
// The paper fixes the learning window at 20 minutes with updates three times
// an hour; the trace-driven analogue here counts accesses. The adaptive
// window flag implements the paper's future-work extension: the window
// shrinks when the observed distribution drifts quickly and grows when it is
// stable (ablated in bench_ablation_window).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "cache/cluster.h"
#include "cache/journal.h"
#include "core/allocator.h"
#include "core/opus.h"
#include "obs/fairness_audit.h"
#include "obs/metrics.h"
#include "workload/trace.h"

namespace opus::sim {

struct OpusMasterConfig {
  // Re-run the allocator every this many observed accesses ("20 minutes").
  std::size_t update_interval = 1000;
  // Sliding learning-window length, in accesses.
  std::size_t learning_window = 4000;
  // Capacity handed to the allocator, in file units. <= 0 derives it from
  // cluster capacity / mean file size.
  double capacity_units = 0.0;
  // Adaptive learning window (extension; see file comment).
  bool adaptive_window = false;
  std::size_t min_window = 500;
  std::size_t max_window = 16000;
  // Journal every applied allocation (cache/journal.h) so a restarted
  // master can replay the latest decision onto a fresh cluster.
  bool enable_journal = false;
  // Lazy reallocation (extension): skip the (N+1)-solve Algorithm 1 run
  // when the inferred preferences moved less than this L1 distance per
  // user since the last applied allocation. 0 = always reallocate.
  double lazy_threshold = 0.0;
  // Online fairness audit: after each applied allocation, recompute the
  // isolation / break-even / normalized-envy guarantees and record
  // violations ("audit.violation" events + the AuditReport).
  bool audit = true;
  obs::FairnessAuditConfig audit_config;
  // Per-allocation-window metric deltas retained (oldest dropped beyond
  // this).
  std::size_t max_metric_windows = 512;
  // Incremental allocation windows: when the active allocator is OpuS, keep
  // an OpusWarmState across reallocations so every window's PF solves
  // warm-start from the previous applied allocation (and, when the
  // allocator's OpusDeltaOptions enable it, only drifted users are
  // re-solved). Live reconfiguration — policy swap, capacity override,
  // user drop — invalidates the state, so the next window runs cold.
  bool incremental = true;
};

class OpusMaster {
 public:
  // `allocator` and `cluster` must outlive the master.
  OpusMaster(const CacheAllocator* allocator, cache::CacheCluster* cluster,
             OpusMasterConfig config);

  // --- client workflow (paper Sec. V-A) ----------------------------------

  // Registers an application and returns its OpuS client id (a dense
  // UserId). Aborts when more clients register than the cluster was
  // configured for. Names are informational and need not be unique.
  cache::UserId RegisterClient(std::string name);

  std::size_t num_registered_clients() const { return client_names_.size(); }
  const std::string& client_name(cache::UserId id) const;

  // Explicitly reported caching preferences for one client (the paper's
  // report-through-an-API alternative to frequency inference). Overrides
  // the inferred row for this client until cleared. `prefs` are raw
  // non-negative scores, normalized internally.
  void ReportPreferences(cache::UserId client, std::vector<double> prefs);

  // Reverts `client` to frequency-inferred preferences.
  void ClearReportedPreferences(cache::UserId client);

  bool HasReportedPreferences(cache::UserId client) const;

  // Renames a registered client (e.g. a revived slot reused for a new
  // tenant under a different name).
  void RenameClient(cache::UserId client, std::string name);

  // Forgets everything the master has learned about `client`: its window
  // accesses and inferred counts, any explicitly reported preferences, and
  // its row of the incremental warm state. The next window treats the slot
  // as a fresh zero-preference tenant (zero share until it reports or
  // accesses again). Used by the serving daemon on dropuser.
  void PurgeUser(cache::UserId client);

  // Primes the allocation from an externally known preference matrix (e.g.
  // a previous window's model) so simulations start at steady state.
  void Prime(const Matrix& preferences);

  // Observes one access (genuine or spurious — the master cannot tell; that
  // is exactly the manipulation surface) and reallocates on schedule.
  void OnAccess(const workload::AccessEvent& event);

  // Rebuilds preferences from the current window and reallocates now.
  void Reallocate();

  const AllocationResult& current_allocation() const { return current_; }
  std::size_t reallocations() const { return reallocations_; }

  // Accesses remaining until OnAccess fires the next scheduled
  // reallocation (>= 1). The serving engine uses this to chunk parallel
  // read phases so every reallocation happens between phases, exactly
  // where the serial oracle fires it.
  std::size_t accesses_until_update() const {
    return config_.update_interval > since_update_
               ? config_.update_interval - since_update_
               : 1;
  }

  // --- live reconfiguration (serving daemon) ------------------------------

  // Swaps the allocation policy; takes effect at the next reallocation.
  // `allocator` must outlive the master.
  void set_allocator(const CacheAllocator* allocator);

  // Overrides the capacity (file units) handed to the allocator from the
  // next reallocation on. <= 0 reverts to deriving it from cluster
  // capacity / mean file size.
  void set_capacity_units(double units);
  double capacity_units() const { return config_.capacity_units; }

  std::string policy_name() const { return allocator_->name(); }
  // Scheduled updates skipped because preferences were stable
  // (lazy_threshold).
  std::size_t skipped_reallocations() const { return skipped_; }
  std::size_t window_size() const { return config_.learning_window; }

  // The control-plane journal (empty unless enable_journal).
  const cache::Journal& journal() const { return journal_; }

  // Per-window fairness audit (empty when config.audit is false).
  const obs::AuditReport& audit_report() const { return auditor_.report(); }

  // Per-allocation-window metric deltas (window k = what happened between
  // applied allocations k-1 and k).
  const std::vector<obs::MetricWindow>& window_metrics() const {
    return window_metrics_.windows();
  }

  // Preference matrix inferred from the current window (normalized).
  Matrix InferredPreferences() const;

 private:
  void Apply(const AllocationResult& result);
  void AdaptWindow();
  void InitObservability();
  // Runs one allocator solve with wall-time accounting (the only volatile
  // metric the master records) and applies the result.
  void SolveAndApply(const CachingProblem& problem);

  const CacheAllocator* allocator_;
  cache::CacheCluster* cluster_;
  OpusMasterConfig config_;
  std::vector<double> file_sizes_;  // per-file sizes in mean-file units
  std::vector<std::string> client_names_;
  // Explicit per-client preference rows (normalized); empty row = inferred.
  std::vector<std::vector<double>> explicit_prefs_;
  std::deque<workload::AccessEvent> window_;
  Matrix counts_;  // num_users x num_files, counts within window_
  Matrix previous_prefs_;
  // Cross-window solver state for incremental OpuS windows (see
  // OpusMasterConfig::incremental). Owned here because its lifetime is the
  // master's, not the (swappable, shared, const) allocator's.
  OpusWarmState warm_;
  AllocationResult current_;
  cache::Journal journal_;
  obs::FairnessAuditor auditor_;
  obs::WindowedSnapshots window_metrics_;
  std::size_t since_update_ = 0;
  std::size_t reallocations_ = 0;
  std::size_t skipped_ = 0;

  // Pre-resolved handles into the cluster's metrics registry ("master.*").
  obs::Counter* realloc_counter_ = nullptr;
  obs::Counter* lazy_skip_counter_ = nullptr;
  obs::Counter* ig_fallback_counter_ = nullptr;
  obs::Gauge* window_gauge_ = nullptr;
  obs::Gauge* drift_gauge_ = nullptr;
  obs::Gauge* residual_gauge_ = nullptr;
  obs::Counter* solver_solves_counter_ = nullptr;
  obs::Counter* solver_projections_counter_ = nullptr;
  obs::Counter* solver_restricted_counter_ = nullptr;
  obs::Counter* solver_fallback_counter_ = nullptr;
  obs::Gauge* solver_nnz_gauge_ = nullptr;
  obs::Counter* solver_warm_counter_ = nullptr;
  obs::Counter* delta_window_counter_ = nullptr;
  obs::Counter* delta_resolved_counter_ = nullptr;
  obs::Counter* delta_reused_counter_ = nullptr;
  obs::Gauge* agg_clusters_gauge_ = nullptr;
  obs::Histogram* solve_iterations_hist_ = nullptr;
  obs::Histogram* solve_wall_hist_ = nullptr;  // volatile (wall time)
};

}  // namespace opus::sim
