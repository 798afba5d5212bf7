// ServingEngine — the sharded concurrent data plane, replay-equivalent to
// the serial simulator by construction.
//
// The serial oracle (sim::RunManagedSimulation's loop) processes a pinned
// schedule as: for each event e — master.OnAccess(e) (learning update,
// possibly firing a reallocation), then cluster.Read(e) (store probe +
// metric/under-store accounting). The engine produces *identical* final
// store state, hit/eviction counts, metric snapshots, and audit reports
// while running the store probes concurrently:
//
//  - Chunking (the determinism boundary for control): reallocations fire
//    inside OnAccess exactly every `update_interval` observed accesses, so
//    the engine asks the master how many accesses remain
//    (accesses_until_update) and sizes each parallel phase to end just
//    before the boundary. The boundary event itself runs through the plain
//    serial path (OnAccess → realloc → Read), so every control-plane
//    mutation happens between parallel phases, exactly where the oracle
//    fires it.
//
//  - Shard affinity (the determinism boundary for data, and the data
//    plane's one concurrency rule): during a phase, thread t owns workers
//    {w : w mod T == t} and is the only thread that touches their stores.
//    Each shard therefore sees its sub-stream of ops in pinned event order
//    regardless of thread interleaving, which makes per-shard store
//    evolution (hits, LRU/LFU state, evictions) deterministic and equal to
//    the serial run's. The probe runs CacheCluster::Read's per-block body
//    — Access, plus Insert on an unmanaged miss — with no lock, in both
//    modes; everything else that mutates a store (allocation, fail/recover,
//    reconfiguration) runs between phases.
//
//  - Batched access stats (MPSC drain): per-access metric effects are not
//    applied in the probe. Each thread accumulates per-event byte totals
//    and per-worker u64 counter deltas in its own slab; at the phase
//    boundary the (single-threaded) drain replays CacheCluster::FinishRead
//    per event in pinned order — the same accounting tail the serial Read
//    calls — then flushes the worker counter deltas (order-free u64 sums).
//    Double-valued histogram observations thus happen in identical order,
//    making metric exports byte-identical.
//
// Span tracing is the one observability feature excluded from the
// equivalence bar: root-span sampling depends on global emission order, so
// the engine requires span tracing disabled (span_sample_every = 0) and
// the oracle run must match. Everything else is logical-clock based.
// Runtime telemetry is the one deliberately wall-clock feature: when
// EngineConfig::telemetry is set, probe threads time a deterministic
// sample of events (event-index based, so every thread and every rerun
// picks the same events) into their own slabs, and the single-threaded
// drain records them into the central RuntimeTelemetry — the same MPSC-at-
// the-boundary shape as the access stats. Nothing recorded there touches
// the MetricsRegistry, so the byte-identity contract above is unaffected.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cluster.h"
#include "obs/flight_recorder.h"
#include "obs/latency.h"
#include "sim/opus_master.h"
#include "workload/trace.h"

namespace opus::serve {

struct EngineConfig {
  // Probe-phase shard threads (clamped to the worker count; 1 = serial
  // phases, still drained through the same batched path).
  unsigned threads = 1;
  // Runtime telemetry sink (null = off). Must outlive the engine; written
  // only from the drain/serial path (single-threaded).
  obs::RuntimeTelemetry* telemetry = nullptr;
  // Optional flight recorder for phase/drain/realloc spans.
  obs::FlightRecorder* recorder = nullptr;
  // Time every Nth event (per Serve call, by event index). Sampling keeps
  // the clock reads off the common path: the overhead budget is <2% and a
  // steady_clock read costs ~25ns against ~1us/event.
  std::uint64_t telemetry_sample_every = 16;
};

struct ServeStats {
  std::uint64_t events = 0;
  std::uint64_t bytes_from_memory = 0;
  std::uint64_t bytes_from_disk = 0;
  double effective_hit_sum = 0.0;  // mean = effective_hit_sum / events
  double latency_sum_sec = 0.0;
  std::size_t reallocations = 0;  // fired while serving this batch
};

class ServingEngine {
 public:
  // `cluster` must outlive the engine. `master` may be null (pure
  // unmanaged serving: no learning, no reallocation). The cluster must
  // have span tracing disabled (see file comment).
  ServingEngine(cache::CacheCluster* cluster, sim::OpusMaster* master,
                EngineConfig config);

  // Serves `events` in pinned order; returns aggregate outcomes. Final
  // cluster state and metrics equal a serial replay of the same schedule.
  // Not reentrant: one Serve call at a time.
  ServeStats Serve(const std::vector<workload::AccessEvent>& events);

  // Serves the sub-range [begin, end) of `events`. Splitting one schedule
  // across consecutive ServeRange calls is replay-equivalent to a single
  // Serve over the whole of it: chunk boundaries derive from master state
  // (accesses_until_update) that carries across calls. This is what lets
  // the daemon interleave control commands into a long `gen` at batch
  // boundaries without perturbing determinism.
  ServeStats ServeRange(const std::vector<workload::AccessEvent>& events,
                        std::size_t begin, std::size_t end);

  unsigned threads() const { return threads_; }

  // Live latency quantiles (empty vector when telemetry is off).
  std::vector<obs::LatencySample> TelemetrySnapshot() const;

 private:
  struct EventPartial {
    std::uint64_t mem = 0;
    std::uint64_t disk = 0;
    std::uint64_t nanos = 0;  // sampled per-event probe time (telemetry)
  };
  struct WorkerDelta {
    std::uint64_t hits = 0;
    std::uint64_t hit_bytes = 0;
    std::uint64_t misses = 0;
    std::uint64_t miss_bytes = 0;
  };
  // Probes events [begin, end) across threads_ shard-affine threads,
  // filling partials_ and worker_deltas_. No metric/under-store effects.
  void ProbeChunk(const std::vector<workload::AccessEvent>& events,
                  std::size_t begin, std::size_t end);
  // Drains events [begin, end) in order: master OnAccess (guaranteed not
  // to cross a reallocation boundary) + FinishRead accounting; then
  // flushes worker counter deltas.
  void DrainChunk(const std::vector<workload::AccessEvent>& events,
                  std::size_t begin, std::size_t end, ServeStats* stats);
  // The serial oracle path for a single event (used at realloc boundaries).
  void ServeSerial(const workload::AccessEvent& event, ServeStats* stats);

  // Records one sampled per-request probe time (summed across the event's
  // shard visits) into the mode + per-user histograms.
  void RecordReadLatency(cache::UserId user, bool managed,
                         std::uint64_t nanos);

  cache::CacheCluster* cluster_;
  sim::OpusMaster* master_;
  unsigned threads_;
  obs::RuntimeTelemetry* telemetry_;  // null = runtime telemetry off
  obs::FlightRecorder* recorder_;
  std::uint64_t sample_every_;
  std::uint64_t serial_tick_ = 0;  // sampling counter for ServeSerial
  // Pre-resolved central histograms (valid iff telemetry_ != nullptr).
  obs::LogLinearHistogram* read_managed_ns_ = nullptr;
  obs::LogLinearHistogram* read_unmanaged_ns_ = nullptr;
  obs::LogLinearHistogram* drain_wall_ns_ = nullptr;
  obs::LogLinearHistogram* realloc_wall_ns_ = nullptr;
  obs::LogLinearHistogram* batch_events_ = nullptr;
  // Per-user read histograms, index = UserId (empty when the user count
  // exceeds kMaxPerUserHistograms — cardinality must stay bounded).
  std::vector<obs::LogLinearHistogram*> user_read_ns_;
  // Per-(file, worker) block indices, precomputed so a probe thread walks
  // exactly its shards' blocks instead of filtering the whole file.
  std::vector<std::vector<std::vector<std::uint32_t>>> file_worker_blocks_;
  // Each worker's store for the current phase (null = dead worker).
  std::vector<cache::BlockStore*> stores_;  // [worker]
  std::vector<std::vector<EventPartial>> partials_;  // [thread][event-begin]
  std::vector<WorkerDelta> worker_deltas_;  // [worker]; single writer/phase
};

}  // namespace opus::serve
