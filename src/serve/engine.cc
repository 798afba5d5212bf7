#include "serve/engine.h"

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"

namespace opus::serve {

namespace {
// Per-user latency histograms are ~9.5 KB each; beyond this many users the
// per-user breakdown is skipped and only the aggregate histograms record.
constexpr std::uint32_t kMaxPerUserHistograms = 256;
}  // namespace

ServingEngine::ServingEngine(cache::CacheCluster* cluster,
                             sim::OpusMaster* master, EngineConfig config)
    : cluster_(cluster), master_(master),
      threads_(std::max(1u, std::min(config.threads,
                                     static_cast<unsigned>(
                                         cluster->num_workers())))),
      telemetry_(config.telemetry), recorder_(config.recorder),
      sample_every_(
          std::max<std::uint64_t>(1, config.telemetry_sample_every)) {
  OPUS_CHECK(cluster_ != nullptr);
  // Span sampling keys off global emission order, which the concurrent
  // probe phase does not preserve — the replay-equivalence contract holds
  // only with tracing off (the serial oracle must run the same way).
  OPUS_CHECK_MSG(cluster_->config().span_sample_every == 0,
                 "ServingEngine requires span tracing disabled "
                 "(span_sample_every = 0)");

  const cache::Catalog& catalog = cluster_->catalog();
  const std::size_t workers = cluster_->num_workers();
  file_worker_blocks_.resize(catalog.size());
  for (cache::FileId f = 0; f < catalog.size(); ++f) {
    file_worker_blocks_[f].resize(workers);
    const cache::FileInfo& info = catalog.Get(f);
    for (std::uint32_t idx = 0; idx < info.num_blocks; ++idx) {
      const cache::WorkerId w =
          cluster_->PlacementFor(cache::MakeBlockId(f, idx));
      file_worker_blocks_[f][w].push_back(idx);
    }
  }
  stores_.assign(workers, nullptr);
  partials_.resize(threads_);
  worker_deltas_.assign(workers, WorkerDelta{});

  if (telemetry_ != nullptr) {
    read_managed_ns_ = &telemetry_->histogram("serve.read.managed_ns");
    read_unmanaged_ns_ = &telemetry_->histogram("serve.read.unmanaged_ns");
    drain_wall_ns_ = &telemetry_->histogram("serve.drain.wall_ns");
    realloc_wall_ns_ = &telemetry_->histogram("serve.realloc.wall_ns");
    batch_events_ = &telemetry_->histogram("serve.batch.events");
    const std::uint32_t users = cluster_->config().num_users;
    if (users <= kMaxPerUserHistograms) {
      user_read_ns_.reserve(users);
      for (std::uint32_t u = 0; u < users; ++u) {
        user_read_ns_.push_back(&telemetry_->histogram(
            "serve.user." + std::to_string(u) + ".read_ns"));
      }
    }
  }
}

std::vector<obs::LatencySample> ServingEngine::TelemetrySnapshot() const {
  if (telemetry_ == nullptr) return {};
  return telemetry_->Snapshot();
}

void ServingEngine::RecordReadLatency(cache::UserId user, bool managed,
                                      std::uint64_t nanos) {
  (managed ? read_managed_ns_ : read_unmanaged_ns_)->Record(nanos);
  if (user < user_read_ns_.size()) user_read_ns_[user]->Record(nanos);
}

void ServingEngine::ProbeChunk(
    const std::vector<workload::AccessEvent>& events, std::size_t begin,
    std::size_t end) {
  if (begin >= end) return;
  const std::size_t chunk = end - begin;
  const std::size_t workers = cluster_->num_workers();
  // Fetched every phase: FailWorker replaces the store object. A dead
  // worker has no store to touch, so every one of its blocks misses.
  for (std::size_t w = 0; w < workers; ++w) {
    const auto id = static_cast<cache::WorkerId>(w);
    stores_[w] =
        cluster_->IsWorkerAlive(id) ? &cluster_->worker(id).store() : nullptr;
  }
  for (auto& slab : partials_) {
    slab.assign(chunk, EventPartial{});
  }
  const bool managed = cluster_->managed();
  const cache::Catalog& catalog = cluster_->catalog();

  // Thread t owns workers {w : w mod threads_ == t}; any pool thread may
  // claim any role index, but each role touches a disjoint shard set and
  // writes only its own slab, so scheduling cannot affect the result and
  // no store needs a lock.
  const bool telemetry = telemetry_ != nullptr;
  const std::uint64_t sample_every = sample_every_;
  const auto body = [&](std::size_t t) {
    std::vector<EventPartial>& slab = partials_[t];
    for (std::size_t k = begin; k < end; ++k) {
      const workload::AccessEvent& ev = events[k];
      const cache::FileInfo& info = catalog.Get(ev.file);
      EventPartial& partial = slab[k - begin];
      // Sampling keys off the event index, so every thread times the same
      // events and the drain can sum the per-thread partial durations into
      // one per-request figure.
      const bool sampled = telemetry && (k % sample_every) == 0;
      const std::uint64_t probe_start = sampled ? obs::MonotonicNanos() : 0;
      const auto& by_worker = file_worker_blocks_[ev.file];
      for (std::size_t w = t; w < workers; w += threads_) {
        cache::BlockStore* store = stores_[w];
        WorkerDelta& delta = worker_deltas_[w];
        // CacheCluster::Read's per-block body, so each shard receives the
        // serial oracle's exact op sequence.
        for (std::uint32_t idx : by_worker[w]) {
          const cache::BlockId block = cache::MakeBlockId(ev.file, idx);
          const std::uint64_t bytes = info.BlockBytes(idx);
          if (store != nullptr && store->Access(block)) {
            partial.mem += bytes;
            ++delta.hits;
            delta.hit_bytes += bytes;
          } else {
            partial.disk += bytes;
            ++delta.misses;
            delta.miss_bytes += bytes;
            // Cache-on-read: pull the block in, evicting per policy.
            if (!managed && store != nullptr) store->Insert(block, bytes);
          }
        }
      }
      if (sampled) partial.nanos = obs::MonotonicNanos() - probe_start;
    }
  };
  if (threads_ == 1) {
    body(0);
  } else {
    ThreadPool::Shared().ParallelFor(threads_, body, threads_);
  }
}

void ServingEngine::DrainChunk(
    const std::vector<workload::AccessEvent>& events, std::size_t begin,
    std::size_t end, ServeStats* stats) {
  const bool telemetry = telemetry_ != nullptr;
  const std::uint64_t drain_start = telemetry ? obs::MonotonicNanos() : 0;
  const bool managed = cluster_->managed();
  for (std::size_t k = begin; k < end; ++k) {
    const workload::AccessEvent& ev = events[k];
    // Mirrors the serial loop's order: learning update first, then the
    // read's accounting. These OnAccess calls cannot fire a reallocation —
    // the chunk ends before the boundary (see Serve).
    if (master_ != nullptr) master_->OnAccess(ev);
    std::uint64_t mem = 0, disk = 0;
    for (const auto& slab : partials_) {
      mem += slab[k - begin].mem;
      disk += slab[k - begin].disk;
    }
    const cache::ReadResult r =
        cluster_->FinishRead(ev.user, ev.file, mem, disk);
    ++stats->events;
    stats->bytes_from_memory += r.bytes_from_memory;
    stats->bytes_from_disk += r.bytes_from_disk;
    stats->effective_hit_sum += r.effective_hit;
    stats->latency_sum_sec += r.latency_sec;
    if (telemetry && (k % sample_every_) == 0) {
      // Per-request probe time: the event's shard visits ran on different
      // threads, so the honest per-request scalar is the summed work.
      std::uint64_t nanos = 0;
      for (const auto& slab : partials_) nanos += slab[k - begin].nanos;
      RecordReadLatency(ev.user, managed, nanos);
    }
  }
  for (std::size_t w = 0; w < worker_deltas_.size(); ++w) {
    WorkerDelta& d = worker_deltas_[w];
    if (d.hits | d.hit_bytes | d.misses | d.miss_bytes) {
      cluster_->AddWorkerReadDeltas(static_cast<cache::WorkerId>(w), d.hits,
                                    d.hit_bytes, d.misses, d.miss_bytes);
    }
    d = WorkerDelta{};
  }
  if (telemetry) {
    batch_events_->Record(end - begin);
    const std::uint64_t drain_end = obs::MonotonicNanos();
    drain_wall_ns_->Record(drain_end - drain_start);
    if (recorder_ != nullptr) {
      recorder_->RecordSpan("serve.drain", drain_start, drain_end,
                            {{"events", std::to_string(end - begin)},
                             {"mode", managed ? "managed" : "unmanaged"}});
    }
  }
}

void ServingEngine::ServeSerial(const workload::AccessEvent& event,
                                ServeStats* stats) {
  const bool telemetry = telemetry_ != nullptr;
  const std::size_t before =
      master_ != nullptr ? master_->reallocations() : 0;
  if (master_ != nullptr) {
    const std::uint64_t t0 = telemetry ? obs::MonotonicNanos() : 0;
    master_->OnAccess(event);
    const std::size_t fired = master_->reallocations() - before;
    stats->reallocations += fired;
    if (telemetry && fired > 0) {
      // This OnAccess ran the whole control-plane update: the solve plus
      // the cluster ApplyAllocation / access-model push.
      const std::uint64_t t1 = obs::MonotonicNanos();
      realloc_wall_ns_->Record(t1 - t0);
      if (recorder_ != nullptr) {
        recorder_->RecordSpan("serve.realloc", t0, t1,
                              {{"reallocations", std::to_string(fired)}});
      }
    }
  }
  const bool sampled = telemetry && (serial_tick_++ % sample_every_) == 0;
  const std::uint64_t read_start = sampled ? obs::MonotonicNanos() : 0;
  const bool managed = cluster_->managed();
  const cache::ReadResult r = cluster_->Read(event.user, event.file);
  if (sampled) {
    RecordReadLatency(event.user, managed,
                      obs::MonotonicNanos() - read_start);
  }
  ++stats->events;
  stats->bytes_from_memory += r.bytes_from_memory;
  stats->bytes_from_disk += r.bytes_from_disk;
  stats->effective_hit_sum += r.effective_hit;
  stats->latency_sum_sec += r.latency_sec;
}

ServeStats ServingEngine::Serve(
    const std::vector<workload::AccessEvent>& events) {
  return ServeRange(events, 0, events.size());
}

ServeStats ServingEngine::ServeRange(
    const std::vector<workload::AccessEvent>& events, std::size_t begin,
    std::size_t end) {
  OPUS_CHECK_LE(begin, end);
  OPUS_CHECK_LE(end, events.size());
  ServeStats stats;
  std::size_t i = begin;
  const std::size_t n = end;
  while (i < n) {
    if (master_ == nullptr) {
      ProbeChunk(events, i, n);
      DrainChunk(events, i, n, &stats);
      break;
    }
    // The OnAccess of events[boundary - 1] fires the next reallocation; in
    // the serial loop that event's read already sees the new allocation,
    // so it must not join the parallel phase.
    const std::size_t boundary = i + master_->accesses_until_update();
    if (boundary <= n) {
      if (boundary - 1 > i) {
        ProbeChunk(events, i, boundary - 1);
        DrainChunk(events, i, boundary - 1, &stats);
      }
      ServeSerial(events[boundary - 1], &stats);
      i = boundary;
    } else {
      // Tail ends before the next boundary: no reallocation can fire.
      ProbeChunk(events, i, n);
      DrainChunk(events, i, n, &stats);
      i = n;
    }
  }
  return stats;
}

}  // namespace opus::serve
