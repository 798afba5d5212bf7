#include "cache/cluster.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/mathutil.h"

namespace opus::cache {
namespace {

// Fixed log-spaced latency buckets (seconds): deterministic exports require
// bucket bounds chosen once, not derived from observed data.
std::vector<double> LatencyBounds() {
  return {1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0};
}

}  // namespace

CacheCluster::CacheCluster(ClusterConfig config, Catalog catalog)
    : config_(config), catalog_(std::move(catalog)),
      under_store_(config.under_store),
      spans_(obs::SpanTraceConfig{config.span_sample_every,
                                  config.span_capacity}),
      eviction_kind_(ParseEvictionKind(config.eviction_policy)) {
  OPUS_CHECK_GT(config_.num_workers, 0u);
  OPUS_CHECK_GT(config_.num_users, 0u);
  const std::uint64_t per_worker =
      config_.cache_capacity_bytes / config_.num_workers;
  for (WorkerId w = 0; w < config_.num_workers; ++w) {
    workers_.push_back(
        std::make_unique<Worker>(w, per_worker, eviction_kind_));
  }
  worker_alive_.assign(config_.num_workers, true);
  pinned_prefix_.assign(catalog_.size(), 0);
  if (config_.placement == "consistent") {
    ring_.emplace(config_.num_workers);
  } else {
    OPUS_CHECK_MSG(config_.placement == "modulo",
                   "unknown placement policy: " << config_.placement);
  }
  BuildPlacementCache();
  InitObservability();
}

void CacheCluster::BuildPlacementCache() {
  file_offset_.assign(catalog_.size() + 1, 0);
  for (FileId f = 0; f < catalog_.size(); ++f) {
    file_offset_[f + 1] = file_offset_[f] + catalog_.Get(f).num_blocks;
  }
  block_worker_.resize(file_offset_.back());
  for (FileId f = 0; f < catalog_.size(); ++f) {
    const FileInfo& info = catalog_.Get(f);
    for (std::uint32_t idx = 0; idx < info.num_blocks; ++idx) {
      const BlockId block = MakeBlockId(f, idx);
      block_worker_[file_offset_[f] + idx] =
          ring_ ? ring_->Place(block)
                : ModuloPlace(block,
                              static_cast<std::uint32_t>(workers_.size()));
    }
  }
}

void CacheCluster::InitObservability() {
  under_store_.AttachMetrics(&metrics_);
  under_store_.AttachSpans(&spans_);
  // Bounded-buffer data loss must be visible in the metric export, not
  // only on the trace objects.
  trace_.AttachDropCounter(&metrics_.counter("obs.trace.dropped"));
  spans_.AttachDropCounter(&metrics_.counter("obs.spans.dropped"));
  read_latency_hist_ =
      &metrics_.histogram("cluster.read.latency_sec", LatencyBounds());
  worker_counters_.resize(workers_.size());
  for (WorkerId w = 0; w < workers_.size(); ++w) {
    const std::string p = "cluster.worker." + std::to_string(w) + ".";
    WorkerCounters& c = worker_counters_[w];
    c.mem_hits = &metrics_.counter(p + "mem_hits");
    c.mem_hit_bytes = &metrics_.counter(p + "mem_hit_bytes");
    c.misses = &metrics_.counter(p + "misses");
    c.miss_bytes = &metrics_.counter(p + "miss_bytes");
    c.pins = &metrics_.counter(p + "pins");
    c.unpins = &metrics_.counter(p + "unpins");
    c.loads = &metrics_.counter(p + "loads");
    c.pin_failures = &metrics_.counter(p + "pin_failures");
    c.failures = &metrics_.counter(p + "failures");
    workers_[w]->store().set_eviction_counter(
        &metrics_.counter(p + "evictions"));
  }
  user_counters_.resize(config_.num_users);
  for (UserId u = 0; u < config_.num_users; ++u) {
    const std::string p = "cluster.user." + std::to_string(u) + ".";
    UserCounters& c = user_counters_[u];
    c.reads = &metrics_.counter(p + "reads");
    c.mem_bytes = &metrics_.counter(p + "mem_bytes");
    c.disk_bytes = &metrics_.counter(p + "disk_bytes");
    c.blocking_delay_sec =
        &metrics_.histogram(p + "blocking_delay_sec", LatencyBounds());
  }
}

void CacheCluster::FailWorker(WorkerId worker) {
  OPUS_CHECK_LT(worker, workers_.size());
  if (!worker_alive_[worker]) return;
  worker_alive_[worker] = false;
  const std::uint64_t lost_blocks = workers_[worker]->store().num_blocks();
  const std::uint64_t lost_bytes = workers_[worker]->store().used_bytes();
  // The crash loses all cached state: restart the worker process empty so
  // recovery begins from a clean store.
  const std::uint64_t capacity = workers_[worker]->store().capacity_bytes();
  workers_[worker] =
      std::make_unique<Worker>(worker, capacity, eviction_kind_);
  workers_[worker]->store().set_eviction_counter(&metrics_.counter(
      "cluster.worker." + std::to_string(worker) + ".evictions"));
  worker_counters_[worker].failures->Increment();
  trace_.Emit("cluster.worker.failed",
              {{"worker", std::to_string(worker)},
               {"lost_blocks", std::to_string(lost_blocks)},
               {"lost_bytes", std::to_string(lost_bytes)}});
}

void CacheCluster::RecoverWorker(WorkerId worker) {
  OPUS_CHECK_LT(worker, workers_.size());
  if (worker_alive_[worker]) return;
  worker_alive_[worker] = true;
  std::uint64_t reloaded = 0;
  if (managed_) {
    // Re-apply this worker's share of the current allocation (rebuilt from
    // the per-file pinned prefixes) to the rebooted (empty) worker rather
    // than serving its whole partition from disk until the next round.
    CacheUpdate update;
    update.worker = worker;
    update.epoch = epoch_;
    const BlockStore& store = workers_[worker]->store();
    for (FileId f = 0; f < catalog_.size(); ++f) {
      const std::uint32_t want = pinned_prefix_[f];
      for (std::uint32_t idx = 0; idx < want; ++idx) {
        const BlockId block = MakeBlockId(f, idx);
        if (WorkerIndexFor(block) != worker) continue;
        if (!store.Contains(block)) update.load.push_back(block);
        update.pin.push_back(block);
      }
    }
    reloaded = update.load.size();
    const std::uint64_t failed = ApplyUpdateToWorker(worker, update);
    // A failed recovery pin/load leaves this worker's share of [0, want)
    // only partially resident while pinned_prefix_ still claims the full
    // prefix — the same broken-delta-invariant case as a failed
    // ApplyAllocation, so the next epoch must reconcile with a full pass.
    if (failed > 0) needs_full_pass_ = true;
  }
  trace_.Emit("cluster.worker.recovered",
              {{"worker", std::to_string(worker)},
               {"reloaded_blocks", std::to_string(reloaded)}});
}

bool CacheCluster::IsWorkerAlive(WorkerId worker) const {
  OPUS_CHECK_LT(worker, workers_.size());
  return worker_alive_[worker];
}

std::size_t CacheCluster::num_alive_workers() const {
  std::size_t alive = 0;
  for (bool a : worker_alive_) alive += a ? 1 : 0;
  return alive;
}

double CacheCluster::MemoryLatency(std::uint64_t bytes) const {
  return static_cast<double>(bytes) / config_.memory_bandwidth_bytes_per_sec;
}

ReadResult CacheCluster::Read(UserId user, FileId file) {
  OPUS_CHECK_LT(user, config_.num_users);
  const FileInfo& info = catalog_.Get(file);
  obs::ScopedSpan span(&spans_, "cluster.read");
  // Attribute *formatting* allocates (std::to_string), so every AddAttr on
  // this path is gated on active(): a sampled-out read costs zero
  // allocations while recorded reads keep byte-identical attributes.
  if (span.active()) {
    span.AddAttr("user", std::to_string(user));
    span.AddAttr("file", std::to_string(file));
  }

  ReadResult r;
  r.bytes_total = info.size_bytes;

  {
    obs::ScopedSpan probe(&spans_, "cluster.probe");
    for (std::uint32_t idx = 0; idx < info.num_blocks; ++idx) {
      const BlockId block = MakeBlockId(file, idx);
      const std::uint64_t bytes = info.BlockBytes(idx);
      const WorkerId w = WorkerIndexFor(block);
      Worker& worker = *workers_[w];
      WorkerCounters& wc = worker_counters_[w];
      if (worker_alive_[w] && worker.store().Access(block)) {
        r.bytes_from_memory += bytes;
        wc.mem_hits->Increment();
        wc.mem_hit_bytes->Increment(bytes);
      } else {
        r.bytes_from_disk += bytes;
        wc.misses->Increment();
        wc.miss_bytes->Increment(bytes);
        if (!managed_ && worker_alive_[w]) {
          // Cache-on-read: pull the block in, evicting per policy.
          worker.store().Insert(block, bytes);
        }
      }
    }
    if (probe.active()) {
      probe.AddAttr("blocks", std::to_string(info.num_blocks));
      probe.AddAttr("mem_bytes", std::to_string(r.bytes_from_memory));
      probe.AddAttr("disk_bytes", std::to_string(r.bytes_from_disk));
    }
  }
  r = FinishRead(user, file, r.bytes_from_memory, r.bytes_from_disk);
  if (span.active()) {
    span.AddAttr("bytes", std::to_string(r.bytes_total));
    span.AddAttr("latency_sec", obs::FormatDouble(r.latency_sec));
  }
  return r;
}

ReadResult CacheCluster::FinishRead(UserId user, FileId file,
                                    std::uint64_t bytes_from_memory,
                                    std::uint64_t bytes_from_disk) {
  OPUS_CHECK_LT(user, config_.num_users);
  const FileInfo& info = catalog_.Get(file);
  ReadResult r;
  r.bytes_total = info.size_bytes;
  r.bytes_from_memory = bytes_from_memory;
  r.bytes_from_disk = bytes_from_disk;
  r.latency_sec = MemoryLatency(r.bytes_from_memory);
  if (r.bytes_from_disk > 0) {
    // UnderStore::Read opens its own "under.read" child span.
    r.latency_sec += under_store_.Read(r.bytes_from_disk);
  }
  r.memory_fraction = info.size_bytes == 0
                          ? 0.0
                          : static_cast<double>(r.bytes_from_memory) /
                                static_cast<double>(info.size_bytes);

  // Managed-mode blocking: the master injects the expected delay
  // f * T_d(bytes served from memory) and the metric charges a fractional
  // miss of the same probability (Sec. VI "Metric").
  double unblocked = 1.0;
  if (!unblocked_share_.empty()) {
    unblocked = Clamp(unblocked_share_(user, file), 0.0, 1.0);
  }
  r.blocking_probability = 1.0 - unblocked;
  UserCounters& uc = user_counters_[user];
  if (r.blocking_probability > 0.0 && r.bytes_from_memory > 0) {
    obs::ScopedSpan blocking(&spans_, "cluster.blocking_delay");
    const double delay = under_store_.BlockingDelay(r.bytes_from_memory,
                                                    r.blocking_probability);
    r.latency_sec += delay;
    uc.blocking_delay_sec->Observe(delay);
    if (blocking.active()) {
      blocking.AddAttr("probability",
                       obs::FormatDouble(r.blocking_probability));
      blocking.AddAttr("delay_sec", obs::FormatDouble(delay));
    }
  }
  r.effective_hit = r.memory_fraction * unblocked;
  uc.reads->Increment();
  uc.mem_bytes->Increment(r.bytes_from_memory);
  uc.disk_bytes->Increment(r.bytes_from_disk);
  read_latency_hist_->Observe(r.latency_sec);
  return r;
}

void CacheCluster::AddWorkerReadDeltas(WorkerId worker, std::uint64_t mem_hits,
                                       std::uint64_t mem_hit_bytes,
                                       std::uint64_t misses,
                                       std::uint64_t miss_bytes) {
  OPUS_CHECK_LT(worker, worker_counters_.size());
  WorkerCounters& wc = worker_counters_[worker];
  wc.mem_hits->Increment(mem_hits);
  wc.mem_hit_bytes->Increment(mem_hit_bytes);
  wc.misses->Increment(misses);
  wc.miss_bytes->Increment(miss_bytes);
}

std::uint64_t CacheCluster::ApplyUpdateToWorker(WorkerId worker,
                                                const CacheUpdate& update) {
  OPUS_CHECK(worker_alive_[worker]);
  const std::uint64_t failed = workers_[worker]->Apply(update, [&](BlockId b) {
    return catalog_.Get(BlockFile(b)).BlockBytes(BlockIndex(b));
  });
  ++cp_stats_.cache_updates;
  cp_stats_.blocks_pinned += update.pin.size();
  cp_stats_.blocks_unpinned += update.unpin.size();
  cp_stats_.blocks_loaded += update.load.size();
  cp_stats_.pin_failures += failed;
  WorkerCounters& wc = worker_counters_[worker];
  wc.pins->Increment(update.pin.size());
  wc.unpins->Increment(update.unpin.size());
  wc.loads->Increment(update.load.size());
  wc.pin_failures->Increment(failed);
  // Loading from the under store costs disk reads (accounted centrally).
  for (BlockId b : update.load) {
    under_store_.Read(catalog_.Get(BlockFile(b)).BlockBytes(BlockIndex(b)));
  }
  return failed;
}

void CacheCluster::ApplyAllocation(const std::vector<double>& file_fractions) {
  OPUS_CHECK_EQ(file_fractions.size(), catalog_.size());
  obs::ScopedSpan span(&spans_, "cluster.apply_allocation");
  const bool full_pass = needs_full_pass_ || !managed_;
  managed_ = true;
  ++epoch_;
  if (span.active()) span.AddAttr("epoch", std::to_string(epoch_));

  // Desired block set: the prefix of each file covering the allocated
  // fraction (rounded to nearest block).
  std::vector<CacheUpdate> updates(workers_.size());
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    updates[w].worker = static_cast<WorkerId>(w);
    updates[w].epoch = epoch_;
  }

  for (FileId f = 0; f < catalog_.size(); ++f) {
    const FileInfo& info = catalog_.Get(f);
    const double frac = Clamp(file_fractions[f], 0.0, 1.0);
    // Floor-round with a 1e-6 epsilon: absorbs solver residue on an
    // intended-integral block count while still flooring true fractions,
    // so pinned bytes never exceed what the allocator budgeted.
    const auto want = static_cast<std::uint32_t>(
        std::floor(frac * static_cast<double>(info.num_blocks) + 1e-6));
    if (full_pass) {
      // Reconcile against actual store state: probe every block. Needed
      // when the prefix bookkeeping can't be trusted (first managed epoch
      // over cache-on-read leftovers, or after pin failures).
      for (std::uint32_t idx = 0; idx < info.num_blocks; ++idx) {
        const BlockId block = MakeBlockId(f, idx);
        Worker& worker = WorkerFor(block);
        auto& up = updates[worker.id()];
        if (idx < want) {
          if (!worker.store().Contains(block)) up.load.push_back(block);
          up.pin.push_back(block);
        } else {
          up.unpin.push_back(block);
          // Desired set is exact in managed mode: drop surplus blocks.
          if (worker.store().Contains(block)) worker.store().Erase(block);
        }
      }
    } else {
      // Delta pass: the previous epoch left exactly [0, prev) pinned, so
      // only the changed range needs work — blocks the cluster never held
      // are never probed.
      const std::uint32_t prev = pinned_prefix_[f];
      for (std::uint32_t idx = prev; idx < want; ++idx) {  // grow
        const BlockId block = MakeBlockId(f, idx);
        Worker& worker = WorkerFor(block);
        auto& up = updates[worker.id()];
        if (!worker.store().Contains(block)) up.load.push_back(block);
        up.pin.push_back(block);
      }
      for (std::uint32_t idx = want; idx < prev; ++idx) {  // shrink
        const BlockId block = MakeBlockId(f, idx);
        Worker& worker = WorkerFor(block);
        updates[worker.id()].unpin.push_back(block);
        if (worker.store().Contains(block)) worker.store().Erase(block);
      }
    }
    pinned_prefix_[f] = want;
  }

  std::uint64_t failed = 0;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    // Dead workers are skipped; RecoverWorker rebuilds their share of the
    // allocation from pinned_prefix_ when they come back.
    if (!worker_alive_[w]) continue;
    failed += ApplyUpdateToWorker(static_cast<WorkerId>(w), updates[w]);
  }
  // Any pin/load failure leaves [0, want) only partially resident, so the
  // delta invariant is broken until a reconciliation pass runs.
  needs_full_pass_ = failed > 0;
  trace_.Emit("cluster.realloc_applied",
              {{"epoch", std::to_string(epoch_)}});
}

void CacheCluster::SetAccessModel(Matrix unblocked_share) {
  if (!unblocked_share.empty()) {
    OPUS_CHECK_EQ(unblocked_share.rows(), config_.num_users);
    OPUS_CHECK_EQ(unblocked_share.cols(), catalog_.size());
  }
  unblocked_share_ = std::move(unblocked_share);
  ++cp_stats_.blocking_updates;
}

void CacheCluster::SetUnmanaged() {
  managed_ = false;
  unblocked_share_ = Matrix();
  for (auto& worker : workers_) {
    for (BlockId b : worker->store().ResidentBlocks()) {
      worker->store().Unpin(b);
    }
  }
  // Cache-on-read will mutate residency arbitrarily from here, so the
  // prefix bookkeeping is void until the next full reconciliation.
  std::fill(pinned_prefix_.begin(), pinned_prefix_.end(), 0u);
  needs_full_pass_ = true;
}

double CacheCluster::ResidentFraction(FileId file) const {
  const FileInfo& info = catalog_.Get(file);
  std::uint64_t resident = 0;
  for (std::uint32_t idx = 0; idx < info.num_blocks; ++idx) {
    const BlockId block = MakeBlockId(file, idx);
    const Worker& worker = WorkerFor(block);
    if (worker_alive_[worker.id()] && worker.store().Contains(block)) {
      resident += info.BlockBytes(idx);
    }
  }
  return info.size_bytes == 0
             ? 0.0
             : static_cast<double>(resident) /
                   static_cast<double>(info.size_bytes);
}

std::uint64_t CacheCluster::UsedBytes() const {
  std::uint64_t total = 0;
  for (const auto& w : workers_) total += w->store().used_bytes();
  return total;
}

std::uint64_t CacheCluster::total_evictions() const {
  std::uint64_t total = 0;
  for (const auto& w : workers_) total += w->store().evictions();
  return total;
}

}  // namespace opus::cache
