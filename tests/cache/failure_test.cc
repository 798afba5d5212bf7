// Worker failure and recovery: crashed workers lose their blocks, reads
// fall through to the under store, and the next allocation round restores
// pins — the availability story behind the paper's "OpuSMaster ... runs
// Algorithm 1 periodically".
#include <gtest/gtest.h>

#include "cache/cluster.h"
#include "core/opus.h"
#include "sim/opus_master.h"

namespace opus::cache {
namespace {

Catalog ThreeFileCatalog() {
  Catalog c(1 * kMiB);
  for (int f = 0; f < 3; ++f) {
    c.Register("f" + std::to_string(f), 6 * kMiB);
  }
  return c;
}

ClusterConfig ThreeWorkerConfig() {
  ClusterConfig cfg;
  cfg.num_workers = 3;
  cfg.num_users = 1;
  cfg.cache_capacity_bytes = 18 * kMiB;
  return cfg;
}

TEST(FailureTest, FailedWorkerLosesItsBlocks) {
  CacheCluster cluster(ThreeWorkerConfig(), ThreeFileCatalog());
  cluster.ApplyAllocation({1.0, 1.0, 1.0});
  EXPECT_NEAR(cluster.ResidentFraction(0), 1.0, 1e-12);
  cluster.FailWorker(0);
  EXPECT_EQ(cluster.num_alive_workers(), 2u);
  // f0's blocks 0..5 map to workers (0+idx)%3 — a third lives on worker 0.
  EXPECT_NEAR(cluster.ResidentFraction(0), 2.0 / 3.0, 1e-12);
}

TEST(FailureTest, ReadsOnFailedWorkerGoToDisk) {
  CacheCluster cluster(ThreeWorkerConfig(), ThreeFileCatalog());
  cluster.ApplyAllocation({1.0, 1.0, 1.0});
  cluster.FailWorker(1);
  const auto r = cluster.Read(0, 0);
  EXPECT_EQ(r.bytes_from_disk, 2 * kMiB);  // the 2 blocks on worker 1
  EXPECT_EQ(r.bytes_from_memory, 4 * kMiB);
}

TEST(FailureTest, RecoveredWorkerRepinsFromLastUpdate) {
  CacheCluster cluster(ThreeWorkerConfig(), ThreeFileCatalog());
  cluster.ApplyAllocation({1.0, 1.0, 1.0});
  const std::uint64_t disk_before = cluster.under_store().bytes_read();
  cluster.FailWorker(2);
  cluster.RecoverWorker(2);
  EXPECT_TRUE(cluster.IsWorkerAlive(2));
  // The latest CacheUpdate is replayed on recovery: the worker is warm
  // again immediately, and the reload was charged as under-store reads
  // (regression: recovered workers used to sit empty and unpinned until
  // the next reallocation round).
  EXPECT_NEAR(cluster.ResidentFraction(0), 1.0, 1e-12);
  EXPECT_GT(cluster.under_store().bytes_read(), disk_before);
}

TEST(FailureTest, RecoveryInUnmanagedModeStaysCold) {
  // Without a control plane there is no stored CacheUpdate to replay; the
  // worker refills organically via cache-on-read.
  CacheCluster cluster(ThreeWorkerConfig(), ThreeFileCatalog());
  cluster.Read(0, 0);  // warms the unmanaged cache
  cluster.FailWorker(2);
  cluster.RecoverWorker(2);
  EXPECT_TRUE(cluster.IsWorkerAlive(2));
  EXPECT_LT(cluster.ResidentFraction(0), 1.0);
}

TEST(FailureTest, UnmanagedModeDoesNotCacheOnDeadWorker) {
  CacheCluster cluster(ThreeWorkerConfig(), ThreeFileCatalog());
  cluster.FailWorker(0);
  cluster.Read(0, 0);
  cluster.Read(0, 0);
  const auto r = cluster.Read(0, 0);
  // Blocks mapping to the dead worker keep missing; the rest are cached.
  EXPECT_EQ(r.bytes_from_disk, 2 * kMiB);
  EXPECT_EQ(r.bytes_from_memory, 4 * kMiB);
}

TEST(FailureTest, DoubleFailIsIdempotent) {
  CacheCluster cluster(ThreeWorkerConfig(), ThreeFileCatalog());
  cluster.FailWorker(0);
  cluster.FailWorker(0);
  EXPECT_EQ(cluster.num_alive_workers(), 2u);
}

TEST(FailureTest, ReallocWhileDeadThenRecoverShrinksCleanly) {
  // fail -> realloc (shrink) -> recover: the allocation shrank while the
  // worker was down, so recovery reloads only the new, smaller prefix and
  // the next epoch's delta bookkeeping stays exact.
  CacheCluster cluster(ThreeWorkerConfig(), ThreeFileCatalog());
  cluster.ApplyAllocation({1.0, 1.0, 1.0});
  cluster.FailWorker(1);
  cluster.ApplyAllocation({0.5, 0.5, 0.5});  // 3 of 6 blocks per file
  cluster.RecoverWorker(1);
  for (FileId f = 0; f < 3; ++f) {
    EXPECT_NEAR(cluster.ResidentFraction(f), 0.5, 1e-12) << "file " << f;
  }
  // The rebuilt prefix is trusted: a follow-up delta epoch must land on
  // exactly the new fractions with no stale survivors.
  cluster.ApplyAllocation({1.0, 0.0, 0.5});
  EXPECT_NEAR(cluster.ResidentFraction(0), 1.0, 1e-12);
  EXPECT_NEAR(cluster.ResidentFraction(1), 0.0, 1e-12);
  EXPECT_NEAR(cluster.ResidentFraction(2), 0.5, 1e-12);
}

TEST(FailureTest, OverloadedRecoveryForcesReconciliationPass) {
  // Regression: fail -> realloc (grow) -> recover -> realloc (shrink).
  //
  // While the worker is down the allocation grows past what its memory can
  // hold; ApplyAllocation records no failure (dead workers are skipped),
  // so the delta invariant looks intact. Recovery then overflows the
  // worker — low-index pins fail — and used to DROP that failure count,
  // leaving needs_full_pass_ false. The next (shrinking) epoch would run a
  // delta pass that only erases the tail, permanently missing the
  // low-index blocks its prefix bookkeeping claims are resident.
  ClusterConfig cfg;
  cfg.num_workers = 1;
  cfg.num_users = 1;
  cfg.cache_capacity_bytes = 6 * kMiB;  // 6 of the file's 8 blocks fit
  Catalog catalog(1 * kMiB);
  catalog.Register("f0", 8 * kMiB);
  CacheCluster cluster(cfg, std::move(catalog));

  cluster.ApplyAllocation({0.25});  // epoch A: blocks 0..1 pinned
  cluster.FailWorker(0);
  cluster.ApplyAllocation({1.0});  // epoch B: prefix=8, worker dead, no
                                   // failures recorded
  cluster.RecoverWorker(0);  // reloads 8 blocks into 6 MiB: LRU evicts
                             // blocks 0..1 during load, their pins fail
  EXPECT_NEAR(cluster.ResidentFraction(0), 6.0 / 8.0, 1e-12);

  cluster.ApplyAllocation({0.5});  // epoch C: must reconcile, not delta
  // With the failure count dropped this was 0.25 (blocks 2..3): the delta
  // pass erased the tail and never reloaded the missing 0..1.
  EXPECT_NEAR(cluster.ResidentFraction(0), 0.5, 1e-12);
  const auto r = cluster.Read(0, 0);
  EXPECT_EQ(r.bytes_from_memory, 4 * kMiB);
  EXPECT_EQ(r.bytes_from_disk, 4 * kMiB);
}

TEST(FailureTest, PinFailureTotalIsTheSumOfWorkerCounters) {
  // The control-plane total is what the daemon's anomaly check reads after
  // every request; it must track the per-worker counters through overloaded
  // allocations and an overloaded recovery.
  ClusterConfig cfg;
  cfg.num_workers = 3;
  cfg.num_users = 1;
  cfg.cache_capacity_bytes = 6 * kMiB;
  Catalog catalog(1 * kMiB);
  catalog.Register("f0", 8 * kMiB);
  catalog.Register("f1", 4 * kMiB);
  CacheCluster cluster(cfg, std::move(catalog));
  const auto counter_sum = [&cluster] {
    std::uint64_t sum = 0;
    for (const obs::CounterSample& c : cluster.metrics().Snapshot().counters) {
      if (c.name.ends_with(".pin_failures")) sum += c.value;
    }
    return sum;
  };
  EXPECT_EQ(cluster.control_plane_stats().pin_failures, 0u);
  cluster.ApplyAllocation({1.0, 1.0});  // 12 blocks into 6 MiB
  EXPECT_GT(cluster.control_plane_stats().pin_failures, 0u);
  EXPECT_EQ(cluster.control_plane_stats().pin_failures, counter_sum());
  cluster.FailWorker(1);
  cluster.ApplyAllocation({0.5, 1.0});
  cluster.RecoverWorker(1);
  cluster.ApplyAllocation({1.0, 1.0});
  EXPECT_EQ(cluster.control_plane_stats().pin_failures, counter_sum());
}

TEST(FailureTest, MasterReallocationHealsTheCache) {
  // End-to-end: fail a worker mid-flight and leave it down across a
  // reallocation round — the master cannot push pins to a dead worker, so
  // the cache stays degraded until the worker returns, at which point the
  // stored update (refreshed by the round that ran while it was down)
  // restores full residency without waiting for the next round.
  CacheCluster cluster(ThreeWorkerConfig(), ThreeFileCatalog());
  const OpusAllocator alloc;
  sim::OpusMasterConfig cfg;
  cfg.update_interval = 10;
  sim::OpusMaster master(&alloc, &cluster, cfg);

  workload::AccessEvent e;
  e.user = 0;
  e.file = 0;
  for (int k = 0; k < 10; ++k) master.OnAccess(e);  // triggers allocation
  EXPECT_NEAR(cluster.ResidentFraction(0), 1.0, 1e-12);

  cluster.FailWorker(1);
  EXPECT_LT(cluster.ResidentFraction(0), 1.0);
  for (int k = 0; k < 10; ++k) master.OnAccess(e);  // realloc, worker 1 down
  EXPECT_LT(cluster.ResidentFraction(0), 1.0);
  cluster.RecoverWorker(1);
  EXPECT_NEAR(cluster.ResidentFraction(0), 1.0, 1e-12);
}

}  // namespace
}  // namespace opus::cache
