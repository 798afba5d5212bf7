// Replay-equivalence gate: a pinned schedule served through the sharded
// concurrent engine must be indistinguishable from the serial oracle —
// identical final store state, hit/eviction counts, metric exports, and
// fairness-audit reports at every thread count. This is the correctness
// contract of src/serve (see serve/engine.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "cache/cluster.h"
#include "core/opus.h"
#include "serve/engine.h"
#include "sim/opus_master.h"
#include "workload/preference_gen.h"
#include "workload/trace.h"

namespace opus::serve {
namespace {

cache::Catalog MakeCatalog() {
  cache::Catalog catalog(1 * cache::kMiB);
  // Heterogeneous sizes so block counts differ per file.
  for (int f = 0; f < 12; ++f) {
    catalog.Register("f" + std::to_string(f),
                     (2 + (f % 5)) * cache::kMiB);
  }
  return catalog;
}

cache::ClusterConfig MakeClusterConfig() {
  cache::ClusterConfig cfg;
  cfg.num_workers = 4;
  cfg.num_users = 3;
  cfg.cache_capacity_bytes = 16 * cache::kMiB;
  cfg.span_sample_every = 0;  // engine contract (serve/engine.h)
  return cfg;
}

std::vector<workload::AccessEvent> MakeEvents(std::size_t n) {
  workload::ZipfPreferenceConfig pcfg;
  pcfg.num_users = 3;
  pcfg.num_files = 12;
  pcfg.alpha = 1.1;
  Rng rng(5);
  const Matrix prefs = workload::GenerateZipfPreferences(pcfg, rng);
  Rng trace_rng(17);
  return workload::GenerateTrace(workload::TruthfulSpecs(prefs), n,
                                 trace_rng)
      .events;
}

// The serial oracle: the exact loop sim::RunManagedSimulation drives.
void ServeOracle(cache::CacheCluster* cluster, sim::OpusMaster* master,
                 const std::vector<workload::AccessEvent>& events) {
  for (const workload::AccessEvent& e : events) {
    if (master != nullptr) master->OnAccess(e);
    cluster->Read(e.user, e.file);
  }
}

struct Plant {
  std::unique_ptr<cache::CacheCluster> cluster;
  std::unique_ptr<OpusAllocator> allocator;
  std::unique_ptr<sim::OpusMaster> master;
};

Plant MakeManagedPlant(std::size_t update_interval) {
  Plant p;
  p.cluster = std::make_unique<cache::CacheCluster>(MakeClusterConfig(),
                                                    MakeCatalog());
  p.allocator = std::make_unique<OpusAllocator>();
  sim::OpusMasterConfig mcfg;
  mcfg.update_interval = update_interval;
  mcfg.learning_window = 4 * update_interval;
  p.master = std::make_unique<sim::OpusMaster>(p.allocator.get(),
                                               p.cluster.get(), mcfg);
  return p;
}

void ExpectIndistinguishable(const cache::CacheCluster& oracle,
                             const cache::CacheCluster& engine,
                             const std::string& label) {
  EXPECT_EQ(oracle.UsedBytes(), engine.UsedBytes()) << label;
  EXPECT_EQ(oracle.total_evictions(), engine.total_evictions()) << label;
  // The full registry export — every counter, gauge, and histogram (sum
  // order included) — must match byte for byte.
  EXPECT_EQ(oracle.metrics().Snapshot().ToText(),
            engine.metrics().Snapshot().ToText())
      << label;
}

TEST(EngineReplayTest, ManagedMatchesSerialOracleAtEveryThreadCount) {
  const std::vector<workload::AccessEvent> events = MakeEvents(600);
  // Interval 37 leaves realloc boundaries mid-chunk, so the engine must
  // split phases around them.
  Plant oracle = MakeManagedPlant(37);
  ServeOracle(oracle.cluster.get(), oracle.master.get(), events);
  ASSERT_GT(oracle.master->reallocations(), 5u);

  for (const unsigned threads : {1u, 2u, 4u}) {
    Plant plant = MakeManagedPlant(37);
    EngineConfig ecfg;
    ecfg.threads = threads;
    ServingEngine engine(plant.cluster.get(), plant.master.get(), ecfg);
    const ServeStats stats = engine.Serve(events);
    const std::string label = "threads=" + std::to_string(threads);
    EXPECT_EQ(stats.events, events.size()) << label;
    EXPECT_EQ(plant.master->reallocations(), oracle.master->reallocations())
        << label;
    EXPECT_EQ(stats.reallocations, oracle.master->reallocations()) << label;
    ExpectIndistinguishable(*oracle.cluster, *plant.cluster, label);
    // The online fairness audit consumes per-window metric deltas — a
    // byte-identical report means the whole windowed pipeline agreed.
    EXPECT_EQ(plant.master->audit_report().ToJson(),
              oracle.master->audit_report().ToJson())
        << label;
  }
}

TEST(EngineReplayTest, UnmanagedMatchesSerialOracle) {
  // Cache-on-read: probe phases mutate the shards (inserts + evictions)
  // with no lock; per-shard op order is still pinned, so the result must
  // be byte-indistinguishable from the serial oracle at every thread count.
  const std::vector<workload::AccessEvent> events = MakeEvents(500);
  cache::CacheCluster oracle(MakeClusterConfig(), MakeCatalog());
  ServeOracle(&oracle, nullptr, events);
  EXPECT_GT(oracle.total_evictions(), 0u);

  for (const unsigned threads : {1u, 2u, 4u}) {
    cache::CacheCluster cluster(MakeClusterConfig(), MakeCatalog());
    EngineConfig ecfg;
    ecfg.threads = threads;
    ServingEngine engine(&cluster, nullptr, ecfg);
    engine.Serve(events);
    ExpectIndistinguishable(oracle, cluster,
                            "threads=" + std::to_string(threads));
  }
}

TEST(EngineReplayTest, ServeRangeSlicesReplayLikeOneServe) {
  // The daemon's pipelined gen jobs feed one schedule through consecutive
  // ServeRange calls (batch boundaries land mid-chunk and mid-window).
  // Slicing must be invisible: same final state as a single Serve.
  const std::vector<workload::AccessEvent> events = MakeEvents(600);
  for (const unsigned threads : {1u, 2u, 4u}) {
    EngineConfig ecfg;
    ecfg.threads = threads;
    Plant whole = MakeManagedPlant(37);
    {
      ServingEngine engine(whole.cluster.get(), whole.master.get(), ecfg);
      engine.Serve(events);
    }

    Plant sliced = MakeManagedPlant(37);
    ServingEngine engine(sliced.cluster.get(), sliced.master.get(), ecfg);
    std::size_t served = 0;
    // Ragged slice sizes, deliberately misaligned with update_interval=37.
    for (std::size_t pos = 0; pos < events.size();) {
      const std::size_t step = 1 + (pos * 7 + 13) % 96;
      const std::size_t end = std::min(events.size(), pos + step);
      const ServeStats stats = engine.ServeRange(events, pos, end);
      served += stats.events;
      pos = end;
    }
    const std::string label = "sliced threads=" + std::to_string(threads);
    EXPECT_EQ(served, events.size()) << label;
    ExpectIndistinguishable(*whole.cluster, *sliced.cluster, label);
    EXPECT_EQ(sliced.master->audit_report().ToJson(),
              whole.master->audit_report().ToJson())
        << label;
  }
}

// Serves `events` in thirds through `serve`, with worker 1 failed during
// the middle third: the fail/recover control-plane mutations land between
// batches.
template <typename ServeFn>
void ServeAroundWorkerFailure(cache::CacheCluster* cluster,
                              const std::vector<workload::AccessEvent>& events,
                              ServeFn serve) {
  const auto third = static_cast<std::ptrdiff_t>(events.size() / 3);
  const auto at = [&](std::ptrdiff_t k) { return events.begin() + k * third; };
  serve(std::vector<workload::AccessEvent>(at(0), at(1)));
  cluster->FailWorker(1);
  serve(std::vector<workload::AccessEvent>(at(1), at(2)));
  cluster->RecoverWorker(1);
  serve(std::vector<workload::AccessEvent>(at(2), events.end()));
}

TEST(EngineReplayTest, SurvivesWorkerFailureBetweenBatches) {
  // The engine fetches each worker's store every phase, so the replaced
  // store object and the dead-worker miss path must both replay exactly.
  const std::vector<workload::AccessEvent> events = MakeEvents(450);
  Plant oracle = MakeManagedPlant(37);
  ServeAroundWorkerFailure(oracle.cluster.get(), events, [&](const auto& part) {
    ServeOracle(oracle.cluster.get(), oracle.master.get(), part);
  });

  for (const unsigned threads : {1u, 2u, 4u}) {
    Plant plant = MakeManagedPlant(37);
    EngineConfig ecfg;
    ecfg.threads = threads;
    ServingEngine engine(plant.cluster.get(), plant.master.get(), ecfg);
    ServeAroundWorkerFailure(plant.cluster.get(), events,
                             [&](const auto& part) { engine.Serve(part); });
    const std::string label =
        "fail/recover threads=" + std::to_string(threads);
    ExpectIndistinguishable(*oracle.cluster, *plant.cluster, label);
    EXPECT_EQ(plant.master->audit_report().ToJson(),
              oracle.master->audit_report().ToJson())
        << label;
  }
}

TEST(EngineReplayTest, UnmanagedSurvivesWorkerFailureBetweenBatches) {
  // Cache-on-read across a replaced store: the restarted worker comes back
  // empty and refills through lock-free inserts on its fresh store object.
  const std::vector<workload::AccessEvent> events = MakeEvents(450);
  cache::CacheCluster oracle(MakeClusterConfig(), MakeCatalog());
  ServeAroundWorkerFailure(&oracle, events, [&](const auto& part) {
    ServeOracle(&oracle, nullptr, part);
  });
  EXPECT_GT(oracle.total_evictions(), 0u);

  for (const unsigned threads : {1u, 2u, 4u}) {
    cache::CacheCluster cluster(MakeClusterConfig(), MakeCatalog());
    EngineConfig ecfg;
    ecfg.threads = threads;
    ServingEngine engine(&cluster, nullptr, ecfg);
    ServeAroundWorkerFailure(&cluster, events,
                             [&](const auto& part) { engine.Serve(part); });
    ExpectIndistinguishable(
        oracle, cluster,
        "unmanaged fail/recover threads=" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace opus::serve
