// Serving throughput bench: access events/sec through the sharded
// concurrent serving engine (src/serve) across managed/unmanaged x
// probe-thread-count cells on an 8-worker cluster, against the serial
// oracle loop (master.OnAccess + cluster.Read per event).
//
// Self-check (exit non-zero on any divergence, so CI can gate on it): for
// every cell the engine's final cluster state, metric export, and
// fairness-audit report must be byte-identical to the serial oracle's —
// the replay-equivalence contract of serve/engine.h. The speedup column
// is informational: on single-CPU hosts the probe threads serialize and
// the honest ratio is <= 1; the gate is equivalence, not the ratio.
//
// Each cell also reruns with a live RuntimeTelemetry sink attached (the
// daemon's always-on configuration) and reports the throughput delta —
// the telemetry run is held to the same byte-identity gate, plus a check
// that sampling actually recorded latencies.
//
// Emits machine-readable JSON (default BENCH_serving.json) with
// median/p90 events/sec per cell. `--smoke` shrinks the workload for CI.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cache/cluster.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/opus.h"
#include "obs/latency.h"
#include "serve/engine.h"
#include "sim/opus_master.h"
#include "workload/preference_gen.h"
#include "workload/trace.h"

namespace opus::bench {
namespace {

constexpr std::uint32_t kWorkers = 8;
constexpr std::uint32_t kUsers = 6;
constexpr std::size_t kFiles = 32;
constexpr std::size_t kUpdateInterval = 250;

double Percentile(std::vector<double> v, double q) {
  OPUS_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

cache::Catalog MakeCatalog() {
  cache::Catalog catalog(1 * cache::kMiB);
  for (std::size_t f = 0; f < kFiles; ++f) {
    catalog.Register("f" + std::to_string(f),
                     (2 + (f % 5)) * cache::kMiB);
  }
  return catalog;
}

cache::ClusterConfig MakeClusterConfig() {
  cache::ClusterConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.num_users = kUsers;
  cfg.cache_capacity_bytes = 48 * cache::kMiB;
  cfg.span_sample_every = 0;  // engine contract (serve/engine.h)
  return cfg;
}

std::vector<workload::AccessEvent> MakeEvents(std::size_t n) {
  workload::ZipfPreferenceConfig pcfg;
  pcfg.num_users = kUsers;
  pcfg.num_files = kFiles;
  pcfg.alpha = 1.05;
  Rng prefs_rng(11);
  const Matrix prefs = workload::GenerateZipfPreferences(pcfg, prefs_rng);
  Rng trace_rng(23);
  return workload::GenerateTrace(workload::TruthfulSpecs(prefs), n,
                                 trace_rng)
      .events;
}

struct Plant {
  std::unique_ptr<cache::CacheCluster> cluster;
  std::unique_ptr<OpusAllocator> allocator;
  std::unique_ptr<sim::OpusMaster> master;  // null in unmanaged mode
};

Plant MakePlant(bool managed) {
  Plant p;
  p.cluster = std::make_unique<cache::CacheCluster>(MakeClusterConfig(),
                                                    MakeCatalog());
  if (managed) {
    p.allocator = std::make_unique<OpusAllocator>();
    sim::OpusMasterConfig mcfg;
    mcfg.update_interval = kUpdateInterval;
    mcfg.learning_window = 4 * kUpdateInterval;
    p.master = std::make_unique<sim::OpusMaster>(p.allocator.get(),
                                                 p.cluster.get(), mcfg);
  }
  return p;
}

// Everything the replay-equivalence contract promises to preserve.
struct Observables {
  std::uint64_t used_bytes = 0;
  std::uint64_t evictions = 0;
  std::size_t reallocations = 0;
  std::string metrics_text;
  std::string audit_json;
};

Observables Capture(const Plant& p) {
  Observables obs;
  obs.used_bytes = p.cluster->UsedBytes();
  obs.evictions = p.cluster->total_evictions();
  obs.metrics_text = p.cluster->metrics().Snapshot().ToText();
  if (p.master != nullptr) {
    obs.reallocations = p.master->reallocations();
    obs.audit_json = p.master->audit_report().ToJson();
  }
  return obs;
}

struct Timed {
  Observables obs;  // from the final rep (identical across reps)
  double median_eps = 0.0;
  double p90_eps = 0.0;
};

Timed RunOracle(bool managed,
                const std::vector<workload::AccessEvent>& events,
                int reps) {
  Timed t;
  std::vector<double> eps;
  for (int rep = 0; rep < reps; ++rep) {
    Plant p = MakePlant(managed);
    const auto start = std::chrono::steady_clock::now();
    for (const workload::AccessEvent& e : events) {
      if (p.master != nullptr) p.master->OnAccess(e);
      p.cluster->Read(e.user, e.file);
    }
    const auto end = std::chrono::steady_clock::now();
    const double sec = std::chrono::duration<double>(end - start).count();
    eps.push_back(static_cast<double>(events.size()) /
                  std::max(sec, 1e-12));
    if (rep + 1 == reps) t.obs = Capture(p);
  }
  t.median_eps = Percentile(eps, 0.5);
  t.p90_eps = Percentile(eps, 0.9);
  return t;
}

// `with_telemetry` runs the same cell with a live RuntimeTelemetry sink
// attached (the daemon's always-on configuration); `samples_out` receives
// the number of sampled read latencies so the bench can assert telemetry
// actually recorded. The replay-equivalence gate applies to telemetry
// cells too: wall-clock telemetry must not perturb deterministic state.
Timed RunEngine(bool managed, unsigned threads,
                const std::vector<workload::AccessEvent>& events, int reps,
                bool with_telemetry, std::uint64_t* samples_out) {
  Timed t;
  std::vector<double> eps;
  for (int rep = 0; rep < reps; ++rep) {
    Plant p = MakePlant(managed);
    obs::RuntimeTelemetry telemetry;
    serve::EngineConfig ecfg;
    ecfg.threads = threads;
    if (with_telemetry) ecfg.telemetry = &telemetry;
    serve::ServingEngine engine(p.cluster.get(), p.master.get(), ecfg);
    const auto start = std::chrono::steady_clock::now();
    const serve::ServeStats stats = engine.Serve(events);
    const auto end = std::chrono::steady_clock::now();
    OPUS_CHECK_EQ(stats.events, events.size());
    const double sec = std::chrono::duration<double>(end - start).count();
    eps.push_back(static_cast<double>(events.size()) /
                  std::max(sec, 1e-12));
    if (rep + 1 == reps) {
      t.obs = Capture(p);
      if (with_telemetry && samples_out != nullptr) {
        *samples_out = 0;
        for (const char* name :
             {"serve.read.managed_ns", "serve.read.unmanaged_ns"}) {
          const obs::LogLinearHistogram* h = telemetry.Find(name);
          if (h != nullptr) *samples_out += h->count();
        }
      }
    }
  }
  t.median_eps = Percentile(eps, 0.5);
  t.p90_eps = Percentile(eps, 0.9);
  return t;
}

struct CellChecks {
  bool metrics = false;
  bool evictions = false;
  bool used_bytes = false;
  bool reallocations = false;
  bool audit = false;
  bool ok() const {
    return metrics && evictions && used_bytes && reallocations && audit;
  }
};

CellChecks Compare(const Observables& oracle, const Observables& engine) {
  CellChecks c;
  c.metrics = oracle.metrics_text == engine.metrics_text;
  c.evictions = oracle.evictions == engine.evictions;
  c.used_bytes = oracle.used_bytes == engine.used_bytes;
  c.reallocations = oracle.reallocations == engine.reallocations;
  c.audit = oracle.audit_json == engine.audit_json;
  return c;
}

int Run(bool smoke, const std::string& out_path, int reps) {
  const std::size_t n = smoke ? 2000 : 20000;
  const std::vector<workload::AccessEvent> events = MakeEvents(n);
  const std::vector<unsigned> thread_cells = {1, 2, 4, 8};

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"serving_throughput\",\n");
  std::fprintf(out,
               "  \"smoke\": %s,\n  \"reps\": %d,\n  \"events\": %zu,\n"
               "  \"workers\": %u,\n  \"users\": %u,\n"
               "  \"update_interval\": %zu,\n"
               "  \"note\": \"gate is replay equivalence; speedup is "
               "informational and <= 1 on single-CPU hosts\",\n"
               "  \"modes\": [\n",
               smoke ? "true" : "false", reps, n, kWorkers, kUsers,
               kUpdateInterval);

  bool all_ok = true;
  for (const bool managed : {true, false}) {
    const Timed oracle = RunOracle(managed, events, reps);
    std::fprintf(out,
                 "    {\"managed\": %s,\n"
                 "     \"serial_oracle\": {\"median_events_per_sec\": %.0f, "
                 "\"p90_events_per_sec\": %.0f},\n"
                 "     \"cells\": [\n",
                 managed ? "true" : "false", oracle.median_eps,
                 oracle.p90_eps);
    for (std::size_t i = 0; i < thread_cells.size(); ++i) {
      const unsigned threads = thread_cells[i];
      const Timed engine =
          RunEngine(managed, threads, events, reps, false, nullptr);
      std::uint64_t samples = 0;
      const Timed tele =
          RunEngine(managed, threads, events, reps, true, &samples);
      const CellChecks checks = Compare(oracle.obs, engine.obs);
      const CellChecks tele_checks = Compare(oracle.obs, tele.obs);
      // Telemetry must record (sampling 1/16 of the events) and must not
      // perturb any deterministic observable; its throughput cost is
      // informational (target <2%, but shared CI hosts are noisy).
      all_ok = all_ok && checks.ok() && tele_checks.ok() && samples > 0;
      const double speedup = oracle.median_eps > 0.0
                                 ? engine.median_eps / oracle.median_eps
                                 : 0.0;
      const double overhead_pct =
          engine.median_eps > 0.0
              ? (1.0 - tele.median_eps / engine.median_eps) * 100.0
              : 0.0;
      std::fprintf(
          out,
          "      {\"threads\": %u, \"median_events_per_sec\": %.0f, "
          "\"p90_events_per_sec\": %.0f, \"speedup_vs_serial\": %.2f,\n"
          "       \"telemetry\": {\"median_events_per_sec\": %.0f, "
          "\"overhead_pct\": %.2f, \"samples\": %llu, \"replay_match\": "
          "%s},\n",
          threads, engine.median_eps, engine.p90_eps, speedup,
          tele.median_eps, overhead_pct,
          static_cast<unsigned long long>(samples),
          tele_checks.ok() && samples > 0 ? "true" : "false");
      std::fprintf(
          out,
          "       \"checks\": {\"metrics\": %s, \"evictions\": %s, "
          "\"used_bytes\": %s, \"reallocations\": %s, \"audit\": %s}}%s\n",
          checks.metrics ? "true" : "false",
          checks.evictions ? "true" : "false",
          checks.used_bytes ? "true" : "false",
          checks.reallocations ? "true" : "false",
          checks.audit ? "true" : "false",
          i + 1 < thread_cells.size() ? "," : "");
      std::fprintf(stderr,
                   "%s threads=%u: %.2f Mev/s (oracle %.2f, %.2fx), "
                   "telemetry %.2f Mev/s (%+.1f%%), replay=%s\n",
                   managed ? "managed" : "unmanaged", threads,
                   engine.median_eps / 1e6, oracle.median_eps / 1e6,
                   speedup, tele.median_eps / 1e6, overhead_pct,
                   checks.ok() && tele_checks.ok() ? "ok" : "FAIL");
    }
    std::fprintf(out, "     ]}%s\n", managed ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"all_match\": %s\n}\n",
               all_ok ? "true" : "false");
  std::fclose(out);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  if (!all_ok) {
    std::fprintf(stderr,
                 "FAIL: engine diverged from the serial replay oracle\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace opus::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_serving.json";
  std::uint64_t reps = 3;
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
      if (!opus::ParseU64(v, &reps) || reps == 0) {
        std::fprintf(stderr, "bad --reps value: %s\n", v);
        return 2;
      }
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out=PATH] [--reps=N]\n",
                   argv[0]);
      return 2;
    }
  }
  return opus::bench::Run(smoke, out_path, static_cast<int>(reps));
}
