// Daemon runtime-telemetry surface — solver counters + audit verdict in
// status, `metrics prom` exposition, flight-recorder dump + anomaly
// triggers, the --stats-out windowed appender, and windowed/diffed metric
// series (volatile included) across live reconfiguration.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "cache/file_meta.h"
#include "obs/latency.h"
#include "obs/metrics.h"
#include "obs/span_trace.h"
#include "serve/daemon.h"

namespace opus::serve {
namespace {

DaemonConfig SmallConfig() {
  DaemonConfig config;
  config.cluster.num_workers = 3;
  config.cluster.num_users = 2;
  config.cluster.cache_capacity_bytes = 12 * cache::kMiB;
  config.master.update_interval = 20;
  config.master.learning_window = 80;
  config.engine.threads = 3;
  return config;
}

cache::Catalog SmallCatalog() {
  cache::Catalog catalog(1 * cache::kMiB);
  for (int f = 0; f < 6; ++f) {
    catalog.Register("f" + std::to_string(f), 3 * cache::kMiB);
  }
  return catalog;
}

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "opus_daemon_telemetry_" + tag + "_" +
         std::to_string(::getpid());
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool IsOk(const std::string& reply) { return reply.rfind("ok", 0) == 0; }

// Extracts the integer after `"key": ` (or `"key":`) in a JSON fragment;
// -1 when absent.
long long JsonInt(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return -1;
  std::size_t i = pos + needle.size();
  while (i < text.size() && text[i] == ' ') ++i;
  long long value = 0;
  bool any = false;
  for (; i < text.size() && text[i] >= '0' && text[i] <= '9'; ++i) {
    value = value * 10 + (text[i] - '0');
    any = true;
  }
  return any ? value : -1;
}

TEST(DaemonTelemetryTest, StatusSurfacesSolverCountersAndAuditVerdict) {
  Daemon daemon(SmallConfig(), SmallCatalog());
  daemon.HandleRequest("gen 100 7");  // crosses 5 reallocation boundaries
  const std::string status = daemon.HandleRequest("status");
  EXPECT_TRUE(IsOk(status)) << status;
  // The OpuS policy solves at every window, so the PR-7 counters must be
  // nonzero and visible without grepping a metrics export.
  EXPECT_NE(status.find("solver_solves="), std::string::npos);
  EXPECT_EQ(status.find("solver_solves=0\n"), std::string::npos) << status;
  EXPECT_NE(status.find("solver_warm_starts="), std::string::npos);
  EXPECT_NE(status.find("solver_delta_windows="), std::string::npos);
  EXPECT_NE(status.find("solver_delta_resolved="), std::string::npos);
  EXPECT_NE(status.find("solver_delta_reused="), std::string::npos);
  EXPECT_NE(status.find("solver_delta_fallbacks="), std::string::npos);
  EXPECT_NE(status.find("audit_windows="), std::string::npos);
  EXPECT_NE(status.find("audit_violations=0"), std::string::npos);
  EXPECT_NE(status.find("audit_clean=1"), std::string::npos);
  EXPECT_NE(status.find("flight_trips=0"), std::string::npos);
}

TEST(DaemonTelemetryTest, EngineRecordsLatencyIntoTheDaemonTelemetry) {
  Daemon daemon(SmallConfig(), SmallCatalog());
  daemon.HandleRequest("gen 200 7");
  // Sampling is 1/16 by event index, so 200 events must record >= 12 reads.
  const obs::LogLinearHistogram* reads =
      daemon.telemetry().Find("serve.read.managed_ns");
  ASSERT_NE(reads, nullptr);
  EXPECT_GE(reads->count(), 12u);
  const obs::LogLinearHistogram* request =
      daemon.telemetry().Find("daemon.request.ns");
  ASSERT_NE(request, nullptr);
  EXPECT_GE(request->count(), 1u);
  // Per-user breakdown exists for this 2-user cluster.
  EXPECT_NE(daemon.telemetry().Find("serve.user.0.read_ns"), nullptr);
  EXPECT_NE(daemon.telemetry().Find("serve.user.1.read_ns"), nullptr);
  // And none of it leaks into the deterministic registry: two daemons
  // serving the same commands at different wall speeds export identically
  // (covered in daemon_test.cc); here: no serve.read metric exists there.
  const obs::MetricsSnapshot snap =
      daemon.cluster().metrics().Snapshot(/*include_volatile=*/true);
  for (const obs::HistogramSample& h : snap.histograms) {
    EXPECT_EQ(h.name.find("serve.read"), std::string::npos) << h.name;
  }
}

TEST(DaemonTelemetryTest, MetricsPromExposesVolatileAndSummaries) {
  Daemon daemon(SmallConfig(), SmallCatalog());
  daemon.HandleRequest("gen 100 7");
  const std::string reply = daemon.HandleRequest("metrics prom");
  ASSERT_TRUE(IsOk(reply)) << reply;
  // Deterministic counters, volatile wall-time histogram, and runtime
  // latency summaries all appear in one scrape.
  EXPECT_NE(reply.find("# TYPE opus_master_reallocations counter"),
            std::string::npos);
  EXPECT_NE(reply.find("opus_master_solve_wall_sec_count"),
            std::string::npos);
  EXPECT_NE(reply.find("# TYPE opus_serve_read_managed_ns summary"),
            std::string::npos);
  EXPECT_NE(reply.find("opus_serve_read_managed_ns{quantile=\"0.99\"}"),
            std::string::npos);
  // But the deterministic exports stay volatile-free.
  const std::string text = daemon.HandleRequest("metrics text");
  EXPECT_EQ(text.find("master.solve.wall_sec"), std::string::npos);
}

TEST(DaemonTelemetryTest, DumpWritesALoadablePerfettoTrace) {
  Daemon daemon(SmallConfig(), SmallCatalog());
  daemon.HandleRequest("gen 100 7");
  const std::string path = TempPath("dump") + ".json";
  const std::string reply = daemon.HandleRequest("dump " + path);
  ASSERT_TRUE(IsOk(reply)) << reply;
  EXPECT_NE(reply.find("dumped=" + path), std::string::npos);
  const auto spans = obs::ParseSpansPerfettoJson(ReadAll(path));
  ASSERT_TRUE(spans.has_value());
  bool saw_request = false, saw_drain = false, saw_latency = false;
  for (const obs::SpanRecord& s : *spans) {
    if (s.name == "daemon.request") saw_request = true;
    if (s.name == "serve.drain") saw_drain = true;
    if (s.name.rfind("flight.latency.", 0) == 0) saw_latency = true;
  }
  EXPECT_TRUE(saw_request);
  EXPECT_TRUE(saw_drain);
  EXPECT_TRUE(saw_latency);
  EXPECT_TRUE(IsOk(daemon.HandleRequest("dump " + path)));  // overwrite ok
  std::remove(path.c_str());
}

TEST(DaemonTelemetryTest, TinyP99ThresholdTripsOneAutomaticDump) {
  DaemonConfig config = SmallConfig();
  config.flight_path = TempPath("trip") + ".json";
  config.p99_threshold_ms = 1e-6;  // 1ns: any sampled read trips it
  Daemon daemon(config, SmallCatalog());
  EXPECT_EQ(daemon.flight_trips(), 0u);
  daemon.HandleRequest("gen 100 7");
  EXPECT_EQ(daemon.flight_trips(), 1u);
  const auto spans = obs::ParseSpansPerfettoJson(ReadAll(config.flight_path));
  ASSERT_TRUE(spans.has_value());
  bool saw_anomaly = false;
  for (const obs::SpanRecord& s : *spans) {
    if (s.name != "daemon.anomaly") continue;
    saw_anomaly = true;
    for (const auto& [k, v] : s.attrs) {
      if (k == "reason") {
        EXPECT_EQ(v, "p99_threshold");
      }
    }
  }
  EXPECT_TRUE(saw_anomaly);
  // The p99 gate trips once, not on every subsequent slow request.
  daemon.HandleRequest("gen 50 9");
  EXPECT_EQ(daemon.flight_trips(), 1u);
  std::remove(config.flight_path.c_str());
}

TEST(DaemonTelemetryTest, PinFailureTripsFollowTheWorkerCounters) {
  // The anomaly check reads the control plane's running pin-failure total
  // instead of summing the per-worker counters out of a registry snapshot.
  // Replay that snapshot rule here as the oracle: a request trips a dump
  // when it grew the audit violations or the summed counters.
  DaemonConfig config = SmallConfig();
  config.flight_path = TempPath("pins") + ".json";
  Daemon daemon(config, SmallCatalog());
  const auto counter_sum = [&daemon] {
    std::uint64_t sum = 0;
    for (const obs::CounterSample& c :
         daemon.cluster().metrics().Snapshot().counters) {
      if (c.name.ends_with(".pin_failures")) sum += c.value;
    }
    return sum;
  };
  std::uint64_t expected_trips = 0, last_pins = 0, last_audit = 0;
  // Six files' worth of capacity overloads the 12 MiB cache (18 blocks).
  for (const char* request :
       {"gen 200 1", "reconfig capacity 6", "gen 200 2", "gen 300 3",
        "reconfig capacity 0", "gen 200 4", "reconfig capacity 6",
        "gen 300 5", "status"}) {
    EXPECT_TRUE(IsOk(daemon.HandleRequest(request))) << request;
    const std::uint64_t pins = counter_sum();
    const std::uint64_t audit =
        daemon.master().audit_report().total_violations;
    if (pins > last_pins || audit > last_audit) ++expected_trips;
    last_pins = pins;
    last_audit = audit;
    EXPECT_EQ(daemon.cluster().control_plane_stats().pin_failures, pins)
        << request;
    EXPECT_EQ(daemon.flight_trips(), expected_trips) << request;
  }
  EXPECT_GT(last_pins, 0u);
  EXPECT_GT(expected_trips, 0u);
  std::remove(config.flight_path.c_str());
}

TEST(DaemonTelemetryTest, DisarmedP99ThresholdNeverTrips) {
  Daemon daemon(SmallConfig(), SmallCatalog());  // p99_threshold_ms = 0
  daemon.HandleRequest("gen 100 7");
  EXPECT_EQ(daemon.flight_trips(), 0u);
}

TEST(DaemonTelemetryTest, StatsTickAppendsWindowedJsonLines) {
  DaemonConfig config = SmallConfig();
  config.stats_path = TempPath("stats") + ".jsonl";
  config.stats_interval_ms = 0;  // every tick emits
  Daemon daemon(config, SmallCatalog());
  daemon.HandleRequest("gen 100 7");
  daemon.StatsTick();
  daemon.HandleRequest("gen 40 9");
  daemon.StatsTick();
  std::ifstream in(config.stats_path);
  std::string line0, line1, extra;
  ASSERT_TRUE(std::getline(in, line0));
  ASSERT_TRUE(std::getline(in, line1));
  EXPECT_FALSE(std::getline(in, extra));
  EXPECT_NE(line0.find("\"seq\":0"), std::string::npos);
  EXPECT_NE(line0.find("\"events_served\":100"), std::string::npos);
  EXPECT_NE(line0.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(line0.find("\"latency\":[{"), std::string::npos);
  EXPECT_NE(line1.find("\"seq\":1"), std::string::npos);
  EXPECT_NE(line1.find("\"events_served\":140"), std::string::npos);
  // Windowed delta, not cumulative: the second window saw exactly the 40
  // reads of the second gen, split across the two users.
  const long long u0 = JsonInt(line1, "cluster.user.0.reads");
  const long long u1 = JsonInt(line1, "cluster.user.1.reads");
  ASSERT_GE(u0, 0) << line1;
  ASSERT_GE(u1, 0) << line1;
  EXPECT_EQ(u0 + u1, 40);
  std::remove(config.stats_path.c_str());
}

TEST(DaemonTelemetryTest, WindowedSnapshotsAcrossLiveReconfig) {
  // The time-series story must survive a mid-series policy swap and
  // capacity change: windows keep diffing cleanly (monotone counters never
  // go negative — DiffSnapshots clamps, and a clamp would show up as a
  // zero delta for cluster.reads here).
  Daemon daemon(SmallConfig(), SmallCatalog());
  obs::WindowedSnapshots series(8);
  daemon.HandleRequest("gen 60 3");
  series.Capture(daemon.cluster().metrics(), 0);
  ASSERT_TRUE(IsOk(daemon.HandleRequest("reconfig policy fairride")));
  daemon.HandleRequest("gen 40 5");
  series.Capture(daemon.cluster().metrics(), 1);
  ASSERT_TRUE(IsOk(daemon.HandleRequest("reconfig capacity 2.5")));
  daemon.HandleRequest("gen 40 9");
  series.Capture(daemon.cluster().metrics(), 2);
  ASSERT_EQ(series.windows().size(), 3u);
  std::vector<std::uint64_t> read_deltas;
  for (const obs::MetricWindow& w : series.windows()) {
    std::uint64_t reads = 0;
    for (const obs::CounterSample& c : w.delta.counters) {
      if (c.name == "cluster.user.0.reads" ||
          c.name == "cluster.user.1.reads") {
        reads += c.value;
      }
    }
    read_deltas.push_back(reads);
  }
  ASSERT_EQ(read_deltas.size(), 3u);
  EXPECT_EQ(read_deltas[0], 60u);
  EXPECT_EQ(read_deltas[1], 40u);
  EXPECT_EQ(read_deltas[2], 40u);
}

TEST(DaemonTelemetryTest, DiffSnapshotsWithVolatileMetrics) {
  // Volatile metrics (solve wall time) participate in diffs when asked:
  // the per-window observation count equals the reallocations fired in
  // that window, even though the values themselves are nondeterministic.
  Daemon daemon(SmallConfig(), SmallCatalog());
  daemon.HandleRequest("gen 60 3");
  const obs::MetricsSnapshot before =
      daemon.cluster().metrics().Snapshot(/*include_volatile=*/true);
  const std::size_t reallocs_before = daemon.master().reallocations();
  daemon.HandleRequest("gen 60 5");
  const obs::MetricsSnapshot after =
      daemon.cluster().metrics().Snapshot(/*include_volatile=*/true);
  const std::size_t fired = daemon.master().reallocations() - reallocs_before;
  ASSERT_GT(fired, 0u);
  const obs::MetricsSnapshot delta = obs::DiffSnapshots(before, after);
  bool saw_wall = false;
  for (const obs::HistogramSample& h : delta.histograms) {
    if (h.name == "master.solve.wall_sec") {
      saw_wall = true;
      EXPECT_EQ(h.count, fired);
      EXPECT_GE(h.sum, 0.0);
    }
  }
  EXPECT_TRUE(saw_wall);
  // And the default (deterministic) snapshot still excludes it.
  const obs::MetricsSnapshot det = daemon.cluster().metrics().Snapshot();
  for (const obs::HistogramSample& h : det.histograms) {
    EXPECT_NE(h.name, "master.solve.wall_sec");
  }
}

}  // namespace
}  // namespace opus::serve
