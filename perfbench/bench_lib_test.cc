// Tests of the benchmark's own arithmetic: open-loop schedule and lag
// accounting, Prometheus-scrape parsing, and the layer reconciliation.
#include "bench_lib.h"

#include <gtest/gtest.h>

#include "obs/latency.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "serve/watch.h"
#include "workload.h"

namespace perfbench {
namespace {

TEST(Quantile, NearestRankOnUnsortedSamples) {
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_EQ(Quantile({5.0, 1.0, 3.0, 2.0, 4.0}, 0.5), 3.0);
  EXPECT_EQ(Quantile({5.0, 1.0, 3.0, 2.0, 4.0}, 0.0), 1.0);
  EXPECT_EQ(Quantile({5.0, 1.0, 3.0, 2.0, 4.0}, 1.0), 5.0);
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(Quantile(v, 0.999), 999.0);
  EXPECT_EQ(Quantile(v, 0.99), 990.0);
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 6.0}), 3.0);
}

TEST(OpenLoopSchedule, DueTimesFollowTheRateNotTheReplies) {
  const OpenLoopSchedule s = OpenLoopSchedule::AtRate(1000, 4000.0);
  EXPECT_EQ(s.Due(0), 1000u);
  EXPECT_EQ(s.Due(1), 1000u + 250000u);
  EXPECT_EQ(s.Due(4), 1000u + 1000000u);
  // A non-integer period accumulates without drift.
  const OpenLoopSchedule t = OpenLoopSchedule::AtRate(0, 3000.0);
  EXPECT_EQ(t.Due(3000), 1000000000u);
}

// Three requests 1 ms apart. The second hits a 5 ms stall: timed from its
// due time it misses the SLO even though its own round trip is short, and
// the stall also delays the third request's send.
OpenLoopLog StalledLog() {
  OpenLoopLog log;
  log.Resize(3);
  const std::uint64_t ms = 1000000;
  log.due_ns = {0, 1 * ms, 2 * ms};
  log.sent_ns = {10000, 1 * ms + 20000, 6 * ms};
  log.recv_ns = {110000, 6 * ms + 20000, 6 * ms + 100000};
  return log;
}

TEST(OpenLoopStats, LatencyIsTimedFromTheDueTime) {
  const OpenLoopLog log = StalledLog();
  const OpenLoopStats st = SummarizeOpenLoop(log, /*slo_ns=*/1000000,
                                             /*phase_end_ns=*/2000000);
  EXPECT_EQ(st.scheduled, 3u);
  EXPECT_EQ(st.answered, 3u);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_DOUBLE_EQ(st.p50_us, 4100.0);  // third: 6.1 ms - 2 ms
  EXPECT_DOUBLE_EQ(st.p999_us, 5020.0);
  // Two of three over 1 ms from their due times.
  EXPECT_NEAR(st.slo_miss_pct, 200.0 / 3.0, 1e-9);
  // Round trips from send: 100 us, 5000 us, 100 us.
  EXPECT_DOUBLE_EQ(st.p50_rtt_us, 100.0);
  EXPECT_NEAR(st.mean_rtt_us, 5200.0 / 3.0, 1e-9);
  // Send lag: 0.01, 0.02, 4 ms.
  EXPECT_DOUBLE_EQ(st.gen_late_p99_ms, 4.0);
  EXPECT_TRUE(GeneratorBehind(st, 1000000));
  // At the end of the phase (2 ms) the second and third were outstanding.
  EXPECT_EQ(st.backlog_at_end, 2u);
}

TEST(OpenLoopStats, FailuresCountAsMissesAndBacklog) {
  OpenLoopLog log = StalledLog();
  log.failed[0] = 1;
  log.recv_ns[2] = 0;  // never answered
  const OpenLoopStats st = SummarizeOpenLoop(log, 1000000, 7000000);
  EXPECT_EQ(st.answered, 1u);
  EXPECT_EQ(st.failed, 2u);
  EXPECT_DOUBLE_EQ(st.slo_miss_pct, 100.0);
  EXPECT_EQ(st.backlog_at_end, 1u);  // the unanswered one
}

TEST(OpenLoopStats, OnTimeGeneratorIsValid) {
  OpenLoopLog log;
  log.Resize(100);
  for (std::size_t k = 0; k < 100; ++k) {
    log.due_ns[k] = k * 1000;
    log.sent_ns[k] = k * 1000 + 50;
    log.recv_ns[k] = k * 1000 + 500;
  }
  // Evaluated one SLO after the last due time, as the benchmark does.
  const OpenLoopStats st = SummarizeOpenLoop(log, 1000000, 99000 + 1000000);
  EXPECT_FALSE(GeneratorBehind(st, 1000000));
  EXPECT_EQ(st.backlog_at_end, 0u);
  EXPECT_DOUBLE_EQ(st.p50_us, 0.5);
  EXPECT_DOUBLE_EQ(st.slo_miss_pct, 0.0);
}

// A daemon scrape rendered by the real exporter and parsed back through
// serve::ParseNumericSamples gives the histogram's own quantiles.
TEST(Scrape, SummaryRoundTripsThroughTheExporter) {
  opus::obs::RuntimeTelemetry telemetry;
  opus::obs::LogLinearHistogram& h = telemetry.histogram("daemon.request.ns");
  for (std::uint64_t v = 1; v <= 10000; ++v) h.Record(v * 10);
  opus::obs::MetricsRegistry registry;
  registry.counter("cluster.worker.0.pin_failures").Increment(3);
  registry.counter("cluster.worker.1.pin_failures").Increment(4);
  registry.counter("cluster.worker.1.evictions").Increment(9);
  opus::obs::Histogram& lat =
      registry.histogram("cluster.read.latency_sec", {0.01, 0.1});
  lat.Observe(0.002);
  lat.Observe(0.004);
  const std::string text = opus::obs::MetricsToPrometheus(
      registry.Snapshot(true), telemetry.Snapshot());
  const auto samples = opus::serve::ParseNumericSamples(text);

  const ScrapedSummary s = ScrapeSummary(samples, "daemon.request.ns");
  ASSERT_TRUE(s.found);
  EXPECT_EQ(s.p50, static_cast<double>(h.ValueAtQuantile(0.5)));
  EXPECT_EQ(s.p99, static_cast<double>(h.ValueAtQuantile(0.99)));
  EXPECT_EQ(s.count, 10000.0);
  EXPECT_DOUBLE_EQ(s.Mean(), static_cast<double>(h.sum()) / 10000.0);
  EXPECT_FALSE(ScrapeSummary(samples, "no.such.metric").found);

  EXPECT_DOUBLE_EQ(ScrapeSummary(samples, "cluster.read.latency_sec").Mean(),
                   0.003);
  EXPECT_EQ(SumMatching(samples, "opus_cluster_worker_", "_pin_failures"),
            7.0);
  EXPECT_EQ(SumMatching(samples, "opus_cluster_worker_", "_evictions"), 9.0);
}

TEST(Replies, ReadsServeAndGenByteCounts) {
  std::uint64_t mem = 0, disk = 0;
  EXPECT_TRUE(ParseReplyBytes(
      "ok mem_bytes=10 disk_bytes=20 effective_hit=0.5 reallocations=0",
      &mem, &disk));
  EXPECT_EQ(mem, 10u);
  EXPECT_EQ(disk, 20u);
  EXPECT_TRUE(ParseReplyBytes(
      "ok events=5 mem_bytes=7 disk_bytes=0 reallocations=1", &mem, &disk));
  EXPECT_EQ(mem, 7u);
  EXPECT_EQ(disk, 0u);
  EXPECT_FALSE(ParseReplyBytes("err user 3 is dropped", &mem, &disk));
  EXPECT_FALSE(ParseReplyBytes("ok mem_bytes=1", &mem, &disk));
}

TEST(Reconciliation, UnattributedShareOfTheEndToEndMean) {
  EXPECT_DOUBLE_EQ(UnattributedPct(100.0, {40.0, 30.0, 20.0}), 10.0);
  EXPECT_NEAR(UnattributedPct(100.0, {60.0, 50.0}), -10.0, 1e-9);
  EXPECT_DOUBLE_EQ(UnattributedPct(50.0, {}), 100.0);
  EXPECT_DOUBLE_EQ(UnattributedPct(0.0, {1.0}), 0.0);
}

TEST(Workloads, SeedFixesTheInputs) {
  const WorkloadSpec* spec = FindWorkload("serve-tenants");
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(FindWorkload("nope"), nullptr);
  RequestStream a(*spec, 7), b(*spec, 7), c(*spec, 8);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const std::string x = a.Next();
    EXPECT_EQ(x, b.Next());
    differs |= x != c.Next();
  }
  EXPECT_TRUE(differs);
  const opus::cache::Catalog cat = MakeCatalog(*spec, 7);
  EXPECT_EQ(cat.size(), spec->files);
  EXPECT_EQ(cat.TotalBytes(), MakeCatalog(*spec, 7).TotalBytes());
  const PhasePlan plan = PlanPhases(*spec, 10.0);
  EXPECT_EQ(plan.open_requests, 15000u);  // 3000/s for half of 10 s
}

}  // namespace
}  // namespace perfbench
