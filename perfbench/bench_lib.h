// Arithmetic of the end-to-end benchmark, kept apart from sockets and the
// daemon so bench_lib_test.cc can pin it down: exact quantiles, open-loop
// schedule and lag accounting, Prometheus-scrape lookups, reply parsing,
// and the layer reconciliation (unattributed_pct).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Nearest-rank q-quantile (q in [0, 1]) of unsorted samples; 0 when empty.
// Exact, unlike the daemon's bucketed histograms, so repeated runs never
// read the same quantised value.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

// Open-loop schedule: request k is due at start_ns + k * period_ns,
// whatever happened to earlier requests.
struct OpenLoopSchedule {
  std::uint64_t start_ns = 0;
  double period_ns = 0.0;

  static OpenLoopSchedule AtRate(std::uint64_t start_ns, double per_sec);
  std::uint64_t Due(std::size_t k) const;
};

// What happened to each scheduled request (index = request number). A
// request never sent or never answered keeps sent/recv at 0.
struct OpenLoopLog {
  std::vector<std::uint64_t> due_ns;
  std::vector<std::uint64_t> sent_ns;
  std::vector<std::uint64_t> recv_ns;
  std::vector<char> failed;  // err reply, timeout or never answered

  void Resize(std::size_t n);
};

struct OpenLoopStats {
  std::size_t scheduled = 0;
  std::size_t answered = 0;  // replied without error
  std::size_t failed = 0;
  double p50_us = 0.0;   // latency from due time, answered requests
  double p99_us = 0.0;
  double p999_us = 0.0;
  double mean_rtt_us = 0.0;  // from send time: no generator lag, no queue wait
  double p50_rtt_us = 0.0;
  // Share of scheduled requests over the SLO or failed (failures count as
  // misses), in percent.
  double slo_miss_pct = 0.0;
  // How late the generator sent: p99 of sent - due, in ms.
  double gen_late_p99_ms = 0.0;
  // Requests due by the end of the phase still unanswered at that moment.
  std::size_t backlog_at_end = 0;
};

OpenLoopStats SummarizeOpenLoop(const OpenLoopLog& log, std::uint64_t slo_ns,
                                std::uint64_t phase_end_ns);

// The generator fell behind its schedule: its send lag p99 exceeds
// limit_ns. Such a run is invalid.
bool GeneratorBehind(const OpenLoopStats& stats, std::uint64_t limit_ns);

// One Prometheus summary (a daemon RuntimeTelemetry histogram) read back
// from a `metrics prom` scrape parsed by serve::ParseNumericSamples.
struct ScrapedSummary {
  bool found = false;
  double p50 = 0.0, p99 = 0.0;
  double sum = 0.0, count = 0.0;
  double Mean() const { return count > 0.0 ? sum / count : 0.0; }
};

// `metric` is the daemon-side name ("daemon.request.ns"); the Prometheus
// family name is derived with obs::PrometheusName.
ScrapedSummary ScrapeSummary(const std::map<std::string, double>& samples,
                             const std::string& metric);

// Sum of every sample whose key starts with `prefix` and ends with `suffix`
// (e.g. all opus_cluster_worker_*_pin_failures).
double SumMatching(const std::map<std::string, double>& samples,
                   std::string_view prefix, std::string_view suffix);

// Reads the mem_bytes= / disk_bytes= fields of a `serve` or `gen` reply.
// False when the reply is an error or lacks either field.
bool ParseReplyBytes(std::string_view reply, std::uint64_t* mem,
                     std::uint64_t* disk);

// Layer reconciliation: 100 * (1 - sum(layer self-time means) / e2e mean).
// 0 means the layers account for the whole end-to-end time; a large
// positive value names a missing layer (or queueing between layers); a
// negative value means the layers were timed slower in isolation.
double UnattributedPct(double e2e_mean, const std::vector<double>& layers);

// 64-bit FNV-1a, used to compare long reply streams without keeping them.
std::uint64_t Fnv1a(std::string_view s);

}  // namespace perfbench
