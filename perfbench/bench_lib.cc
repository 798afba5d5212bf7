#include "bench_lib.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "obs/prometheus.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  const std::size_t n = values.size();
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

OpenLoopSchedule OpenLoopSchedule::AtRate(std::uint64_t start_ns,
                                          double per_sec) {
  return OpenLoopSchedule{start_ns, 1e9 / per_sec};
}

std::uint64_t OpenLoopSchedule::Due(std::size_t k) const {
  return start_ns + static_cast<std::uint64_t>(
                        std::llround(period_ns * static_cast<double>(k)));
}

void OpenLoopLog::Resize(std::size_t n) {
  due_ns.assign(n, 0);
  sent_ns.assign(n, 0);
  recv_ns.assign(n, 0);
  failed.assign(n, 0);
}

OpenLoopStats SummarizeOpenLoop(const OpenLoopLog& log, std::uint64_t slo_ns,
                                std::uint64_t phase_end_ns) {
  OpenLoopStats st;
  st.scheduled = log.due_ns.size();
  std::vector<double> lat_us, rtt_us, late_ms;
  lat_us.reserve(st.scheduled);
  rtt_us.reserve(st.scheduled);
  late_ms.reserve(st.scheduled);
  std::size_t misses = 0;
  for (std::size_t k = 0; k < st.scheduled; ++k) {
    const std::uint64_t due = log.due_ns[k];
    const std::uint64_t sent = log.sent_ns[k];
    const std::uint64_t recv = log.recv_ns[k];
    if (sent != 0) {
      late_ms.push_back(sent > due ? static_cast<double>(sent - due) / 1e6
                                   : 0.0);
    }
    if (due <= phase_end_ns && (recv == 0 || recv > phase_end_ns)) {
      ++st.backlog_at_end;
    }
    if (log.failed[k] != 0 || sent == 0 || recv == 0) {
      ++st.failed;
      ++misses;
      continue;
    }
    ++st.answered;
    const std::uint64_t lat = recv > due ? recv - due : 0;
    if (lat > slo_ns) ++misses;
    lat_us.push_back(static_cast<double>(lat) / 1e3);
    rtt_us.push_back(static_cast<double>(recv > sent ? recv - sent : 0) / 1e3);
  }
  st.p50_us = Quantile(lat_us, 0.5);
  st.p99_us = Quantile(lat_us, 0.99);
  st.p999_us = Quantile(std::move(lat_us), 0.999);
  st.mean_rtt_us = Mean(rtt_us);
  st.p50_rtt_us = Quantile(std::move(rtt_us), 0.5);
  st.gen_late_p99_ms = Quantile(std::move(late_ms), 0.99);
  st.slo_miss_pct = st.scheduled == 0
                        ? 0.0
                        : 100.0 * static_cast<double>(misses) /
                              static_cast<double>(st.scheduled);
  return st;
}

bool GeneratorBehind(const OpenLoopStats& stats, std::uint64_t limit_ns) {
  return stats.gen_late_p99_ms * 1e6 > static_cast<double>(limit_ns);
}

namespace {

// Missing keys read as 0 and clear *found.
double Lookup(const std::map<std::string, double>& samples,
              const std::string& key, bool* found) {
  const auto it = samples.find(key);
  if (it == samples.end()) {
    *found = false;
    return 0.0;
  }
  return it->second;
}

}  // namespace

ScrapedSummary ScrapeSummary(const std::map<std::string, double>& samples,
                             const std::string& metric) {
  const std::string family = opus::obs::PrometheusName(metric);
  ScrapedSummary s;
  bool found = true;
  s.p50 = Lookup(samples, family + "{quantile=\"0.5\"}", &found);
  s.p99 = Lookup(samples, family + "{quantile=\"0.99\"}", &found);
  s.sum = Lookup(samples, family + "_sum", &found);
  s.count = Lookup(samples, family + "_count", &found);
  s.found = found;
  return s;
}

double SumMatching(const std::map<std::string, double>& samples,
                   std::string_view prefix, std::string_view suffix) {
  double total = 0.0;
  for (auto it = samples.lower_bound(std::string(prefix));
       it != samples.end() && std::string_view(it->first).starts_with(prefix);
       ++it) {
    if (std::string_view(it->first).ends_with(suffix)) total += it->second;
  }
  return total;
}

bool ParseReplyBytes(std::string_view reply, std::uint64_t* mem,
                     std::uint64_t* disk) {
  if (!reply.starts_with("ok")) return false;
  bool have_mem = false, have_disk = false;
  std::size_t pos = 0;
  while (pos < reply.size()) {
    std::size_t end = reply.find(' ', pos);
    if (end == std::string_view::npos) end = reply.size();
    const std::string_view tok = reply.substr(pos, end - pos);
    const std::size_t eq = tok.find('=');
    if (eq != std::string_view::npos) {
      const std::string_view key = tok.substr(0, eq);
      const std::string value(tok.substr(eq + 1));
      if (key == "mem_bytes") have_mem = opus::ParseU64(value, mem);
      if (key == "disk_bytes") have_disk = opus::ParseU64(value, disk);
    }
    pos = end + 1;
  }
  return have_mem && have_disk;
}

double UnattributedPct(double e2e_mean, const std::vector<double>& layers) {
  if (!(e2e_mean > 0.0)) return 0.0;
  double attributed = 0.0;
  for (const double l : layers) attributed += l;
  return 100.0 * (1.0 - attributed / e2e_mean);
}

std::uint64_t Fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace perfbench
