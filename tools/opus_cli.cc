// opus_cli — command-line cache allocation.
//
// Reads a preference matrix from CSV (one row per user, one column per
// file; raw scores are normalized per row), runs the selected policy, and
// prints the allocation, per-user utilities, taxes and blocking — or emits
// machine-readable CSV with --csv.
//
// Usage:
//   opus_cli --prefs prefs.csv --capacity 2.0 [--policy opus]
//            [--sizes sizes.csv] [--threads N] [--csv] [--compare]
//            [--explain] [--simulate N [--workers W] [--cache-mb MB]
//            [--seed S]] [--metrics-out FILE] [--trace-out FILE]
//
//   --prefs FILE      required; CSV of non-negative scores (no header)
//   --capacity C      required; cache capacity in file units (or size
//                     units when --sizes is given)
//   --policy NAME     opus | fairride | maxmin | isolated | vcg-classic |
//                     optimal (default: opus)
//   --sizes FILE      optional; single CSV row of per-file sizes
//   --threads N       worker threads for OpuS's N leave-one-out tax solves
//                     (default: all hardware threads; 1 = serial; results
//                     are bit-identical at any thread count)
//   --agg-auto N      OpuS drift-adaptive user aggregation with minimum
//                     cluster count N (>= 1); coarse clusters at low drift,
//                     per-user solves at high drift
//   --delta-auto-off F  with --agg-auto: drifted-user fraction in [0,1] at
//                     which OpuS's cluster-tax reuse is skipped for a
//                     window (1 = never, the default)
//   --csv             machine-readable output (allocation + per-user rows)
//   --compare         run every policy and print a utility comparison
//   --explain         audit report of the OpuS decision (taxes, break-even,
//                     blocking, sharing verdict)
//   --simulate N      replay an N-event synthetic trace (truthful users
//                     drawn from the normalized preference rows) through a
//                     managed cluster instead of a one-shot allocation
//   --workers W       simulate: cluster worker count (default 4)
//   --cache-mb MB     simulate: cluster memory (default: capacity * 8 MiB)
//   --seed S          simulate: trace RNG seed (default 42)
//   --metrics-out F   simulate: write the end-of-run metrics registry
//                     (format from extension: .json/.csv/other=text);
//                     byte-identical across reruns and --threads
//   --trace-out F     simulate: write the structured event trace
//   --spans-out F     simulate: write the causal span trace (.json =
//                     Perfetto/Chrome trace_event format, loadable at
//                     ui.perfetto.dev; .csv/other = flat rows); same
//                     determinism bar as --metrics-out
//   --span-sample-n N simulate: record every Nth root span per root name
//                     (1 = all, 0 = disable span tracing; default 1)
//   --audit-out F     simulate: write the per-window fairness audit report
//                     (.json, or text otherwise); see opus_inspect audit
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/csv.h"
#include "analysis/report.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/explain.h"
#include "core/policy_factory.h"
#include "core/utility.h"
#include "obs/event_trace.h"
#include "obs/fairness_audit.h"
#include "obs/metrics.h"
#include "obs/span_trace.h"
#include "flag_parse.h"
#include "sim/simulator.h"
#include "workload/trace.h"

namespace {

using namespace opus;

using opus::tools::ParseFlagDouble;
using opus::tools::ParseFlagU64;

std::string ReadFile(const std::string& path, bool* ok) {
  std::ifstream in(path);
  if (!in) {
    *ok = false;
    return "";
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *ok = true;
  return ss.str();
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --prefs FILE --capacity C [--policy NAME] "
               "[--sizes FILE] [--threads N] [--agg-auto N] "
               "[--delta-auto-off F] [--csv] [--compare] "
               "[--explain] [--simulate N] [--workers W] [--cache-mb MB] "
               "[--seed S] [--metrics-out FILE] [--trace-out FILE] "
               "[--spans-out FILE] [--span-sample-n N] [--audit-out FILE]\n",
               argv0);
  return 2;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string prefs_path, sizes_path, policy = "opus";
  std::string metrics_out, trace_out, spans_out, audit_out;
  double capacity = -1.0, cache_mb = 0.0;
  unsigned threads = opus::HardwareThreads();
  std::size_t simulate = 0, workers = 4;
  std::uint64_t seed = 42, span_sample_n = 1;
  bool csv_output = false, compare = false, explain = false;
  OpusPolicyTuning tuning;

  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto next = [&]() -> const char* {
      return (a + 1 < argc) ? argv[++a] : nullptr;
    };
    if (arg == "--prefs") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      prefs_path = v;
    } else if (arg == "--capacity") {
      if (!ParseFlagDouble(arg, next(), 0.0, &capacity)) return Usage(argv[0]);
    } else if (arg == "--policy") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      policy = v;
    } else if (arg == "--sizes") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      sizes_path = v;
    } else if (arg == "--threads") {
      std::uint64_t v = 0;
      if (!ParseFlagU64(arg, next(), 1, &v) || v > 1024) return Usage(argv[0]);
      threads = static_cast<unsigned>(v);
    } else if (arg == "--agg-auto") {
      std::uint64_t v = 0;
      if (!ParseFlagU64(arg, next(), 1, &v)) return Usage(argv[0]);
      tuning.aggregation.auto_tune = true;
      tuning.aggregation.min_clusters = static_cast<std::size_t>(v);
    } else if (arg == "--delta-auto-off") {
      double v = 0.0;
      if (!ParseFlagDouble(arg, next(), 0.0, &v) || v > 1.0) {
        std::fprintf(stderr, "--delta-auto-off must be in [0, 1]\n");
        return 2;
      }
      tuning.delta.auto_off_drift_fraction = v;
    } else if (arg == "--simulate") {
      std::uint64_t v = 0;
      if (!ParseFlagU64(arg, next(), 1, &v)) return Usage(argv[0]);
      simulate = static_cast<std::size_t>(v);
    } else if (arg == "--workers") {
      std::uint64_t v = 0;
      if (!ParseFlagU64(arg, next(), 1, &v) || v > (1u << 20)) {
        return Usage(argv[0]);
      }
      workers = static_cast<std::size_t>(v);
    } else if (arg == "--cache-mb") {
      if (!ParseFlagDouble(arg, next(), 0.0, &cache_mb)) return Usage(argv[0]);
    } else if (arg == "--seed") {
      if (!ParseFlagU64(arg, next(), 0, &seed)) return Usage(argv[0]);
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      metrics_out = v;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      trace_out = v;
    } else if (arg == "--spans-out") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      spans_out = v;
    } else if (arg == "--span-sample-n") {
      if (!ParseFlagU64(arg, next(), 0, &span_sample_n)) return Usage(argv[0]);
    } else if (arg == "--audit-out") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      audit_out = v;
    } else if (arg == "--csv") {
      csv_output = true;
    } else if (arg == "--compare") {
      compare = true;
    } else if (arg == "--explain") {
      explain = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (prefs_path.empty() || capacity < 0.0) return Usage(argv[0]);

  bool ok = false;
  const std::string prefs_text = ReadFile(prefs_path, &ok);
  if (!ok) {
    std::fprintf(stderr, "cannot read %s\n", prefs_path.c_str());
    return 1;
  }
  const auto prefs_csv = analysis::ParseCsv(prefs_text, /*has_header=*/false);
  const auto raw = analysis::ToNumeric(prefs_csv);
  if (raw.empty()) {
    std::fprintf(stderr, "empty preference matrix\n");
    return 1;
  }
  for (const auto& row : raw) {
    if (row.size() != raw[0].size()) {
      std::fprintf(stderr, "ragged preference matrix\n");
      return 1;
    }
  }

  CachingProblem problem =
      CachingProblem::FromRaw(Matrix::FromRows(raw), capacity);
  if (!sizes_path.empty()) {
    const std::string sizes_text = ReadFile(sizes_path, &ok);
    if (!ok) {
      std::fprintf(stderr, "cannot read %s\n", sizes_path.c_str());
      return 1;
    }
    const auto sizes =
        analysis::ToNumeric(analysis::ParseCsv(sizes_text, false));
    if (sizes.size() != 1 || sizes[0].size() != problem.num_files()) {
      std::fprintf(stderr, "--sizes must be one row of %zu values\n",
                   problem.num_files());
      return 1;
    }
    problem.file_sizes = sizes[0];
  }

  if (explain) {
    std::fputs(ExplainOpusDecision(problem).c_str(), stdout);
    return 0;
  }

  if (simulate > 0) {
    const auto allocator = MakeAllocatorByName(policy, threads, &tuning);
    if (!allocator) {
      std::fprintf(stderr, "unknown policy: %s\n", policy.c_str());
      return 1;
    }
    // One catalog file per preference column; sizes in units of one 8 MiB
    // mean file so --capacity keeps its meaning (file units).
    const double mean_file_bytes = 8.0 * 1024 * 1024;
    cache::Catalog catalog(1 * cache::kMiB);
    for (std::size_t j = 0; j < problem.num_files(); ++j) {
      catalog.Register("file-" + std::to_string(j),
                       static_cast<std::uint64_t>(problem.FileSize(j) *
                                                  mean_file_bytes));
    }
    sim::ManagedSimConfig cfg;
    cfg.cluster.num_workers = static_cast<std::uint32_t>(workers);
    cfg.cluster.num_users =
        static_cast<std::uint32_t>(problem.num_users());
    cfg.cluster.cache_capacity_bytes =
        cache_mb > 0.0
            ? static_cast<std::uint64_t>(cache_mb * 1024 * 1024)
            : static_cast<std::uint64_t>(capacity * mean_file_bytes);
    cfg.cluster.span_sample_every = span_sample_n;
    cfg.master.update_interval = std::max<std::size_t>(50, simulate / 10);
    cfg.master.learning_window = 4 * cfg.master.update_interval;

    Rng rng(seed);
    const workload::Trace trace = workload::GenerateTrace(
        workload::TruthfulSpecs(problem.preferences), simulate, rng);
    const sim::SimulationResult result =
        sim::RunManagedSimulation(cfg, *allocator, catalog, trace);

    analysis::Table table("simulation results");
    table.AddHeader({"metric", "value"});
    table.AddRow({"mean effective hit ratio",
                  FormatDouble(result.average_hit_ratio, 4)});
    for (std::size_t i = 0; i < result.per_user_hit_ratio.size(); ++i) {
      table.AddRow({"user " + std::to_string(i) + " hit ratio",
                    FormatDouble(result.per_user_hit_ratio[i], 4)});
    }
    table.AddRow({"reallocations", std::to_string(result.reallocations)});
    table.AddRow({"disk bytes read", FormatBytes(result.disk_bytes_read)});
    table.Print();

    if (!metrics_out.empty() &&
        !WriteFile(metrics_out, result.metrics.Export(
                                    obs::FormatForPath(metrics_out)))) {
      return 1;
    }
    if (!trace_out.empty() &&
        !WriteFile(trace_out,
                   obs::ExportEvents(result.trace_events,
                                     obs::FormatForPath(trace_out)))) {
      return 1;
    }
    if (!spans_out.empty() &&
        !WriteFile(spans_out, obs::ExportSpans(result.spans,
                                               obs::FormatForPath(spans_out)))) {
      return 1;
    }
    if (!audit_out.empty() &&
        !WriteFile(audit_out,
                   obs::FormatForPath(audit_out) == obs::ExportFormat::kJson
                       ? result.audit.ToJson()
                       : result.audit.ToText())) {
      return 1;
    }
    return 0;
  }
  if (!metrics_out.empty() || !trace_out.empty() || !spans_out.empty() ||
      !audit_out.empty()) {
    std::fprintf(stderr,
                 "--metrics-out/--trace-out/--spans-out/--audit-out require "
                 "--simulate\n");
    return Usage(argv[0]);
  }

  if (compare) {
    analysis::Table table("policy comparison");
    std::vector<std::string> header = {"policy"};
    for (std::size_t i = 0; i < problem.num_users(); ++i) {
      header.push_back("user" + std::to_string(i));
    }
    header.push_back("shared?");
    table.AddHeader(std::move(header));
    for (const char* name : {"isolated", "maxmin", "fairride", "optimal",
                             "vcg-classic", "opus"}) {
      const auto alloc = MakeAllocatorByName(name, threads, &tuning);
      const auto r = alloc->Allocate(problem);
      const auto utils = EvaluateUtilities(r, problem.preferences);
      std::vector<std::string> row = {name};
      for (double u : utils) row.push_back(FormatDouble(u, 4));
      row.push_back(r.shared ? "yes" : "no");
      table.AddRow(std::move(row));
    }
    table.Print();
    return 0;
  }

  const auto allocator = MakeAllocatorByName(policy, threads, &tuning);
  if (!allocator) {
    std::fprintf(stderr, "unknown policy: %s\n", policy.c_str());
    return 1;
  }
  const auto result = allocator->Allocate(problem);
  const auto utils = EvaluateUtilities(result, problem.preferences);

  if (csv_output) {
    analysis::CsvTable alloc_table;
    alloc_table.header = {"file", "allocation"};
    for (std::size_t j = 0; j < problem.num_files(); ++j) {
      alloc_table.rows.push_back(
          {std::to_string(j), FormatDouble(result.file_alloc[j], 6)});
    }
    std::fputs(analysis::WriteCsv(alloc_table).c_str(), stdout);
    analysis::CsvTable user_table;
    user_table.header = {"user", "utility", "tax", "blocking"};
    for (std::size_t i = 0; i < problem.num_users(); ++i) {
      user_table.rows.push_back({std::to_string(i),
                                 FormatDouble(utils[i], 6),
                                 FormatDouble(result.taxes[i], 6),
                                 FormatDouble(result.blocking[i], 6)});
    }
    std::fputs(analysis::WriteCsv(user_table).c_str(), stdout);
    return 0;
  }

  std::printf("policy: %s (%s)\n", result.policy.c_str(),
              result.shared ? "sharing" : "isolated");
  analysis::Table alloc_table("file allocation");
  alloc_table.AddHeader({"file", "size", "cached fraction"});
  for (std::size_t j = 0; j < problem.num_files(); ++j) {
    alloc_table.AddRow({std::to_string(j),
                        FormatDouble(problem.FileSize(j), 2),
                        FormatDouble(result.file_alloc[j], 4)});
  }
  alloc_table.Print();
  analysis::Table user_table("per-user outcome");
  user_table.AddHeader({"user", "utility", "tax", "blocking"});
  for (std::size_t i = 0; i < problem.num_users(); ++i) {
    user_table.AddRow({std::to_string(i), FormatDouble(utils[i], 4),
                       FormatDouble(result.taxes[i], 4),
                       FormatDouble(result.blocking[i], 4)});
  }
  user_table.Print();
  return 0;
}
