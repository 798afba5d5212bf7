// opus_daemon — the long-running serving process (serve/daemon.h).
//
// Builds a cluster over a synthetic or CSV catalog, starts the OpuS
// control loop and the sharded serving engine, and answers opus_client
// commands on a Unix socket until `opus_client SOCKET shutdown`.
//
// Usage:
//   opus_daemon --socket PATH [--catalog FILE | --files N [--file-mb MB]]
//               [--users N] [--workers N] [--cache-mb MB] [--threads N]
//               [--policy NAME] [--update-interval N] [--window N]
//               [--tax-threads N] [--delta-drift F] [--delta-util-tol F]
//               [--delta-auto-off F]
//               [--agg-clusters N] [--agg-threshold F] [--agg-auto N]
//               [--stats-out FILE] [--stats-interval-ms N]
//               [--flight-out FILE] [--flight-capacity N]
//               [--p99-threshold-ms F]
//
//   --socket PATH       Unix socket to serve on (default /tmp/opus.sock)
//   --catalog FILE      CSV of name,size_bytes rows (no header)
//   --files N           synthetic catalog of N files (default 32)
//   --file-mb MB        synthetic file size (default 8)
//   --users N           registered user slots (default 4)
//   --workers N         cache workers / engine shards (default 4)
//   --cache-mb MB       cluster memory (default 64)
//   --threads N         engine probe threads (default: worker count)
//   --policy NAME       initial allocator (default opus)
//   --update-interval N accesses between reallocations (default 200)
//   --window N          learning-window length in accesses (default 800)
//   --tax-threads N     threads for OpuS leave-one-out tax solves
//   --delta-drift F     OpuS delta windows: per-user L1 drift beyond which
//                       a user is re-solved; 0 disables (default 0)
//   --delta-util-tol F  relative star-utility move beyond which a stale
//                       user's tax is re-solved anyway (default 0.01)
//   --delta-auto-off F  drifted-user fraction in [0,1] at which the delta
//                       machinery is skipped for the window (1 = never,
//                       the default)
//   --agg-clusters N    OpuS user aggregation: max clusters; 0 disables
//                       (default 0)
//   --agg-threshold F   L1 distance beyond which a user founds a new
//                       cluster (default 0.5)
//   --agg-auto N        drift-adaptive cluster auto-tuning with minimum
//                       cluster count N (>= 1): the per-window budget grows
//                       with observed drift and degrades to per-user solves
//                       at high drift; combine with --agg-clusters to cap
//                       the budget
//   --stats-out FILE    append one JSON line per window: windowed metric
//                       delta + latency quantiles (default: off)
//   --stats-interval-ms N  stats window length (default 1000; resolution
//                       is the daemon's ~100ms poll tick)
//   --flight-out FILE   flight-recorder dump target for `dump` and for
//                       automatic anomaly dumps (default opus_flight.json)
//   --flight-capacity N flight-recorder ring capacity (default 4096)
//   --p99-threshold-ms F  trip an automatic flight dump once when a sampled
//                       read p99 exceeds F ms (default 0 = disarmed)
//   --tcp-port N        also listen on TCP 127.0.0.1:N (0 = kernel-assigned;
//                       default: Unix socket only)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/csv.h"
#include "cache/file_meta.h"
#include "common/strings.h"
#include "flag_parse.h"
#include "serve/daemon.h"

namespace {

using opus::tools::ParseFlagDouble;
using opus::tools::ParseFlagU64;

std::string ReadFile(const std::string& path, bool* ok) {
  std::ifstream in(path);
  *ok = static_cast<bool>(in);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  opus::serve::DaemonConfig config;
  config.cluster.num_workers = 4;
  config.cluster.num_users = 4;
  config.cluster.cache_capacity_bytes = 64 * opus::cache::kMiB;
  config.master.update_interval = 200;
  config.master.learning_window = 800;
  config.engine.threads = 0;  // 0 = default to the worker count below
  std::string catalog_path;
  std::uint64_t files = 32, file_mb = 8;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    const auto next = [&]() { return i + 1 < argc ? argv[++i] : nullptr; };
    std::uint64_t u = 0;
    double d = 0.0;
    if (arg == "--socket" && (v = next())) {
      config.socket_path = v;
    } else if (arg == "--catalog" && (v = next())) {
      catalog_path = v;
    } else if (arg == "--files" && (v = next())) {
      if (!ParseFlagU64("--files", v, 1, &files)) return 2;
    } else if (arg == "--file-mb" && (v = next())) {
      if (!ParseFlagU64("--file-mb", v, 1, &file_mb)) return 2;
    } else if (arg == "--users" && (v = next())) {
      if (!ParseFlagU64("--users", v, 1, &u)) return 2;
      config.cluster.num_users = static_cast<std::uint32_t>(u);
    } else if (arg == "--workers" && (v = next())) {
      if (!ParseFlagU64("--workers", v, 1, &u) || u > (1u << 20)) {
        std::fprintf(stderr, "--workers out of range\n");
        return 2;
      }
      config.cluster.num_workers = static_cast<std::uint32_t>(u);
    } else if (arg == "--cache-mb" && (v = next())) {
      if (!ParseFlagDouble("--cache-mb", v, 0.0, &d)) return 2;
      config.cluster.cache_capacity_bytes =
          static_cast<std::uint64_t>(d * static_cast<double>(opus::cache::kMiB));
    } else if (arg == "--threads" && (v = next())) {
      if (!ParseFlagU64("--threads", v, 1, &u) || u > 1024) {
        std::fprintf(stderr, "--threads out of range\n");
        return 2;
      }
      config.engine.threads = static_cast<unsigned>(u);
    } else if (arg == "--policy" && (v = next())) {
      config.policy = v;
    } else if (arg == "--update-interval" && (v = next())) {
      if (!ParseFlagU64("--update-interval", v, 1, &u)) return 2;
      config.master.update_interval = u;
    } else if (arg == "--window" && (v = next())) {
      if (!ParseFlagU64("--window", v, 1, &u)) return 2;
      config.master.learning_window = u;
    } else if (arg == "--tax-threads" && (v = next())) {
      if (!ParseFlagU64("--tax-threads", v, 0, &u) || u > 1024) {
        std::fprintf(stderr, "--tax-threads out of range\n");
        return 2;
      }
      config.tax_threads = static_cast<unsigned>(u);
    } else if (arg == "--delta-drift" && (v = next())) {
      if (!ParseFlagDouble("--delta-drift", v, 0.0, &d)) return 2;
      config.opus_tuning.delta.drift_threshold = d;
    } else if (arg == "--delta-util-tol" && (v = next())) {
      if (!ParseFlagDouble("--delta-util-tol", v, 0.0, &d)) return 2;
      config.opus_tuning.delta.utility_rel_tolerance = d;
    } else if (arg == "--delta-auto-off" && (v = next())) {
      if (!ParseFlagDouble("--delta-auto-off", v, 0.0, &d)) return 2;
      if (d > 1.0) {
        std::fprintf(stderr, "--delta-auto-off must be in [0, 1]\n");
        return 2;
      }
      config.opus_tuning.delta.auto_off_drift_fraction = d;
    } else if (arg == "--agg-auto" && (v = next())) {
      if (!ParseFlagU64("--agg-auto", v, 1, &u)) return 2;
      config.opus_tuning.aggregation.auto_tune = true;
      config.opus_tuning.aggregation.min_clusters =
          static_cast<std::size_t>(u);
    } else if (arg == "--agg-clusters" && (v = next())) {
      if (!ParseFlagU64("--agg-clusters", v, 0, &u)) return 2;
      config.opus_tuning.aggregation.max_clusters =
          static_cast<std::size_t>(u);
    } else if (arg == "--agg-threshold" && (v = next())) {
      if (!ParseFlagDouble("--agg-threshold", v, 0.0, &d)) return 2;
      config.opus_tuning.aggregation.similarity_threshold = d;
    } else if (arg == "--stats-out" && (v = next())) {
      config.stats_path = v;
    } else if (arg == "--stats-interval-ms" && (v = next())) {
      if (!ParseFlagU64("--stats-interval-ms", v, 0, &u)) return 2;
      config.stats_interval_ms = u;
    } else if (arg == "--flight-out" && (v = next())) {
      config.flight_path = v;
    } else if (arg == "--flight-capacity" && (v = next())) {
      if (!ParseFlagU64("--flight-capacity", v, 1, &u)) return 2;
      config.flight_capacity = static_cast<std::size_t>(u);
    } else if (arg == "--p99-threshold-ms" && (v = next())) {
      if (!ParseFlagDouble("--p99-threshold-ms", v, 0.0, &d)) return 2;
      config.p99_threshold_ms = d;
    } else if (arg == "--tcp-port" && (v = next())) {
      if (!ParseFlagU64("--tcp-port", v, 0, &u) || u > 65535) {
        std::fprintf(stderr, "--tcp-port out of range\n");
        return 2;
      }
      config.tcp_port = static_cast<int>(u);
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (config.engine.threads == 0) {
    config.engine.threads = config.cluster.num_workers;
  }

  opus::cache::Catalog catalog(1 * opus::cache::kMiB);
  if (!catalog_path.empty()) {
    bool ok = false;
    const std::string text = ReadFile(catalog_path, &ok);
    if (!ok) {
      std::fprintf(stderr, "cannot read %s\n", catalog_path.c_str());
      return 2;
    }
    for (const auto& row :
         opus::analysis::ParseCsv(text, /*has_header=*/false).rows) {
      std::uint64_t size_bytes = 0;
      if (row.size() != 2 || !opus::ParseU64(row[1], &size_bytes)) {
        std::fprintf(stderr, "catalog rows must be name,size_bytes\n");
        return 2;
      }
      catalog.Register(row[0], size_bytes);
    }
  } else {
    for (std::uint64_t f = 0; f < files; ++f) {
      catalog.Register("file" + std::to_string(f),
                       file_mb * opus::cache::kMiB);
    }
  }
  if (catalog.size() == 0) {
    std::fprintf(stderr, "empty catalog\n");
    return 2;
  }

  const std::string socket_path = config.socket_path;
  const int tcp_port = config.tcp_port;
  opus::serve::Daemon daemon(std::move(config), std::move(catalog));
  std::fprintf(stderr, "opus_daemon: %zu files, %u workers, serving on %s\n",
               daemon.cluster().catalog().size(),
               daemon.cluster().config().num_workers, socket_path.c_str());
  if (tcp_port >= 0) {
    std::fprintf(stderr, "opus_daemon: tcp 127.0.0.1:%d\n", tcp_port);
  }
  return daemon.Run();
}
