#include "workload.h"

#include <algorithm>
#include <cmath>

#include "cache/types.h"
#include "common/matrix.h"

namespace perfbench {

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      // The daemon's shipped defaults: per-request overhead (socket, parse,
      // anomaly snapshot, one-event Serve) dominates; windows are ~0.3 ms.
      {"serve-small", /*users=*/4, /*files=*/32, 8, 8, /*cache_mb=*/64,
       /*update_interval=*/200, /*learning_window=*/800,
       /*serve_rate=*/12000.0, /*user_stride=*/4,
       0.5, 0.25, 0.25, /*capacity_rps_hint=*/45000.0,
       /*bulk_events_hint=*/390000.0, /*gen_events=*/50000,
       /*churn=*/false, /*scrape_rate=*/300.0},
      // Many tenants, mixed sizes: ~50 ms windows block the poll loop, so
      // the solver, the apply step and pin-failure flight dumps set the
      // tail.
      {"serve-tenants", 32, 512, 2, 6, 512, 1000, 4000, 3000.0, 2, 0.5, 0.15,
       0.35, 20000.0, 63000.0, 20000, false, 200.0},
      // Bulk `gen` with user churn and capacity reconfigs, scraped from a
      // second connection: engine phases, per-event OnAccess and store
      // probes dominate; windows are rare.
      {"gen-churn", 16, 256, 8, 8, 1024, 10000, 40000, 6000.0, 8, 0.2, 0.15,
       0.65, 28000.0, 470000.0, 50000, true, 200.0},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

PhasePlan PlanPhases(const WorkloadSpec& spec, double seconds) {
  PhasePlan plan;
  plan.rounds = 10;
  // At least one unit of each phase per round.
  const auto count = [&plan](double x) {
    return std::max(plan.rounds, static_cast<std::size_t>(std::round(x)));
  };
  plan.open_requests = count(spec.serve_rate * spec.open_share * seconds);
  plan.capacity_requests =
      count(spec.capacity_rps_hint * spec.capacity_share * seconds);
  plan.gen_batches = count(spec.bulk_events_hint * spec.bulk_share * seconds /
                           static_cast<double>(spec.gen_events));
  plan.min_scrapes = 1000;
  return plan;
}

opus::cache::Catalog MakeCatalog(const WorkloadSpec& spec,
                                 std::uint64_t seed) {
  opus::cache::Catalog catalog(1 * opus::cache::kMiB);
  opus::Rng rng(seed ^ 0xca7a1095eedull);
  const std::uint64_t span = spec.max_file_mb - spec.min_file_mb + 1;
  for (std::uint32_t f = 0; f < spec.files; ++f) {
    const std::uint64_t mb = spec.min_file_mb + rng.NextBounded(span);
    catalog.Register("file" + std::to_string(f), mb * opus::cache::kMiB);
  }
  return catalog;
}

opus::serve::DaemonConfig MakeDaemonConfig(const WorkloadSpec& spec,
                                           const std::string& socket_path,
                                           const std::string& flight_path) {
  opus::serve::DaemonConfig config;
  config.socket_path = socket_path;
  config.flight_path = flight_path;
  config.cluster.num_workers = 4;
  config.cluster.num_users = spec.users;
  config.cluster.cache_capacity_bytes = spec.cache_mb * opus::cache::kMiB;
  config.master.update_interval = spec.update_interval;
  config.master.learning_window = spec.learning_window;
  config.engine.threads = kEngineThreads;
  return config;
}

RequestStream::RequestStream(const WorkloadSpec& spec, std::uint64_t seed)
    : rng_(seed ^ 0x5e7e5eedull),
      zipf_(spec.files, kZipfAlpha),
      users_(spec.users),
      files_(spec.files),
      stride_(spec.user_stride) {}

std::string RequestStream::Next() {
  const std::uint64_t user = rng_.NextBounded(users_);
  const std::uint64_t rank = zipf_.Sample(rng_);
  const std::uint64_t file = (rank + user * stride_) % files_;
  return "serve " + std::to_string(user) + " " + std::to_string(file);
}

std::vector<std::string> BulkCommands(const WorkloadSpec& spec,
                                      const opus::cache::Catalog& catalog,
                                      std::uint64_t seed, std::size_t k) {
  std::vector<std::string> cmds;
  cmds.push_back("gen " + std::to_string(spec.gen_events) + " " +
                 std::to_string(seed * 1000003ull + k));
  if (!spec.churn) return cmds;
  cmds.push_back("dropuser " + std::to_string(k % spec.users));
  cmds.push_back("adduser");
  // Alternate a 75% capacity override with the derived capacity (0).
  const double mean_file = static_cast<double>(catalog.TotalBytes()) /
                           static_cast<double>(catalog.size());
  const double derived =
      static_cast<double>(spec.cache_mb * opus::cache::kMiB) / mean_file;
  const std::uint64_t units =
      k % 2 == 0 ? static_cast<std::uint64_t>(0.75 * derived) : 0;
  cmds.push_back("reconfig capacity " + std::to_string(units));
  return cmds;
}

std::vector<opus::workload::AccessEvent> GenEvents(
    const std::vector<bool>& active, std::size_t files, std::uint64_t n,
    std::uint64_t seed) {
  std::vector<opus::cache::UserId> ids;
  for (std::size_t u = 0; u < active.size(); ++u) {
    if (active[u]) ids.push_back(static_cast<opus::cache::UserId>(u));
  }
  opus::Matrix prefs(ids.size(), files, 0.0);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = 0; j < files; ++j) {
      prefs(i, j) = 1.0 / (1.0 + ((j + 3 * ids[i]) % files));
    }
  }
  opus::Rng rng(seed);
  opus::workload::Trace trace = opus::workload::GenerateTrace(
      opus::workload::TruthfulSpecs(prefs), static_cast<std::size_t>(n), rng);
  for (opus::workload::AccessEvent& event : trace.events) {
    event.user = ids[event.user];
  }
  return std::move(trace.events);
}

}  // namespace perfbench
