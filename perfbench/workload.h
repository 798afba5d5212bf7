// The benchmark's traffic mixes and the inputs each one generates from its
// seed. The daemon receives only the generated commands; the one exception
// is `gen N SEED`, the daemon's bulk API, which derives its events inside
// the daemon from the seed it is given.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/file_meta.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "serve/daemon.h"
#include "workload/trace.h"

namespace perfbench {

// Engine probe threads: the daemon loop plus two probe threads leave room
// for the client's sender and receiver on a 4-core host.
inline constexpr unsigned kEngineThreads = 2;
// Requests in flight during the closed-loop capacity phase.
inline constexpr std::size_t kPipelineDepth = 32;
// Latency limit for slo_miss_pct and for the generator-lag check.
inline constexpr std::uint64_t kSloNs = 1'000'000;
// Skew of the open-loop `serve` popularity.
inline constexpr double kZipfAlpha = 1.05;

struct WorkloadSpec {
  const char* name;
  // Daemon shape.
  std::uint32_t users;
  std::uint32_t files;
  std::uint32_t min_file_mb;  // file sizes are drawn from the seed in
  std::uint32_t max_file_mb;  // [min, max] MiB
  std::uint64_t cache_mb;
  std::size_t update_interval;
  std::size_t learning_window;
  // Open-loop `serve USER FILE` traffic: Zipf popularity, user u's rank r
  // reads file (r + u * user_stride) mod files.
  double serve_rate;
  std::uint32_t user_stride;
  // Shares of --seconds given to the open-loop, capacity and bulk phases.
  double open_share;
  double capacity_share;
  double bulk_share;
  // Rates on the reference host, used only to turn those shares into fixed
  // request and batch counts, so the work done is a function of the seed.
  double capacity_rps_hint;
  double bulk_events_hint;
  std::uint64_t gen_events;  // events per `gen` command
  bool churn;                // dropuser/adduser/reconfig after every gen
  double scrape_rate;        // open-loop status/metrics scrapes per second
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// Fixed work of one run, spread over `rounds` rounds of the three phases.
struct PhasePlan {
  std::size_t rounds = 0;
  std::size_t open_requests = 0;
  std::size_t capacity_requests = 0;
  std::size_t gen_batches = 0;
  std::size_t min_scrapes = 0;
};
PhasePlan PlanPhases(const WorkloadSpec& spec, double seconds);

opus::cache::Catalog MakeCatalog(const WorkloadSpec& spec, std::uint64_t seed);
opus::serve::DaemonConfig MakeDaemonConfig(const WorkloadSpec& spec,
                                           const std::string& socket_path,
                                           const std::string& flight_path);

// Seeded `serve USER FILE` request stream.
class RequestStream {
 public:
  RequestStream(const WorkloadSpec& spec, std::uint64_t seed);
  std::string Next();

 private:
  opus::Rng rng_;
  opus::ZipfDistribution zipf_;
  std::uint32_t users_;
  std::uint32_t files_;
  std::uint32_t stride_;
};

// The mutating commands of bulk batch k: `gen N SEED_k`, then for churn
// workloads `dropuser`, `adduser` and an alternating capacity reconfig.
std::vector<std::string> BulkCommands(const WorkloadSpec& spec,
                                      const opus::cache::Catalog& catalog,
                                      std::uint64_t seed, std::size_t k);

// The events the daemon serves for `gen n seed` with the given active user
// slots. Mirrors serve::Daemon's gen expansion; the traced run's oracle
// replay checks the result against the daemon byte for byte.
std::vector<opus::workload::AccessEvent> GenEvents(
    const std::vector<bool>& active, std::size_t files, std::uint64_t n,
    std::uint64_t seed);

}  // namespace perfbench
