// Control-plane message types exchanged between the OpuSMaster and Workers
// (paper Fig. 4). The simulator delivers them in-process, but keeping them
// as explicit value types preserves the deployment structure: everything the
// master tells a worker is serializable state, not shared pointers.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/types.h"

namespace opus::cache {

// Master -> Worker: pin exactly these blocks (replacing the previous pin
// set); anything else is eviction fodder.
struct CacheUpdate {
  WorkerId worker = 0;
  std::uint64_t epoch = 0;  // allocation round that produced this update
  std::vector<BlockId> pin;
  std::vector<BlockId> unpin;
  std::vector<BlockId> load;  // blocks to fetch from the under store
};

// Master -> Worker: per-user blocking probabilities for delay emulation.
struct BlockingUpdate {
  std::uint64_t epoch = 0;
  std::vector<double> blocking;  // indexed by UserId
};

// Aggregate counters for control-plane traffic (observability/tests).
struct ControlPlaneStats {
  std::uint64_t cache_updates = 0;
  std::uint64_t blocking_updates = 0;
  std::uint64_t blocks_pinned = 0;
  std::uint64_t blocks_unpinned = 0;
  std::uint64_t blocks_loaded = 0;
  // Load/pin requests that failed: the sum of every
  // cluster.worker.W.pin_failures counter, readable without a snapshot.
  std::uint64_t pin_failures = 0;
};

}  // namespace opus::cache
