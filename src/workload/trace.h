// Access-trace generation, including the paper's cheating scenarios.
//
// Each user emits *genuine* accesses (drawn from its true preference
// distribution at its genuine rate) and — once its cheat trigger fires —
// additional *spurious* accesses drawn from a manipulated distribution
// (Sec. III-C: "making spurious accesses if the cache preferences are
// inferred from historical access frequency"). The trace interleaves all
// streams as merged Poisson processes.
//
// The split matters for metrics: frequency learning must observe every
// access (that is the attack surface), while a user's effective hit ratio
// is meaningful only over its genuine workload — a cheater spamming cached
// files would otherwise inflate its own score by definition.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "cache/types.h"
#include "common/matrix.h"
#include "common/rng.h"

namespace opus::workload {

struct AccessEvent {
  cache::UserId user = 0;
  cache::FileId file = 0;
  double time_sec = 0.0;
  bool spurious = false;
};

struct UserTraceSpec {
  // Genuine access distribution over files (need not be normalized; the
  // weights must be finite and >= 0 with a finite, positive sum) and rate
  // (accesses per second, finite and > 0).
  std::vector<double> true_prefs;
  double genuine_rate = 1.0;

  // Cheat phase: after this many genuine accesses, the user additionally
  // emits spurious accesses from `spurious_prefs` at `spurious_rate`
  // (finite; a rate <= 0 never cheats).
  std::size_t cheat_after_genuine = std::numeric_limits<std::size_t>::max();
  double spurious_rate = 0.0;
  std::vector<double> spurious_prefs;
};

struct Trace {
  std::vector<AccessEvent> events;  // time-ordered

  // Events for one user (genuine only, or all).
  std::size_t CountFor(cache::UserId user, bool include_spurious) const;
};

// Generates `total_events` interleaved events. Deterministic given `rng`.
Trace GenerateTrace(const std::vector<UserTraceSpec>& specs,
                    std::size_t total_events, Rng& rng);

// Convenience: specs for `prefs.rows()` truthful users at unit rate.
std::vector<UserTraceSpec> TruthfulSpecs(const Matrix& prefs);

// Spec mutation helpers for the paper's two cheating micro-benchmarks.

// Fig. 5: the user triples its access rate after `after` genuine accesses
// (spurious stream = 2x extra rate over its own preferences).
void ApplyRateTripling(UserTraceSpec& spec, std::size_t after);

// Fig. 6: after `after` genuine accesses the user spams `claimed_prefs`
// (e.g. claiming F1 over F2) at `rate_multiplier` times its genuine rate.
void ApplyPreferenceShift(UserTraceSpec& spec, std::size_t after,
                          std::vector<double> claimed_prefs,
                          double rate_multiplier = 2.0);

}  // namespace opus::workload
