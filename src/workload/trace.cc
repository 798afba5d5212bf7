#include "workload/trace.h"

#include <cmath>
#include <optional>

#include "common/check.h"
#include "common/discrete_sampler.h"

namespace opus::workload {

std::size_t Trace::CountFor(cache::UserId user, bool include_spurious) const {
  std::size_t count = 0;
  for (const auto& e : events) {
    if (e.user == user && (include_spurious || !e.spurious)) ++count;
  }
  return count;
}

Trace GenerateTrace(const std::vector<UserTraceSpec>& specs,
                    std::size_t total_events, Rng& rng) {
  OPUS_CHECK(!specs.empty());
  const std::size_t n = specs.size();
  // Stream i < n is user i's genuine stream; stream n + i is its spurious
  // stream, at rate 0 until the user's cheat trigger fires. Triggers only
  // ever switch on, so the stream sampler is rebuilt at most n times.
  std::vector<double> rates(2 * n, 0.0);
  std::vector<DiscreteSampler> genuine;
  genuine.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const UserTraceSpec& s = specs[i];
    OPUS_CHECK_MSG(std::isfinite(s.genuine_rate) && s.genuine_rate > 0.0,
                   "user " << i << " genuine_rate is " << s.genuine_rate);
    OPUS_CHECK_MSG(std::isfinite(s.spurious_rate),
                   "user " << i << " spurious_rate is " << s.spurious_rate);
    genuine.emplace_back(s.true_prefs);
    rates[i] = s.genuine_rate;
    if (s.cheat_after_genuine == 0 && s.spurious_rate > 0.0) {
      rates[n + i] = s.spurious_rate;
    }
  }
  DiscreteSampler streams(rates);
  // Built when the stream first fires, which can be before the trigger: the
  // chain may round onto a trailing zero-rate stream.
  std::vector<std::optional<DiscreteSampler>> spurious(n);
  std::vector<std::size_t> genuine_count(n, 0);
  Trace trace;
  trace.events.reserve(total_events);
  double now = 0.0;

  for (std::size_t k = 0; k < total_events; ++k) {
    now += rng.NextExponential(streams.total());
    const std::size_t stream = streams.Sample(rng);

    AccessEvent e;
    e.time_sec = now;
    if (stream < n) {
      const UserTraceSpec& s = specs[stream];
      e.user = static_cast<cache::UserId>(stream);
      e.spurious = false;
      e.file = static_cast<cache::FileId>(genuine[stream].Sample(rng));
      if (++genuine_count[stream] == s.cheat_after_genuine &&
          s.spurious_rate > 0.0) {
        rates[n + stream] = s.spurious_rate;
        streams = DiscreteSampler(rates);
      }
    } else {
      const std::size_t i = stream - n;
      e.user = static_cast<cache::UserId>(i);
      e.spurious = true;
      if (!spurious[i]) {
        OPUS_CHECK(!specs[i].spurious_prefs.empty());
        spurious[i].emplace(specs[i].spurious_prefs);
      }
      e.file = static_cast<cache::FileId>(spurious[i]->Sample(rng));
    }
    trace.events.push_back(e);
  }
  return trace;
}

std::vector<UserTraceSpec> TruthfulSpecs(const Matrix& prefs) {
  std::vector<UserTraceSpec> specs(prefs.rows());
  for (std::size_t i = 0; i < prefs.rows(); ++i) {
    specs[i].true_prefs.assign(prefs.row(i).begin(), prefs.row(i).end());
  }
  return specs;
}

void ApplyRateTripling(UserTraceSpec& spec, std::size_t after) {
  spec.cheat_after_genuine = after;
  // Tripled total rate = genuine + 2x spurious over the same distribution.
  spec.spurious_rate = 2.0 * spec.genuine_rate;
  spec.spurious_prefs = spec.true_prefs;
}

void ApplyPreferenceShift(UserTraceSpec& spec, std::size_t after,
                          std::vector<double> claimed_prefs,
                          double rate_multiplier) {
  OPUS_CHECK_GT(rate_multiplier, 0.0);
  spec.cheat_after_genuine = after;
  spec.spurious_rate = rate_multiplier * spec.genuine_rate;
  spec.spurious_prefs = std::move(claimed_prefs);
}

}  // namespace opus::workload
