#include "workload/trace.h"

#include <bit>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

namespace opus::workload {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::vector<UserTraceSpec> TwoUserSpecs() {
  std::vector<UserTraceSpec> specs(2);
  specs[0].true_prefs = {0.7, 0.3, 0.0};
  specs[1].true_prefs = {0.0, 0.3, 0.7};
  return specs;
}

TEST(TraceTest, GeneratesRequestedEvents) {
  Rng rng(1);
  const auto trace = GenerateTrace(TwoUserSpecs(), 1000, rng);
  EXPECT_EQ(trace.events.size(), 1000u);
}

TEST(TraceTest, TimesMonotone) {
  Rng rng(2);
  const auto trace = GenerateTrace(TwoUserSpecs(), 500, rng);
  for (std::size_t k = 1; k < trace.events.size(); ++k) {
    EXPECT_GE(trace.events[k].time_sec, trace.events[k - 1].time_sec);
  }
}

TEST(TraceTest, TruthfulUsersEmitNoSpurious) {
  Rng rng(3);
  const auto trace = GenerateTrace(TwoUserSpecs(), 2000, rng);
  for (const auto& e : trace.events) EXPECT_FALSE(e.spurious);
}

TEST(TraceTest, FilesFollowPreferences) {
  Rng rng(4);
  const auto trace = GenerateTrace(TwoUserSpecs(), 20000, rng);
  std::size_t user0_file0 = 0, user0_total = 0;
  for (const auto& e : trace.events) {
    if (e.user == 0) {
      ++user0_total;
      if (e.file == 0) ++user0_file0;
    }
    if (e.user == 0) EXPECT_NE(e.file, 2u);  // zero preference
    if (e.user == 1) EXPECT_NE(e.file, 0u);
  }
  EXPECT_NEAR(static_cast<double>(user0_file0) / user0_total, 0.7, 0.03);
}

TEST(TraceTest, EqualRatesSplitEvenly) {
  Rng rng(5);
  const auto trace = GenerateTrace(TwoUserSpecs(), 20000, rng);
  const auto u0 = trace.CountFor(0, true);
  EXPECT_NEAR(static_cast<double>(u0) / 20000.0, 0.5, 0.02);
}

TEST(TraceTest, RateTriplingKicksInAfterTrigger) {
  Rng rng(6);
  auto specs = TwoUserSpecs();
  ApplyRateTripling(specs[0], /*after=*/200);
  const auto trace = GenerateTrace(specs, 30000, rng);

  // Before the trigger both users run at rate 1; afterwards user 0's total
  // stream (genuine + spurious) is 3x user 1's.
  std::size_t genuine0 = 0;
  std::size_t late_u0 = 0, late_u1 = 0;
  bool triggered = false;
  for (const auto& e : trace.events) {
    if (e.user == 0 && !e.spurious) ++genuine0;
    if (genuine0 >= 400) triggered = true;  // well past the trigger
    if (triggered) {
      if (e.user == 0) ++late_u0;
      if (e.user == 1) ++late_u1;
    }
  }
  ASSERT_GT(late_u1, 1000u);
  EXPECT_NEAR(static_cast<double>(late_u0) / static_cast<double>(late_u1),
              3.0, 0.3);
}

TEST(TraceTest, SpuriousEventsUseClaimedDistribution) {
  Rng rng(7);
  auto specs = TwoUserSpecs();
  ApplyPreferenceShift(specs[0], /*after=*/100, {0.0, 0.0, 1.0}, 4.0);
  const auto trace = GenerateTrace(specs, 20000, rng);
  std::size_t spurious = 0;
  for (const auto& e : trace.events) {
    if (e.spurious) {
      ++spurious;
      EXPECT_EQ(e.user, 0u);
      EXPECT_EQ(e.file, 2u);  // spurious stream only touches file 2
    }
  }
  EXPECT_GT(spurious, 5000u);
}

TEST(TraceTest, CountForFiltersSpurious) {
  Rng rng(8);
  auto specs = TwoUserSpecs();
  ApplyRateTripling(specs[0], 0);  // cheats from the start
  const auto trace = GenerateTrace(specs, 4000, rng);
  EXPECT_GT(trace.CountFor(0, true), trace.CountFor(0, false));
  EXPECT_EQ(trace.CountFor(1, true), trace.CountFor(1, false));
}

TEST(TraceTest, DeterministicGivenSeed) {
  auto specs = TwoUserSpecs();
  Rng a(9), b(9);
  const auto ta = GenerateTrace(specs, 300, a);
  const auto tb = GenerateTrace(specs, 300, b);
  for (std::size_t k = 0; k < 300; ++k) {
    EXPECT_EQ(ta.events[k].user, tb.events[k].user);
    EXPECT_EQ(ta.events[k].file, tb.events[k].file);
  }
}

// FNV-1a over every event's user, file, spurious flag and time bits, then
// over the caller's next draw, so any change to the generated stream or to
// how many draws it consumed changes the hash.
std::uint64_t StreamHash(const std::vector<UserTraceSpec>& specs,
                         std::size_t events, std::uint64_t seed) {
  Rng rng(seed);
  const Trace trace = GenerateTrace(specs, events, rng);
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const AccessEvent& e : trace.events) {
    mix(e.user);
    mix(e.file);
    mix(e.spurious ? 1 : 0);
    mix(std::bit_cast<std::uint64_t>(e.time_sec));
  }
  mix(rng.NextU64());
  return h;
}

// The preferences Daemon::PrepareGen builds when every user is active.
std::vector<UserTraceSpec> GenSpecs(std::size_t users, std::size_t files) {
  Matrix prefs(users, files, 0.0);
  for (std::size_t i = 0; i < users; ++i) {
    for (std::size_t j = 0; j < files; ++j) {
      prefs(i, j) = 1.0 / (1.0 + static_cast<double>((j + 3 * i) % files));
    }
  }
  return TruthfulSpecs(prefs);
}

// The hashes were recorded with the generator that summed every
// distribution on every draw; sampling from prebuilt distributions must
// reproduce its streams bit for bit. The seed is the first `gen` seed of a
// benchmark run with --seed 1.
TEST(TraceTest, PinnedStreamsForBenchmarkGenShapes) {
  EXPECT_EQ(StreamHash(GenSpecs(4, 32), 50000, 1000003),
            0xf34b46d7eebf51beull);
  EXPECT_EQ(StreamHash(GenSpecs(32, 512), 20000, 1000003),
            0x8f8f28b9f59ea9e8ull);
  EXPECT_EQ(StreamHash(GenSpecs(16, 256), 50000, 1000003),
            0xf0c799dd9085e87dull);
}

TEST(TraceTest, PinnedStreamsForCheatingSpecs) {
  auto tripling = GenSpecs(4, 32);
  tripling[1].genuine_rate = 0.3;
  tripling[2].genuine_rate = 1.7;
  ApplyRateTripling(tripling[0], 0);
  ApplyRateTripling(tripling[2], 250);
  EXPECT_EQ(StreamHash(tripling, 20000, 11), 0xeaa78ea057ab8497ull);

  auto shift = GenSpecs(3, 16);
  shift[1].genuine_rate = 0.1;
  std::vector<double> claim0(16, 0.0), claim2(16, 1.0);
  claim0[15] = 1.0;
  claim2[0] = 5.0;
  ApplyPreferenceShift(shift[0], 100, claim0, 4.0);
  ApplyPreferenceShift(shift[2], 1000, claim2, 0.7);
  EXPECT_EQ(StreamHash(shift, 20000, 12), 0xff9c82482f8e568eull);
}

TEST(TraceDeathTest, RejectsNonFiniteWeightsAndRates) {
  auto inf_weight = TwoUserSpecs();
  inf_weight[1].true_prefs = {1.0, kInf, 1.0};
  auto nan_weight = TwoUserSpecs();
  nan_weight[0].true_prefs = {kNaN, 1.0, 1.0};
  auto inf_rate = TwoUserSpecs();
  inf_rate[1].genuine_rate = kInf;
  auto inf_spurious = TwoUserSpecs();
  ApplyRateTripling(inf_spurious[0], 10);
  inf_spurious[0].spurious_rate = kInf;
  auto nan_spurious = TwoUserSpecs();
  nan_spurious[1].spurious_rate = kNaN;
  Rng rng(13);
  EXPECT_DEATH(GenerateTrace(inf_weight, 10, rng), "weight 1 is inf");
  EXPECT_DEATH(GenerateTrace(nan_weight, 10, rng), "weight 0 is nan");
  EXPECT_DEATH(GenerateTrace(inf_rate, 10, rng),
               "user 1 genuine_rate is inf");
  EXPECT_DEATH(GenerateTrace(inf_spurious, 10, rng),
               "user 0 spurious_rate is inf");
  EXPECT_DEATH(GenerateTrace(nan_spurious, 10, rng),
               "user 1 spurious_rate is nan");
}

}  // namespace
}  // namespace opus::workload
