// Ablation: robustness to preference estimation noise — how accurate must
// the frequency-learning window be before OpuS's behaviour stabilizes?
//
// The deployed system estimates preferences from a finite access window
// (Sec. V-A); a preference carrying mass p estimated over W accesses has a
// relative error of ~1/sqrt(p*W). This bench sweeps the log-normal noise
// sigma, reports the utility/allocation/verdict movement it causes for
// OpuS and FairRide, and translates each sigma back into the window length
// that would produce it for a typical (p = 0.1) file.
#include <cmath>
#include <cstdio>
#include <iterator>
#include <utility>

#include "analysis/report.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/fairride.h"
#include "core/opus.h"
#include "core/sensitivity.h"
#include "scenarios.h"

namespace opus::bench {
namespace {

constexpr std::size_t kUsers = 12;
constexpr std::size_t kFiles = 30;
constexpr double kCapacity = 15.0;
constexpr int kTrials = 15;

int Main() {
  Rng prng(24601);
  const auto problem = ZipfProblem(kUsers, kFiles, kCapacity, prng, 1.1);

  std::puts("Ablation: sensitivity to preference-estimation noise");
  std::printf("(%zu users x %zu files, sigma = log-normal relative error; "
              "window = accesses needed for that error on a p=0.1 file)\n\n",
              kUsers, kFiles);

  analysis::Table table("outcome movement vs estimation noise");
  table.AddHeader({"sigma", "~window", "opus dU(max)", "opus drift",
                   "opus verdict flips", "fairride dU(max)"});
  // Each sigma row reseeds its own Rngs, so the rows are independent: run
  // them on the shared pool and print in order. The rows share `problem`,
  // so its lazily built CSR view is built here, before any thread reads it.
  problem.PreferencesCsr();
  const double sigmas[] = {0.02, 0.05, 0.1, 0.2, 0.4, 0.8};
  constexpr std::size_t kRows = std::size(sigmas);
  std::pair<SensitivityResult, SensitivityResult> rows[kRows];
  ParallelOver(kRows, [&](std::size_t k) {
    Rng rng1(7000), rng2(7000);
    rows[k].first = MeasureNoiseSensitivity(OpusAllocator(), problem,
                                            sigmas[k], rng1, kTrials);
    rows[k].second = MeasureNoiseSensitivity(FairRideAllocator(), problem,
                                             sigmas[k], rng2, kTrials);
  });
  for (std::size_t k = 0; k < kRows; ++k) {
    const double sigma = sigmas[k];
    const auto& opus_r = rows[k].first;
    const auto& fr_r = rows[k].second;
    // Invert SigmaForWindow for p = 0.1: W = 1 / (p * sigma^2).
    const double window = 1.0 / (0.1 * sigma * sigma);
    table.AddRow({StrFormat("%.2f", sigma),
                  StrFormat("%.0f", window),
                  StrFormat("%.3f", opus_r.mean_max_utility_delta),
                  StrFormat("%.2f", opus_r.mean_allocation_drift),
                  StrFormat("%.0f%%", 100 * opus_r.verdict_flip_rate),
                  StrFormat("%.3f", fr_r.mean_max_utility_delta)});
  }
  table.Print();
  std::puts("Reading: with the paper's 20-minute window (thousands of "
            "accesses, sigma <~ 0.05) the mechanism's outcome moves by well "
            "under a point of hit ratio; only starved windows (sigma >~ "
            "0.4, i.e. tens of accesses) destabilize the sharing verdict.");
  return 0;
}

}  // namespace
}  // namespace opus::bench

int main() { return opus::bench::Main(); }
