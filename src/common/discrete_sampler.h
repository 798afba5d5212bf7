// Reusable sampler for a fixed discrete distribution.
//
// The weights are checked and summed once, at construction. Sample() then
// costs one Rng draw and returns exactly the index of the sequential
// subtraction chain
//
//   x = u * total;  for k in [0, n-1): { x -= w[k]; if (x < 0) return k; }
//   return n - 1;
//
// with u = rng.NextDouble() and total the left-to-right sum of the weights.
// Trace generation has always sampled with this chain, so every generated
// workload depends on its answers bit for bit. Sample() finds the answer by
// binary search over the running sums of the weights, and runs the chain
// itself only when x lies so close to a running sum that rounding could
// make the two disagree.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace opus {

class DiscreteSampler {
 public:
  // Requires a non-empty weight vector whose entries are finite and >= 0,
  // with a finite, strictly positive sum.
  explicit DiscreteSampler(std::vector<double> weights);

  // Draws one index with probability proportional to its weight. Consumes
  // exactly one rng.NextDouble().
  std::size_t Sample(Rng& rng) const { return SampleAt(rng.NextDouble()); }

  // The index the chain returns for the uniform draw u in [0, 1).
  std::size_t SampleAt(double u) const;

  // Left-to-right sum of the weights.
  double total() const { return total_; }

 private:
  std::vector<double> weights_;
  std::vector<double> prefix_;  // running sums of all but the last weight
  double total_ = 0.0;
  double band_ = 0.0;
};

}  // namespace opus
