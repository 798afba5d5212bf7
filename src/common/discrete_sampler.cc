#include "common/discrete_sampler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"

namespace opus {

DiscreteSampler::DiscreteSampler(std::vector<double> weights)
    : weights_(std::move(weights)) {
  prefix_.reserve(weights_.size());
  for (std::size_t k = 0; k < weights_.size(); ++k) {
    const double w = weights_[k];
    OPUS_CHECK_MSG(std::isfinite(w) && w >= 0.0,
                   "weight " << k << " is " << w);
    total_ += w;
    if (k + 1 < weights_.size()) prefix_.push_back(total_);
  }
  OPUS_CHECK_MSG(std::isfinite(total_) && total_ > 0.0,
                 "weight total is " << total_);
  // Each subtraction in the chain and each addition in the running sums
  // rounds by at most 2^-53 times a value no larger than the total, so
  // chain value k and x - prefix_[k] differ by at most (3k + 2) 2^-53 total.
  // The band is over twice that for every k, which also absorbs the
  // rounding of the differences SampleAt compares against it. Near
  // underflow the band's own product loses precision, so tiny totals
  // always take the chain.
  const double n = static_cast<double>(weights_.size());
  band_ = total_ > 0x1p-900 ? 8.0 * (n + 1.0) * 0x1p-53 * total_
                            : std::numeric_limits<double>::infinity();
}

std::size_t DiscreteSampler::SampleAt(double u) const {
  double x = u * total_;
  // First k whose running sum exceeds x: the chain's answer unless x lies
  // within the rounding band of the sum on either side of it.
  const std::size_t k =
      std::upper_bound(prefix_.begin(), prefix_.end(), x) - prefix_.begin();
  if ((k == 0 || x - prefix_[k - 1] >= band_) &&
      (k == prefix_.size() || prefix_[k] - x >= band_)) {
    return k;
  }
  const std::size_t last = weights_.size() - 1;
  for (std::size_t j = 0; j < last; ++j) {
    x -= weights_[j];
    if (x < 0.0) return j;
  }
  return last;
}

}  // namespace opus
