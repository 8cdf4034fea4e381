#include "behavior/preference.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace dtmsv::behavior {

PreferenceVector normalized(const PreferenceVector& v) {
  double total = 0.0;
  for (const double x : v) {
    total += x;
  }
  PreferenceVector out{};
  if (total <= 0.0) {
    out.fill(1.0 / static_cast<double>(video::kCategoryCount));
    return out;
  }
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = v[i] / total;
  }
  return out;
}

std::size_t top_category(const PreferenceVector& v) {
  return static_cast<std::size_t>(
      std::distance(v.begin(), std::max_element(v.begin(), v.end())));
}

PreferenceEstimator::PreferenceEstimator(double forgetting) : forgetting_(forgetting) {
  DTMSV_EXPECTS(forgetting > 0.0 && forgetting <= 1.0);
}

void PreferenceEstimator::observe(video::Category category, double engagement_seconds) {
  DTMSV_EXPECTS(engagement_seconds >= 0.0);
  weights_[static_cast<std::size_t>(category)] += engagement_seconds;
}

void PreferenceEstimator::decay() {
  for (double& w : weights_) {
    w *= forgetting_;
  }
}

PreferenceVector PreferenceEstimator::estimate() const { return normalized(weights_); }

double PreferenceEstimator::evidence_seconds() const {
  double total = 0.0;
  for (const double w : weights_) {
    total += w;
  }
  return total;
}

PreferenceVector sample_affinity(double concentration, util::Rng& rng) {
  DTMSV_EXPECTS(concentration > 0.0);
  const std::vector<double> alpha(video::kCategoryCount, concentration);
  const auto sample = rng.dirichlet(alpha);
  PreferenceVector out{};
  std::copy(sample.begin(), sample.end(), out.begin());
  return out;
}

}  // namespace dtmsv::behavior
