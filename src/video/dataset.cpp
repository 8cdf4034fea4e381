#include "video/dataset.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace dtmsv::video {

double sample_watch_fraction(double affinity, const EngagementConfig& config,
                             util::Rng& rng) {
  DTMSV_EXPECTS(affinity >= 0.0 && affinity <= 1.0);
  // Instant-swipe spike.
  if (rng.bernoulli(config.instant_swipe_prob)) {
    return rng.uniform(0.0, 0.08);
  }
  // Beta-distributed engagement whose mean tracks affinity. Concentration
  // grows slightly with affinity: fans are more consistent than skimmers.
  const double mean = std::clamp(
      config.engagement_base + config.engagement_gain * affinity, 0.02, 0.98);
  const double concentration = 1.5 + 2.0 * affinity;
  const double a = mean * concentration;
  const double b = (1.0 - mean) * concentration;
  const double frac = rng.beta(a, b);
  // Viewers very close to the end almost always finish.
  return frac > 0.93 ? 1.0 : frac;
}

}  // namespace dtmsv::video
