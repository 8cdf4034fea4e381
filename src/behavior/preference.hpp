// User preference dynamics. Each user has a latent category-affinity vector
// (ground truth driving watch behaviour) and the system maintains an
// observed estimate updated from engagement, exactly as the paper states:
// "Users' preferences are updated based on preference labels and engagement
// time."
#pragma once

#include <array>
#include <cstddef>
#include <span>

#include "util/rng.hpp"
#include "video/catalog.hpp"

namespace dtmsv::behavior {

using PreferenceVector = std::array<double, video::kCategoryCount>;

/// Normalises a non-negative vector into a probability vector; uniform when
/// the sum is zero.
PreferenceVector normalized(const PreferenceVector& v);

/// Index of the strongest category.
std::size_t top_category(const PreferenceVector& v);

/// Engagement-driven preference estimator (exponential forgetting).
///
/// Each observed (category, engagement_seconds) pair adds weight to that
/// category; periodic decay keeps the estimate tracking drifting taste.
class PreferenceEstimator {
 public:
  /// `forgetting` in (0, 1]: multiplier applied by decay(); 1 = no decay.
  explicit PreferenceEstimator(double forgetting = 0.9);

  /// Accumulates watched seconds as evidence for `category`.
  void observe(video::Category category, double engagement_seconds);

  /// Applies one forgetting step (call once per reservation interval).
  void decay();

  /// Current normalised preference estimate (uniform before any evidence).
  PreferenceVector estimate() const;

  /// Total accumulated evidence in seconds.
  double evidence_seconds() const;

 private:
  double forgetting_;
  PreferenceVector weights_{};
};

/// Draws a ground-truth affinity vector for a new user.
PreferenceVector sample_affinity(double concentration, util::Rng& rng);

}  // namespace dtmsv::behavior
