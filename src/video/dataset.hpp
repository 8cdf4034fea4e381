// Engagement model: the synthetic stand-in for the swiping behaviour of
// the "public short-video-streaming-challenge dataset" the paper evaluates
// on. The real dataset is not redistributable in this offline environment;
// instead every live path (warm-up sessions, group playback, the serve
// workload) draws watch fractions from sample_watch_fraction, which
// reproduces the dataset's published shape: heavy-tailed watch fractions
// whose mean rises with the viewer's affinity for the clip's category
// (early-swipe spike + finishers). The catalog side of the stand-in
// (bitrate ladders, clip durations) is video/catalog.hpp.
#pragma once

#include "util/rng.hpp"
#include "video/catalog.hpp"

namespace dtmsv::video {

/// Engagement parameters, plus the catalog the viewer's feed draws from.
struct EngagementConfig {
  CatalogConfig catalog;
  /// Probability a viewer abandons within the first 2 s regardless of
  /// affinity (the "instant swipe" spike every short-video platform shows).
  double instant_swipe_prob = 0.18;
  /// Affinity-to-engagement shape: mean watch fraction for affinity a is
  /// roughly base + gain * a (clamped to [0, 1]).
  double engagement_base = 0.25;
  double engagement_gain = 2.2;
};

/// Samples a single watch fraction in [0, 1] for a viewer with the given
/// affinity for the video's category. With probability instant_swipe_prob
/// it is uniform on [0, 0.08); otherwise it is Beta-distributed with mean
/// clamp(base + gain * affinity, 0.02, 0.98) and concentration
/// 1.5 + 2 * affinity, and a draw above 0.93 is rounded up to 1 (the
/// viewer finishes the clip).
double sample_watch_fraction(double affinity, const EngagementConfig& config,
                             util::Rng& rng);

}  // namespace dtmsv::video
