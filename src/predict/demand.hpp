// The paper's output stage: group-level radio and computing resource demand
// prediction from the abstracted group information (swiping probability
// distribution, recommended videos, predicted channel efficiency).
//
// Structural model:
//   * every member watches the group's multicast feed continuously;
//   * each distinct video is multicast once, staying on air until its last
//     viewer swipes (expected max watch fraction from the swiping CDF);
//   * radio demand  = transmitted bits / group spectral efficiency,
//     expressed as mean occupied bandwidth over the interval;
//   * computing demand = transcoding cycles for every transmitted bit below
//     the cached top representation.
#pragma once

#include <array>
#include <cstddef>

#include "analysis/recommend.hpp"
#include "analysis/swiping.hpp"
#include "predict/channel_predictor.hpp"
#include "video/catalog.hpp"
#include "video/transcode.hpp"

namespace dtmsv::predict {

/// Joint radio + computing demand for one group over one interval.
struct ResourceDemand {
  double radio_hz = 0.0;         // mean occupied downlink bandwidth
  double compute_cycles = 0.0;   // total ES transcode cycles in the interval
  double transmitted_bits = 0.0; // total multicast payload
  double expected_views = 0.0;   // member view events
  double distinct_videos = 0.0;  // multicast streams started
  std::size_t rung = 0;          // ladder rung selected

  ResourceDemand& operator+=(const ResourceDemand& other);
};

/// Static inputs the demand model needs about the content.
struct ContentStats {
  /// Mean clip duration per category (seconds).
  std::array<double, video::kCategoryCount> mean_duration_s{};
  /// Representative ladder (kbps, ascending).
  std::vector<double> ladder_kbps;
  /// Quantiles (deciles) of the per-video ladder scale factor relative to
  /// `ladder_kbps` — encoder variability across uploads. The demand model
  /// integrates link adaptation over these so rung-boundary effects are
  /// predicted rather than averaged away. {1.0} when the catalog is uniform.
  std::vector<double> ladder_scale_quantiles = {1.0};

  static ContentStats from_catalog(const video::Catalog& catalog);
};

/// Tunables of the demand model.
struct DemandModelConfig {
  double prefetch_s = 2.0;           // segments buffered ahead of playback
  double swipe_gap_s = 0.6;          // dwell between consecutive clips
  /// Per-group multicast bandwidth cap driving rung selection. 0.7 MHz of
  /// a 20 MHz carrier per group keeps ~8 concurrent multicast groups within
  /// a third of the cell; at campus efficiencies it maps groups onto the
  /// 1200–2850 kbps rungs, so served representations sit below the cached
  /// top rung and the ES transcodes continuously (as the paper assumes).
  double group_bandwidth_budget_hz = 0.7e6;
  double efficiency_floor = 0.05;    // outage guard
  video::TranscodeModel transcode{};
};

/// Predicts one group's next-interval demand from abstracted group state,
/// mirroring the group-feed multicast mechanics the simulator executes:
/// the group plays recommended videos back-to-back; every member watches
/// each clip (swiping individually); a clip stays on air until its last
/// viewer swipes (+ prefetch), bounded by the clip length.
///
/// `member_count`: group size; `group_preference`: normalised category mix
/// (fallback when the playlist quota is empty); `swiping`: the group's
/// swiping distribution; `predicted_efficiency`: worst-member spectral
/// efficiency forecast (bits/s/Hz); `playlist_per_category`: recommender
/// quota per category (defines the played category mix); `interval_s`: the
/// reservation interval the forecast covers (SchemeConfig::interval_s).
ResourceDemand predict_group_demand(
    std::size_t member_count, const behavior::PreferenceVector& group_preference,
    const analysis::SwipingDistribution& swiping, double predicted_efficiency,
    const std::array<std::size_t, video::kCategoryCount>& playlist_per_category,
    const ContentStats& content, double interval_s, const DemandModelConfig& config);

/// Channel-distribution-aware variant: instead of one scalar efficiency it
/// consumes the group's forecast min-series and averages the per-operating-
/// point link adaptation decisions (rung, bandwidth-per-bit, transcode
/// need) over it — predicting the *mixture* of rungs the live multicast
/// scheduler will use. The scalar overload above is this one with a
/// single-bin forecast.
ResourceDemand predict_group_demand(
    std::size_t member_count, const behavior::PreferenceVector& group_preference,
    const analysis::SwipingDistribution& swiping,
    const GroupChannelForecast& channel,
    const std::array<std::size_t, video::kCategoryCount>& playlist_per_category,
    const ContentStats& content, double interval_s, const DemandModelConfig& config);

}  // namespace dtmsv::predict
