// Group channel-efficiency forecasts from UDT channel history: the
// radio-side input to group demand prediction. The paper's joint forecast
// (forecast_group_channel) reconstructs the group's min-over-members
// series; the per-member baselines predict each member alone and take the
// minimum (predict_group_efficiency).
//
// Histories are read straight from the twin store's channel column
// (twin/columns.hpp): each predictor walks one user's window of the time
// and efficiency lanes.
#pragma once

#include <cstddef>
#include <vector>

#include "twin/udt.hpp"

namespace dtmsv::predict {

// Per-member efficiency predictors. Each returns `user`'s predicted mean
// spectral efficiency over the next interval from their samples in
// `channel` with time in [now - window_s, now): non-negative, or
// `fallback` when that window is empty. They back the per-member demand
// stage keys in core/pipeline.cpp ("last_value", "ewma", "linear_trend",
// "mean").

/// A per-member predictor as predict_group_efficiency takes it. The EWMA
/// and trend predictors take one more tuning argument, so a caller wraps
/// them at a fixed tuning.
using MemberPredictor = double (*)(const twin::ChannelColumn& channel, std::size_t user,
                                   util::SimTime now, double window_s, double fallback);

/// The most recent sample only.
double last_value_efficiency(const twin::ChannelColumn& channel, std::size_t user,
                             util::SimTime now, double window_s, double fallback = 0.5);

/// Exponentially weighted mean over the window, newest weighted most
/// (`alpha` in (0, 1] weighs each new sample).
double ewma_efficiency(const twin::ChannelColumn& channel, std::size_t user,
                       util::SimTime now, double window_s, double fallback = 0.5,
                       double alpha = 0.3);

/// Ordinary-least-squares line over the window extrapolated `horizon_s`
/// (>= 0) past `now`, the middle of the next interval (clamped to be
/// non-negative).
double linear_trend_efficiency(const twin::ChannelColumn& channel, std::size_t user,
                               util::SimTime now, double window_s,
                               double fallback = 0.5, double horizon_s = 150.0);

/// Window mean (the simplest robust predictor).
double mean_efficiency(const twin::ChannelColumn& channel, std::size_t user,
                       util::SimTime now, double window_s, double fallback = 0.5);

/// Group efficiency: the minimum over members' `predictor` forecasts (each
/// with fallback 0.5), floored at `floor` (multicast must serve the worst
/// member). Simple composition — biased optimistic for large groups because
/// min(E[X_i]) ≥ E[min X_i].
double predict_group_efficiency(const std::vector<const twin::UserDigitalTwin*>& members,
                                MemberPredictor predictor, util::SimTime now,
                                double window_s, double floor = 0.05);

/// Joint forecast of a group's multicast channel: the reconstructed
/// per-second min-over-members efficiency series and its harmonic mean.
struct GroupChannelForecast {
  /// Harmonic mean of the floored min-series — matches the multicast
  /// accounting identity bandwidth = bits·mean(1/eff) exactly.
  double efficiency = 0.05;
  /// Floored min-over-members efficiency per filled 1-s history bin; the
  /// empirical distribution of the group's link-adaptation operating points.
  std::vector<double> min_series;
};

/// Reconstructs the per-bin min-over-members efficiency from the members'
/// aligned twin channel histories (zero-order hold per member through
/// report gaps). Bins no member has covered are omitted; with no samples at
/// all the forecast degenerates to a single `floor` bin.
GroupChannelForecast forecast_group_channel(
    const std::vector<const twin::UserDigitalTwin*>& members, util::SimTime now,
    double window_s, double floor = 0.05, double bin_s = 1.0);

}  // namespace dtmsv::predict
