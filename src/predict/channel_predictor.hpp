// Per-user spectral-efficiency prediction from UDT channel history: the
// radio-side input to group demand prediction. A multicast group's next-
// interval efficiency is the minimum of its members' predictions.
//
// Histories are read straight from the twin store's channel column
// (twin/columns.hpp): each predictor walks one user's window of the time
// and efficiency lanes.
#pragma once

#include <memory>
#include <string>

#include "twin/udt.hpp"

namespace dtmsv::predict {

/// Predicts a user's mean spectral efficiency over the next interval from
/// their channel history in the twin store.
class EfficiencyPredictor {
 public:
  virtual ~EfficiencyPredictor() = default;
  EfficiencyPredictor() = default;
  EfficiencyPredictor(const EfficiencyPredictor&) = delete;
  EfficiencyPredictor& operator=(const EfficiencyPredictor&) = delete;

  /// Prediction from `user`'s samples in `channel` with time in
  /// [now - window_s, now). Returns a non-negative efficiency;
  /// implementations fall back to `fallback` when the window is empty.
  virtual double predict(const twin::ChannelColumn& channel, std::size_t user,
                         util::SimTime now, double window_s,
                         double fallback = 0.5) const = 0;

  virtual std::string name() const = 0;
};

/// Uses the most recent sample only.
class LastValuePredictor final : public EfficiencyPredictor {
 public:
  double predict(const twin::ChannelColumn& channel, std::size_t user, util::SimTime now,
                 double window_s, double fallback) const override;
  std::string name() const override { return "last-value"; }
};

/// Exponentially weighted mean over the window (newest weighted most).
class EwmaPredictor final : public EfficiencyPredictor {
 public:
  explicit EwmaPredictor(double alpha = 0.3);
  double predict(const twin::ChannelColumn& channel, std::size_t user, util::SimTime now,
                 double window_s, double fallback) const override;
  std::string name() const override { return "ewma"; }

 private:
  double alpha_;
};

/// Ordinary-least-squares line over the window extrapolated to the middle
/// of the next interval (clamped to be non-negative).
class LinearTrendPredictor final : public EfficiencyPredictor {
 public:
  /// `horizon_s`: how far past `now` to extrapolate.
  explicit LinearTrendPredictor(double horizon_s = 150.0);
  double predict(const twin::ChannelColumn& channel, std::size_t user, util::SimTime now,
                 double window_s, double fallback) const override;
  std::string name() const override { return "linear-trend"; }

 private:
  double horizon_s_;
};

/// Window mean (the simplest robust predictor).
class MeanPredictor final : public EfficiencyPredictor {
 public:
  double predict(const twin::ChannelColumn& channel, std::size_t user, util::SimTime now,
                 double window_s, double fallback) const override;
  std::string name() const override { return "mean"; }
};

/// Group efficiency: the minimum over members' predictions, floored at
/// `floor` (multicast must serve the worst member). Simple composition —
/// biased optimistic for large groups because min(E[X_i]) ≥ E[min X_i].
double predict_group_efficiency(const std::vector<const twin::UserDigitalTwin*>& members,
                                const EfficiencyPredictor& predictor,
                                util::SimTime now, double window_s,
                                double floor = 0.05);

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

/// Convenience: harmonic-mean group efficiency only (see
/// forecast_group_channel).
double predict_group_efficiency_joint(
    const std::vector<const twin::UserDigitalTwin*>& members, util::SimTime now,
    double window_s, double floor = 0.05, double bin_s = 1.0);

}  // namespace dtmsv::predict
