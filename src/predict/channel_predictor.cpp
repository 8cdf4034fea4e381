#include "predict/channel_predictor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/error.hpp"

namespace dtmsv::predict {

namespace {

/// Calls fn(time, efficiency) over `user`'s channel samples with time in
/// [now - window_s, now), oldest first.
template <typename Fn>
void for_each_in_window(const twin::ChannelColumn& channel, std::size_t user,
                        util::SimTime now, double window_s, Fn&& fn) {
  const util::SimTime from = now - window_s;
  DTMSV_EXPECTS(user < channel.user_count());
  DTMSV_EXPECTS(from <= now);
  const std::vector<double>& times = channel.times();
  const std::vector<double>& efficiency = channel.efficiency();
  channel.for_each_slot_in(user, from, now,
                           [&](std::size_t at) { fn(times[at], efficiency[at]); });
}

}  // namespace

double LastValuePredictor::predict(const twin::ChannelColumn& channel, std::size_t user,
                                   util::SimTime now, double window_s,
                                   double fallback) const {
  std::size_t count = 0;
  double last = 0.0;
  for_each_in_window(channel, user, now, window_s, [&](double, double efficiency) {
    ++count;
    last = efficiency;
  });
  if (count == 0) {
    return fallback;
  }
  return std::max(0.0, last);
}

EwmaPredictor::EwmaPredictor(double alpha) : alpha_(alpha) {
  DTMSV_EXPECTS(alpha > 0.0 && alpha <= 1.0);
}

double EwmaPredictor::predict(const twin::ChannelColumn& channel, std::size_t user,
                              util::SimTime now, double window_s, double fallback) const {
  std::size_t count = 0;
  double value = 0.0;
  for_each_in_window(channel, user, now, window_s, [&](double, double efficiency) {
    value = count++ == 0 ? efficiency : alpha_ * efficiency + (1.0 - alpha_) * value;
  });
  if (count == 0) {
    return fallback;
  }
  return std::max(0.0, value);
}

LinearTrendPredictor::LinearTrendPredictor(double horizon_s) : horizon_s_(horizon_s) {
  DTMSV_EXPECTS(horizon_s >= 0.0);
}

double LinearTrendPredictor::predict(const twin::ChannelColumn& channel, std::size_t user,
                                     util::SimTime now, double window_s,
                                     double fallback) const {
  // OLS on (t, efficiency), times centred at `now` for conditioning.
  std::size_t count = 0;
  double last = 0.0;
  double sx = 0.0;
  double sy = 0.0;
  double sxx = 0.0;
  double sxy = 0.0;
  for_each_in_window(channel, user, now, window_s, [&](double time, double efficiency) {
    ++count;
    last = efficiency;
    const double x = time - now;
    sx += x;
    sy += efficiency;
    sxx += x * x;
    sxy += x * efficiency;
  });
  if (count == 0) {
    return fallback;
  }
  if (count < 3) {
    return std::max(0.0, last);
  }
  const auto n = static_cast<double>(count);
  const double denom = n * sxx - sx * sx;
  if (std::abs(denom) < 1e-12) {
    return std::max(0.0, sy / n);
  }
  const double slope = (n * sxy - sx * sy) / denom;
  const double intercept = (sy - slope * sx) / n;
  return std::max(0.0, intercept + slope * horizon_s_);
}

double MeanPredictor::predict(const twin::ChannelColumn& channel, std::size_t user,
                              util::SimTime now, double window_s, double fallback) const {
  std::size_t count = 0;
  double total = 0.0;
  for_each_in_window(channel, user, now, window_s, [&](double, double efficiency) {
    ++count;
    total += efficiency;
  });
  if (count == 0) {
    return fallback;
  }
  return std::max(0.0, total / static_cast<double>(count));
}

double predict_group_efficiency(const std::vector<const twin::UserDigitalTwin*>& members,
                                const EfficiencyPredictor& predictor,
                                util::SimTime now, double window_s, double floor) {
  DTMSV_EXPECTS_MSG(!members.empty(), "predict_group_efficiency: empty group");
  DTMSV_EXPECTS(floor > 0.0);
  double worst = std::numeric_limits<double>::infinity();
  for (const auto* member : members) {
    DTMSV_EXPECTS(member != nullptr);
    worst = std::min(worst, predictor.predict(member->columns().channel_column(),
                                              member->slot(), now, window_s));
  }
  return std::max(worst, floor);
}

GroupChannelForecast forecast_group_channel(
    const std::vector<const twin::UserDigitalTwin*>& members, util::SimTime now,
    double window_s, double floor, double bin_s) {
  DTMSV_EXPECTS_MSG(!members.empty(), "forecast_group_channel: empty group");
  DTMSV_EXPECTS(std::isfinite(now));
  DTMSV_EXPECTS(floor > 0.0);
  DTMSV_EXPECTS(window_s > 0.0 && bin_s > 0.0);

  GroupChannelForecast forecast;
  forecast.efficiency = floor;

  const auto bins = static_cast<std::size_t>(window_s / bin_s);
  if (bins == 0) {
    forecast.min_series.push_back(floor);
    return forecast;
  }
  const util::SimTime from = now - window_s;
  constexpr double kUnset = std::numeric_limits<double>::infinity();

  // Per-bin minimum efficiency across members (zero-order hold per member).
  std::vector<double> min_series(bins, kUnset);
  std::vector<double> member_series(bins);
  for (const auto* member : members) {
    DTMSV_EXPECTS(member != nullptr);
    std::fill(member_series.begin(), member_series.end(), kUnset);
    // The time and efficiency lanes are flat arrays: the per-bin pass
    // streams through them.
    const twin::ChannelColumn& column = member->columns().channel_column();
    const std::vector<double>& times = column.times();
    const std::vector<double>& efficiency = column.efficiency();
    column.for_each_slot_in(member->slot(), from, now, [&](std::size_t at) {
      auto b = static_cast<std::size_t>((times[at] - from) / bin_s);
      b = std::min(b, bins - 1);
      // Keep the last sample per bin (samples arrive time-ordered).
      member_series[b] = efficiency[at];
    });
    // Hold forward through empty bins (report loss / slow collection).
    double hold = kUnset;
    for (std::size_t b = 0; b < bins; ++b) {
      if (member_series[b] != kUnset) {
        hold = member_series[b];
      } else if (hold != kUnset) {
        member_series[b] = hold;
      }
    }
    for (std::size_t b = 0; b < bins; ++b) {
      if (member_series[b] != kUnset) {
        min_series[b] = std::min(min_series[b], member_series[b]);
      }
    }
  }

  // Floored, filled bins become the empirical operating-point distribution;
  // their harmonic mean matches the ∫ bits/eff accounting.
  double inv_sum = 0.0;
  for (const double v : min_series) {
    if (v == kUnset) {
      continue;
    }
    const double floored = std::max(v, floor);
    forecast.min_series.push_back(floored);
    inv_sum += 1.0 / floored;
  }
  if (forecast.min_series.empty()) {
    forecast.min_series.push_back(floor);
    return forecast;
  }
  forecast.efficiency = std::max(
      static_cast<double>(forecast.min_series.size()) / inv_sum, floor);
  return forecast;
}

}  // namespace dtmsv::predict
