#include "analysis/swiping.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace dtmsv::analysis {

SwipingDistribution::SwipingDistribution(std::size_t bins, double forgetting)
    : bins_(bins), forgetting_(forgetting), all_(bins, 0.0) {
  DTMSV_EXPECTS(bins >= 2);
  DTMSV_EXPECTS(forgetting > 0.0 && forgetting <= 1.0);
  for (auto& w : per_category_) {
    w.assign(bins, 0.0);
  }
}

void SwipingDistribution::observe(video::Category category, double watch_fraction) {
  DTMSV_EXPECTS(watch_fraction >= 0.0 && watch_fraction <= 1.0 + 1e-9);
  const double f = std::clamp(watch_fraction, 0.0, 1.0);
  auto bin = static_cast<std::size_t>(f * static_cast<double>(bins_));
  bin = std::min(bin, bins_ - 1);
  per_category_[static_cast<std::size_t>(category)][bin] += 1.0;
  all_[bin] += 1.0;
}

void SwipingDistribution::decay() {
  for (auto& weights : per_category_) {
    for (double& w : weights) {
      w *= forgetting_;
    }
  }
  for (double& w : all_) {
    w *= forgetting_;
  }
}

double SwipingDistribution::mass(video::Category category) const {
  const auto& w = per_category_[static_cast<std::size_t>(category)];
  double total = 0.0;
  for (const double x : w) {
    total += x;
  }
  return total;
}

const std::vector<double>& SwipingDistribution::weights_for(
    video::Category category) const {
  const auto& w = per_category_[static_cast<std::size_t>(category)];
  double total = 0.0;
  for (const double x : w) {
    total += x;
  }
  if (total > 0.0) {
    return w;
  }
  return all_;
}

double SwipingDistribution::cumulative_from(const std::vector<double>& weights,
                                            double t) const {
  const double tc = std::clamp(t, 0.0, 1.0);
  double total = 0.0;
  for (const double x : weights) {
    total += x;
  }
  if (total <= 0.0) {
    return tc;  // uninformed prior: uniform swiping
  }
  // Piecewise-linear CDF: mass of bin b spreads uniformly over its span.
  const double pos = tc * static_cast<double>(bins_);
  const auto full_bins = static_cast<std::size_t>(pos);
  double acc = 0.0;
  for (std::size_t b = 0; b < full_bins && b < bins_; ++b) {
    acc += weights[b];
  }
  if (full_bins < bins_) {
    acc += weights[full_bins] * (pos - static_cast<double>(full_bins));
  }
  return acc / total;
}

double SwipingDistribution::cumulative_swipe_probability(video::Category category,
                                                         double t) const {
  return cumulative_from(weights_for(category), t);
}

double SwipingDistribution::expected_watch_fraction(video::Category category) const {
  const auto& weights = weights_for(category);
  double total = 0.0;
  double acc = 0.0;
  for (std::size_t b = 0; b < bins_; ++b) {
    const double mid = (static_cast<double>(b) + 0.5) / static_cast<double>(bins_);
    acc += weights[b] * mid;
    total += weights[b];
  }
  if (total <= 0.0) {
    return 0.5;  // uniform prior
  }
  return acc / total;
}

double SwipingDistribution::expected_max_watch_fraction(video::Category category,
                                                        std::size_t k) const {
  DTMSV_EXPECTS(k >= 1);
  const auto& weights = weights_for(category);
  // E[max] = ∫ (1 - F(t)^k) dt over [0,1], midpoint rule on the grid.
  const double dt = 1.0 / static_cast<double>(bins_);
  double acc = 0.0;
  for (std::size_t b = 0; b < bins_; ++b) {
    const double mid = (static_cast<double>(b) + 0.5) * dt;
    const double cdf = cumulative_from(weights, mid);
    acc += (1.0 - std::pow(cdf, static_cast<double>(k))) * dt;
  }
  return std::min(acc, 1.0);
}

SwipingDistribution build_group_swiping(
    const std::vector<const twin::UserDigitalTwin*>& members, util::SimTime now,
    double window_s, std::size_t bins, double forgetting) {
  DTMSV_EXPECTS(std::isfinite(now));
  DTMSV_EXPECTS(window_s > 0.0);
  SwipingDistribution dist(bins, forgetting);
  for (const auto* member : members) {
    DTMSV_EXPECTS(member != nullptr);
    const twin::WatchColumn& column = member->columns().watch_column();
    column.for_each_slot_in(member->slot(), now - window_s, now, [&](std::size_t at) {
      const twin::WatchObservation obs = column.at_slot(at);
      dist.observe(obs.category, obs.watch_fraction);
    });
  }
  return dist;
}

}  // namespace dtmsv::analysis
