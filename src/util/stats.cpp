#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace dtmsv::util {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::mean() const {
  DTMSV_EXPECTS(count_ > 0);
  return mean_;
}

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  DTMSV_EXPECTS(count_ > 0);
  return min_;
}

double RunningStats::max() const {
  DTMSV_EXPECTS(count_ > 0);
  return max_;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
  DTMSV_EXPECTS(hi > lo);
  DTMSV_EXPECTS(bins > 0);
}

void Histogram::add(double x) {
  std::size_t bin = 0;
  if (x >= hi_) {
    bin = counts_.size() - 1;
  } else if (x > lo_) {
    bin = static_cast<std::size_t>((x - lo_) / width_);
    bin = std::min(bin, counts_.size() - 1);
  }
  ++counts_[bin];
  ++total_;
}

void Histogram::reset() {
  std::fill(counts_.begin(), counts_.end(), std::size_t{0});
  total_ = 0;
}

double Histogram::density(std::size_t bin) const {
  DTMSV_EXPECTS(bin < counts_.size());
  if (total_ == 0) {
    return 0.0;
  }
  return static_cast<double>(counts_[bin]) / static_cast<double>(total_);
}

std::vector<double> Histogram::densities() const {
  std::vector<double> out(counts_.size());
  if (total_ == 0) {
    std::fill(out.begin(), out.end(), 1.0 / static_cast<double>(counts_.size()));
    return out;
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = static_cast<double>(counts_[i]) / static_cast<double>(total_);
  }
  return out;
}

Ewma::Ewma(double alpha) : alpha_(alpha) {
  DTMSV_EXPECTS(alpha > 0.0 && alpha <= 1.0);
}

void Ewma::add(double x) {
  if (!has_value_) {
    value_ = x;
    has_value_ = true;
  } else {
    value_ = alpha_ * x + (1.0 - alpha_) * value_;
  }
}

double Ewma::value() const {
  DTMSV_EXPECTS(has_value_);
  return value_;
}

void Ewma::reset() {
  has_value_ = false;
  value_ = 0.0;
}

double mean(std::span<const double> xs) {
  DTMSV_EXPECTS(!xs.empty());
  double total = 0.0;
  for (const double x : xs) {
    total += x;
  }
  return total / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) {
    return 0.0;
  }
  const double m = mean(xs);
  double total = 0.0;
  for (const double x : xs) {
    total += (x - m) * (x - m);
  }
  return total / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double percentile(std::vector<double> xs, double p) {
  DTMSV_EXPECTS(!xs.empty());
  DTMSV_EXPECTS(p >= 0.0 && p <= 100.0);
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  DTMSV_EXPECTS(xs.size() == ys.size());
  DTMSV_EXPECTS(!xs.empty());
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  if (sxx <= 0.0 || syy <= 0.0) {
    return 0.0;
  }
  return sxy / std::sqrt(sxx * syy);
}

std::optional<double> mape(std::span<const double> actual,
                           std::span<const double> predicted, double eps) {
  DTMSV_EXPECTS(actual.size() == predicted.size());
  double total = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (std::abs(actual[i]) > eps) {
      total += std::abs((actual[i] - predicted[i]) / actual[i]);
      ++n;
    }
  }
  if (n == 0) {
    return std::nullopt;
  }
  return total / static_cast<double>(n);
}

std::optional<double> prediction_accuracy(std::span<const double> actual,
                                          std::span<const double> predicted) {
  const auto err = mape(actual, predicted);
  if (!err) {
    return std::nullopt;
  }
  return std::max(0.0, 1.0 - *err);
}

std::optional<double> volume_weighted_accuracy(std::span<const double> actual,
                                               std::span<const double> predicted) {
  DTMSV_EXPECTS(actual.size() == predicted.size());
  double abs_err = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    abs_err += std::abs(actual[i] - predicted[i]);
    total += actual[i];
  }
  if (total <= 0.0) {
    return std::nullopt;
  }
  return std::max(0.0, 1.0 - abs_err / total);
}

double rmse(std::span<const double> actual, std::span<const double> predicted) {
  DTMSV_EXPECTS(actual.size() == predicted.size());
  DTMSV_EXPECTS(!actual.empty());
  double total = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const double d = actual[i] - predicted[i];
    total += d * d;
  }
  return std::sqrt(total / static_cast<double>(actual.size()));
}

}  // namespace dtmsv::util
