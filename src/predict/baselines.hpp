// Baseline demand predictors that operate directly on the realized demand
// time series (no digital-twin state). These are the comparators for the
// accuracy table bench (bench/bench_tab_accuracy_summary.cpp).
#pragma once

#include <deque>
#include <string>

#include "util/error.hpp"

namespace dtmsv::predict {

/// Interface: observe the realized demand of each interval, then forecast
/// the next one.
class SeriesPredictor {
 public:
  virtual ~SeriesPredictor() = default;
  SeriesPredictor() = default;
  SeriesPredictor(const SeriesPredictor&) = delete;
  SeriesPredictor& operator=(const SeriesPredictor&) = delete;

  virtual void observe(double realized) = 0;
  /// Forecast for the next interval; `fallback` before any observation.
  virtual double forecast(double fallback = 0.0) const = 0;
  virtual std::string name() const = 0;
};

/// Predicts the previous interval's value.
class LastValueSeries final : public SeriesPredictor {
 public:
  void observe(double realized) override;
  double forecast(double fallback) const override;
  std::string name() const override { return "last-value"; }

 private:
  double last_ = 0.0;
  bool has_ = false;
};

/// Exponentially weighted moving average.
class EwmaSeries final : public SeriesPredictor {
 public:
  explicit EwmaSeries(double alpha = 0.4);
  void observe(double realized) override;
  double forecast(double fallback) const override;
  std::string name() const override { return "ewma"; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool has_ = false;
};

/// Sliding-window mean.
class MovingAverageSeries final : public SeriesPredictor {
 public:
  explicit MovingAverageSeries(std::size_t window = 4);
  void observe(double realized) override;
  double forecast(double fallback) const override;
  std::string name() const override { return "moving-average"; }

 private:
  std::size_t window_;
  std::deque<double> values_;
};

/// AR(1) fitted online over a sliding window: x̂_{n+1} = c + φ·x_n.
class Ar1Series final : public SeriesPredictor {
 public:
  explicit Ar1Series(std::size_t window = 12);
  void observe(double realized) override;
  double forecast(double fallback) const override;
  std::string name() const override { return "ar1"; }

 private:
  std::size_t window_;
  std::deque<double> values_;
};

}  // namespace dtmsv::predict
