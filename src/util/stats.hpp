// Streaming statistics, histograms and smoothing used across the pipeline:
// UDT attribute summaries, reward normalisation, demand-accuracy metrics,
// and the distance histograms that form the DDQN state.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace dtmsv::util {

/// Welford online mean/variance accumulator.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Mean of observed samples. Requires count() > 0.
  double mean() const;
  /// Unbiased sample variance (0 when count() < 2).
  double variance() const;
  /// sqrt(variance()).
  double stddev() const;
  double min() const;
  double max() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-range histogram with uniform bins; values outside the range are
/// clamped into the first/last bin so mass is never silently dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void reset();

  std::size_t bin_count() const { return counts_.size(); }
  std::size_t total() const { return total_; }
  /// Fraction of samples in `bin` (0 when empty).
  double density(std::size_t bin) const;
  /// All bin densities as a probability vector (uniform when empty).
  std::vector<double> densities() const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Exponentially weighted moving average; the first observation initialises
/// the state directly.
class Ewma {
 public:
  /// `alpha` in (0, 1]: weight of the newest observation.
  explicit Ewma(double alpha);

  void add(double x);
  bool has_value() const { return has_value_; }
  /// Current smoothed value. Requires has_value().
  double value() const;
  void reset();

 private:
  double alpha_;
  double value_ = 0.0;
  bool has_value_ = false;
};

/// Mean of a non-empty span.
double mean(std::span<const double> xs);
/// Unbiased sample variance (0 for fewer than 2 samples).
double variance(std::span<const double> xs);
double stddev(std::span<const double> xs);
/// Linear-interpolated percentile, p in [0, 100]. Requires non-empty input.
double percentile(std::vector<double> xs, double p);
/// Pearson correlation of two equal-length, non-empty spans; 0 when either
/// side has no variance.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Mean absolute percentage error over pairs with non-zero actuals.
/// Returns nullopt when no pair has |actual| > eps.
std::optional<double> mape(std::span<const double> actual,
                           std::span<const double> predicted,
                           double eps = 1e-12);

/// The paper's "prediction accuracy": max(0, 1 - MAPE).
std::optional<double> prediction_accuracy(std::span<const double> actual,
                                          std::span<const double> predicted);

/// Volume-weighted accuracy: max(0, 1 - Σ|a-p| / Σa). Robust for bursty
/// series whose per-interval actuals can be near zero (e.g. transcode
/// cycles), where MAPE denominators explode. Returns nullopt when Σa <= 0.
std::optional<double> volume_weighted_accuracy(std::span<const double> actual,
                                               std::span<const double> predicted);

double rmse(std::span<const double> actual, std::span<const double> predicted);

}  // namespace dtmsv::util
