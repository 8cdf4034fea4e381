// Baseline demand forecasts that operate directly on the realized demand
// time series (no digital-twin state). These are the comparators for the
// accuracy table bench (bench/bench_tab_accuracy_summary.cpp) and the
// capacity planner example. Each forecasts the next interval from the
// realized history so far, oldest first, and returns `fallback` when the
// history is empty.
#pragma once

#include <cstddef>
#include <span>

namespace dtmsv::predict {

/// The previous interval's value.
double last_value_forecast(std::span<const double> history, double fallback = 0.0);

/// Exponentially weighted moving average seeded with the first value;
/// `alpha` in (0, 1] weighs each new value.
double ewma_forecast(std::span<const double> history, double alpha = 0.4,
                     double fallback = 0.0);

/// Mean of the last `window` (> 0) values.
double moving_average_forecast(std::span<const double> history, std::size_t window = 4,
                               double fallback = 0.0);

/// AR(1) fitted by least squares over the last `window` (>= 3) values,
/// x̂_{n+1} = c + φ·x_n, clamped to be non-negative; the last value while
/// fewer than 3 values (or a flat window) leave φ undetermined.
double ar1_forecast(std::span<const double> history, std::size_t window = 12,
                    double fallback = 0.0);

}  // namespace dtmsv::predict
