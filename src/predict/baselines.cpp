#include "predict/baselines.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/simd.hpp"

namespace dtmsv::predict {

double last_value_forecast(std::span<const double> history, double fallback) {
  return history.empty() ? fallback : history.back();
}

double ewma_forecast(std::span<const double> history, double alpha, double fallback) {
  DTMSV_EXPECTS(alpha > 0.0 && alpha <= 1.0);
  if (history.empty()) {
    return fallback;
  }
  double value = history.front();
  for (const double realized : history.subspan(1)) {
    value = alpha * realized + (1.0 - alpha) * value;
  }
  return value;
}

double moving_average_forecast(std::span<const double> history, std::size_t window,
                               double fallback) {
  DTMSV_EXPECTS(window > 0);
  if (history.empty()) {
    return fallback;
  }
  const std::span<const double> values = history.last(std::min(window, history.size()));
  double total = 0.0;
  for (const double v : values) {
    total += v;
  }
  return total / static_cast<double>(values.size());
}

double ar1_forecast(std::span<const double> history, std::size_t window, double fallback) {
  DTMSV_EXPECTS(window >= 3);
  if (history.empty()) {
    return fallback;
  }
  const std::span<const double> values = history.last(std::min(window, history.size()));
  if (values.size() < 3) {
    return values.back();
  }
  // OLS of x_{t+1} on x_t over the window. The products accumulate through
  // util::simd::madd, so they fuse exactly when a scalar loop would: over a
  // contiguous span the compiler may vectorise the sums, rounding each
  // product before it is added.
  double sx = 0.0;
  double sy = 0.0;
  double sxx = 0.0;
  double sxy = 0.0;
  const auto n = static_cast<double>(values.size() - 1);
  for (std::size_t i = 0; i + 1 < values.size(); ++i) {
    const double x = values[i];
    const double y = values[i + 1];
    sx += x;
    sy += y;
    sxx = util::simd::madd(x, x, sxx);
    sxy = util::simd::madd(x, y, sxy);
  }
  const double denom = n * sxx - sx * sx;
  if (std::abs(denom) < 1e-12) {
    return values.back();
  }
  const double phi = (n * sxy - sx * sy) / denom;
  const double c = (sy - phi * sx) / n;
  const double pred = c + phi * values.back();
  return pred < 0.0 ? 0.0 : pred;
}

}  // namespace dtmsv::predict
