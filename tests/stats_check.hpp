// Distribution checks for stochastic tests: Kolmogorov–Smirnov
// goodness-of-fit tests.
//
// A moment or a single quantile can agree while the shape is wrong; the
// K-S statistic is the largest gap between two CDFs, so it checks the
// whole distribution at once. p-values use the asymptotic Kolmogorov distribution
// with Stephens' small-sample correction, accurate to a few percent for
// n >= 20, which is ample for a 1e-3 rejection level.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace dtmsv::testing {

namespace ks {

/// Survival function of the Kolmogorov distribution:
/// Q(λ) = P(K > λ) = 2 Σ_{k≥1} (-1)^{k-1} exp(-2k²λ²).
inline double kolmogorov_sf(double lambda) {
  if (lambda < 0.2) {
    return 1.0;  // the series converges slowly here, and Q(0.2) > 1 - 1e-15
  }
  double sum = 0.0;
  double sign = 1.0;
  for (int k = 1; k <= 100; ++k) {
    const double term = sign * std::exp(-2.0 * k * k * lambda * lambda);
    sum += term;
    if (std::abs(term) < 1e-16) {
      break;
    }
    sign = -sign;
  }
  return std::clamp(2.0 * sum, 0.0, 1.0);
}

/// P-value of statistic `d` for an effective sample count `n_eff`.
inline double p_value(double d, double n_eff) {
  const double root = std::sqrt(n_eff);
  return kolmogorov_sf((root + 0.12 + 0.11 / root) * d);
}

/// One-sample statistic D_n = sup_x |F_n(x) - F(x)| of `sample` against
/// the continuous CDF `cdf`.
template <typename Cdf>
double dn_statistic(std::vector<double> sample, Cdf cdf) {
  std::sort(sample.begin(), sample.end());
  const double n = static_cast<double>(sample.size());
  double d = 0.0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const double f = cdf(sample[i]);
    d = std::max({d, static_cast<double>(i + 1) / n - f, f - static_cast<double>(i) / n});
  }
  return d;
}

/// One-sample test result.
struct Result {
  double d = 0.0;        // D_n
  double p = 0.0;        // asymptotic p-value
  double scaled_d = 0.0;  // sqrt(n_eff)·D, ≈ 1.36 at p = 0.05
};

template <typename Cdf>
Result one_sample(std::vector<double> sample, Cdf cdf) {
  const double n = static_cast<double>(sample.size());
  Result r;
  r.d = dn_statistic(std::move(sample), cdf);
  r.p = p_value(r.d, n);
  r.scaled_d = std::sqrt(n) * r.d;
  return r;
}

/// Two-sample statistic D = sup_x |F_a(x) - F_b(x)| and its p-value with
/// n_eff = n·m/(n+m).
inline Result two_sample(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  double d = 0.0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) {
      ++i;
    }
    while (j < b.size() && b[j] <= x) {
      ++j;
    }
    d = std::max(d, std::abs(static_cast<double>(i) / na - static_cast<double>(j) / nb));
  }
  const double n_eff = na * nb / (na + nb);
  return {d, p_value(d, n_eff), std::sqrt(n_eff) * d};
}

}  // namespace ks

/// Standard normal CDF Φ.
inline double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

}  // namespace dtmsv::testing
