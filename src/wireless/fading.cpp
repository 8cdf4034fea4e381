#include "wireless/fading.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/simd.hpp"
#include "util/vmath.hpp"

namespace dtmsv::wireless {

RayleighFading::RayleighFading(double doppler_hz, double sample_interval_s,
                               util::Rng rng)
    : ar_(coefficients(doppler_hz, sample_interval_s)), rng_(std::move(rng)) {
  re_ = rng_.normal(0.0, kTapSigma);
  im_ = rng_.normal(0.0, kTapSigma);
}

FadingStep RayleighFading::coefficients(double doppler_hz, double sample_interval_s) {
  DTMSV_EXPECTS(doppler_hz >= 0.0);
  DTMSV_EXPECTS(sample_interval_s > 0.0);
  // Clarke's model autocorrelation J0(2π·fd·τ) approximated by a Gauss–Markov
  // coefficient; exact J0 is unnecessary for the demand statistics we need.
  const double rho = util::vmath::exp(-2.0 * M_PI * doppler_hz * sample_interval_s * 0.1);
  return {rho, std::sqrt(std::max(0.0, 1.0 - rho * rho))};
}

double RayleighFading::step() {
  re_ = util::simd::madd(ar_.rho, re_, ar_.innovation * rng_.normal(0.0, kTapSigma));
  im_ = util::simd::madd(ar_.rho, im_, ar_.innovation * rng_.normal(0.0, kTapSigma));
  return current_power();
}

double RayleighFading::current_power() const { return util::simd::madd(re_, re_, im_ * im_); }

double RayleighFading::current_db() const {
  return 10.0 * util::vmath::log10(std::max(current_power(), 1e-12));
}

}  // namespace dtmsv::wireless
