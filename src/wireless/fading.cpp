#include "wireless/fading.hpp"

#include <cmath>

#include "util/error.hpp"

namespace dtmsv::wireless {

namespace {
constexpr double kInvSqrt2 = 0.70710678118654752440;
}

RayleighFading::RayleighFading(double doppler_hz, double sample_interval_s,
                               util::Rng rng)
    : rng_(std::move(rng)) {
  DTMSV_EXPECTS(doppler_hz >= 0.0);
  DTMSV_EXPECTS(sample_interval_s > 0.0);
  // Clarke's model autocorrelation J0(2π·fd·τ) approximated by a Gauss–Markov
  // coefficient; exact J0 is unnecessary for the demand statistics we need.
  rho_ = std::exp(-2.0 * M_PI * doppler_hz * sample_interval_s * 0.1);
  innovation_ = std::sqrt(std::max(0.0, 1.0 - rho_ * rho_));
  re_ = rng_.normal(0.0, kInvSqrt2);
  im_ = rng_.normal(0.0, kInvSqrt2);
}

double RayleighFading::step() {
  re_ = rho_ * re_ + innovation_ * rng_.normal(0.0, kInvSqrt2);
  im_ = rho_ * im_ + innovation_ * rng_.normal(0.0, kInvSqrt2);
  return current_power();
}

double RayleighFading::current_power() const { return re_ * re_ + im_ * im_; }

double RayleighFading::current_db() const {
  return 10.0 * std::log10(std::max(current_power(), 1e-12));
}

}  // namespace dtmsv::wireless
