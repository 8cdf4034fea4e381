#include "wireless/pathloss.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/simd.hpp"
#include "util/vmath.hpp"

namespace dtmsv::wireless {

double PathLossModel::loss_db(double d_m) const {
  DTMSV_EXPECTS(d_m >= 0.0);
  DTMSV_EXPECTS(reference_m > 0.0);
  const double d = std::max(d_m, reference_m);
  return util::simd::madd(10.0 * exponent, util::vmath::log10(d / reference_m), pl_ref_db);
}

ShadowingProcess::ShadowingProcess(double sigma_db, double decorrelation_m,
                                   util::Rng rng)
    : sigma_db_(sigma_db), decorrelation_m_(decorrelation_m), rng_(std::move(rng)) {
  DTMSV_EXPECTS(sigma_db >= 0.0);
  DTMSV_EXPECTS(decorrelation_m > 0.0);
  value_db_ = rng_.normal(0.0, sigma_db_);
}

ShadowingStep ShadowingProcess::coefficients(double sigma_db, double decorrelation_m,
                                             double moved_m) {
  DTMSV_EXPECTS(moved_m >= 0.0);
  // AR(1): rho = exp(-Δd / d_corr); innovation keeps stationary variance.
  const double rho = util::vmath::exp(-moved_m / decorrelation_m);
  return {rho, sigma_db * std::sqrt(std::max(0.0, util::simd::madd(-rho, rho, 1.0)))};
}

double ShadowingProcess::step(const ShadowingStep& ar1) {
  value_db_ = util::simd::madd(ar1.rho, value_db_, rng_.normal(0.0, ar1.innovation_sigma));
  return value_db_;
}

}  // namespace dtmsv::wireless
