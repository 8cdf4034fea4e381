// Small-scale fading: Rayleigh (NLOS) power fading with optional temporal
// correlation (first-order Gauss–Markov on the complex taps).
#pragma once

#include "util/rng.hpp"

namespace dtmsv::wireless {

/// Coefficients of one tap step: h' = rho·h + innovation·w.
struct FadingStep {
  double rho = 1.0;
  double innovation = 0.0;  // sqrt(1 - rho²)
};

/// Correlated Rayleigh fading. The complex channel tap h follows
/// h' = rho·h + sqrt(1-rho²)·w with w ~ CN(0,1), so |h|² is exponential
/// with unit mean in steady state; rho derives from the Doppler rate.
class RayleighFading {
 public:
  /// Standard deviation of each real dimension of w ~ CN(0, 1).
  static constexpr double kTapSigma = 0.70710678118654752440;

  /// `doppler_hz`: maximum Doppler shift (speed/λ); `sample_interval_s`:
  /// spacing of successive step() calls.
  RayleighFading(double doppler_hz, double sample_interval_s, util::Rng rng);

  /// The step for this Doppler rate and sample spacing (shared by every
  /// user of a channel, which computes it once).
  static FadingStep coefficients(double doppler_hz, double sample_interval_s);

  /// Advances one sample interval and returns the linear power gain |h|²
  /// (unit mean).
  double step();

  /// Current power gain without advancing.
  double current_power() const;

  /// Current gain in dB.
  double current_db() const;

 private:
  FadingStep ar_;
  util::Rng rng_;
  double re_;
  double im_;
};

}  // namespace dtmsv::wireless
