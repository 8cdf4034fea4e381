// Backend-identical log10 and exp over util::simd double packs, with scalar
// entry points that run the same code on the scalar backend. Every
// multiply-add goes through pack::madd, no other product feeds a sum unless
// it is exact (so the compiler's FP contraction cannot change a bit), and
// every split or scale step is one of simd.hpp's exact lane ops, so a lane
// computes bit for bit what the scalar form computes in any translation
// unit: a loop that runs 8 users per vector agrees with a
// per-user definition that calls the scalar form. This is the only log10
// and exp of the wireless model (path loss, shadowing, fading, dB
// conversion); libm and glibc's vector libm give different bits.
//
// The cores are fdlibm's (Sun Microsystems, 1993, freely redistributable):
// e_log10 reduces x to 2^k·(1+f) with 1+f in [sqrt(2)/2, sqrt(2)) and
// evaluates log(1+f) through s = f/(2+f) and a degree-14 even polynomial,
// carrying a split high part for the 1/ln(10) multiply; e_exp reduces x by
// k·ln2 (Cody–Waite, ln2 split in two) and evaluates a Remez rational on
// |r| <= ln2/2. On util_test's sweeps, against x87 long double, log10 is
// within 0.62 ulp of the true value (glibc's std::log10: 1.55) and exp
// within 1.0 ulp (std::exp: 0.51); util_test bounds both at 2 ulp from
// glibc, with and without FMA.
#pragma once

#include "util/simd.hpp"

namespace dtmsv::util::vmath {

/// log10 of positive finite lanes (normal or subnormal). log10(1) == +0
/// exactly. Zero, negative, infinite or NaN lanes are outside the domain:
/// callers clamp (path loss to d >= d_ref, dB conversion to >= 1e-30).
template <typename Backend>
simd::pack<double, Backend> log10(simd::pack<double, Backend> x) {
  using P = simd::pack<double, Backend>;
  const P one = P::broadcast(1.0);
  const P half = P::broadcast(0.5);

  // x = 2^k · m, m in [1, 2); fold m above sqrt(2) down to [sqrt(2)/2, 1).
  P m = significand(x);
  P k = logb(x);
  const P sqrt2 = P::broadcast(1.41421356237309504880);
  k = select_gt(m, sqrt2, k + one, k);
  m = select_gt(m, sqrt2, m * half, m);

  const P f = m - one;
  const P s = f / (P::broadcast(2.0) + f);
  const P z = s * s;
  const P w = z * z;
  const P r = P::madd(
      z,
      P::madd(w,
              P::madd(w, P::madd(w, P::broadcast(1.479819860511658591e-01),
                                 P::broadcast(1.818357216161805012e-01)),
                      P::broadcast(2.857142874366239149e-01)),
              P::broadcast(6.666666666666735130e-01)),
      w * P::madd(w, P::madd(w, P::broadcast(1.531383769920937332e-01),
                             P::broadcast(2.222219843214978396e-01)),
                  P::broadcast(3.999999999940941908e-01)));

  // log(1 + f) = f - f²/2 + s·(f²/2 + r) as hi + lo, hi cut to 21
  // significant bits so that hi·ivln10hi (32 bits) is exact. f²/2 enters
  // each sum fused, as madd(±f/2, f, ·).
  const P half_f = half * f;
  const P neg_half_f = P::broadcast(-0.5) * f;
  const P hi = clear_low_word(P::madd(neg_half_f, f, f));
  const P lo = P::madd(s, P::madd(half_f, f, r), P::madd(neg_half_f, f, f - hi));

  // log10 = (hi + lo)/ln(10) + k·log10(2), summed by size. hi·ivln10hi and
  // k·log10_2hi are exact, so no rounding depends on how they are added.
  const P ivln10hi = P::broadcast(4.34294481878168880939e-01);
  const P val_hi = hi * ivln10hi;
  const P y = k * P::broadcast(3.01029995663611771306e-01);
  P val_lo = P::madd(lo, ivln10hi,
                     P::madd(lo + hi, P::broadcast(2.50829467116452752298e-11),
                             k * P::broadcast(3.69423907715893078616e-13)));
  const P sum = y + val_hi;
  val_lo = val_lo + ((y - sum) + val_hi);
  return val_lo + sum;
}

/// e^x. exp(±0) == 1 exactly; lanes below -746 give +0 and lanes above 710
/// give +inf (the true results round there too); NaN stays NaN. The error
/// bound is checked on (-inf, 0], the model's domain.
template <typename Backend>
simd::pack<double, Backend> exp(simd::pack<double, Backend> x) {
  using P = simd::pack<double, Backend>;
  const P lowest = P::broadcast(-746.0);
  const P highest = P::broadcast(710.0);
  x = select_gt(lowest, x, lowest, x);
  x = select_gt(x, highest, highest, x);

  // k = nearest integer to x/ln2: adding 1.5·2^52 rounds to an integer.
  const P shifter = P::broadcast(0x1.8p52);
  const P k = P::madd(x, P::broadcast(1.44269504088896338700e+00), shifter) - shifter;
  // r = x - k·ln2hi - k·ln2lo; ln2hi has 32 significant bits, so k·ln2hi
  // is exact for every k the clamp allows and hi = x - k·ln2hi is too.
  const P ln2lo = P::broadcast(1.90821492927058770002e-10);
  const P hi = P::madd(k, P::broadcast(-6.93147180369123816490e-01), x);
  const P r = P::madd(k, P::broadcast(-1.90821492927058770002e-10), hi);

  // c = r - r²·P(r²), with the coefficients negated so the chain is madds.
  const P t = r * r;
  const P poly = P::madd(
      t,
      P::madd(t,
              P::madd(t,
                      P::madd(t, P::broadcast(-4.13813679705723846039e-08),
                              P::broadcast(1.65339022054652515390e-06)),
                      P::broadcast(-6.61375632143793436117e-05)),
              P::broadcast(2.77777777770155933842e-03)),
      P::broadcast(-1.66666666666666019037e-01));
  const P c = P::madd(t, poly, r);
  // e^r = 1 - ((k·ln2lo - r·c/(2 - c)) - hi).
  const P q = (r * c) / (P::broadcast(2.0) - c);
  const P e_r = P::broadcast(1.0) - (P::madd(k, ln2lo, P::zero() - q) - hi);
  return scalbn(e_r, k);
}

/// Scalar forms: the same kernels on the scalar backend.
inline double log10(double x) { return log10(simd::pack<double, simd::scalar_backend>{x}).v; }
inline double exp(double x) { return exp(simd::pack<double, simd::scalar_backend>{x}).v; }

}  // namespace dtmsv::util::vmath
