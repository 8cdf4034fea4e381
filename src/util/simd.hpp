// Portable SIMD layer: a fixed-width value type (`pack<T, Backend>`) with
// load/store/arithmetic/madd ops and scalar / AVX2 / AVX-512 backends
// selected at compile time. The scalar backend is always available and is
// the semantic reference; the vector backends exist purely to run the same
// arithmetic wider.
//
// Bit-identity contract. Kernels built on this layer vectorise across
// *independent outputs* (centroids of a k-means search, output columns of
// a matmul, dimensions of a sum, parameters of an optimiser step), never
// across a reduction — every lane carries one output's full chain in its
// original order. All pack ops are lane-wise IEEE operations
// (add/sub/mul/div/fma/sqrt/negate, float<->double conversion), so a lane
// computes bit-for-bit what the scalar backend computes for that output,
// and results cannot depend on which backend was compiled in. The one
// regime knob is FMA fusion: `madd` fuses if and only if the libm fast-fma
// macros (FP_FAST_FMAF / FP_FAST_FMA) say the target has hardware FMA, in
// scalar and vector backends alike, so a mixed scalar-tail/vector-body
// kernel still agrees with itself. Code that must agree across loops or
// translation units writes every multiply-add as madd and lets no other
// product feed an add or subtract unless the product is exact: the
// compiler may contract such a pair into an FMA (GCC does by default, with
// -ffp-contract=fast) and may choose differently in different loops. A
// product that must round on its own before a sum is madd(a, b, 0).
//
// Transcendentals (util/vmath.hpp) are built from the same lane-wise
// IEEE ops plus ops that are exact on every backend: compare-selects, the
// exponent/significand split (logb/significand), an exact power-of-two
// scale rounded once (scalbn) and a bit mask (clear_low_word). Each is
// defined by its scalar form, and the vector forms (AVX-512 getexp/
// getmant/scalef, AVX2 integer bit ops) reproduce it bit for bit.
//
// Backend selection: `default_backend` picks the widest ISA the
// translation unit is compiled for (__AVX512F__ > __AVX2__ > scalar).
// With the DTMSV_NATIVE_ARCH CMake option ON (the default), -march=native
// sets those macros to the host's best; with it OFF the scalar backend is
// the only one compiled, which is how the portable CI job exercises the
// fallback paths.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#if defined(__AVX2__) || defined(__AVX512F__)
// GCC's _mm512_reduce_* expansions trip -Wmaybe-uninitialized inside
// avx512fintrin.h; the warning is in the compiler's own header, not here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif

namespace dtmsv::util::simd {

// ------------------------------------------------------------ scalar madd
// The single multiply-accumulate primitive every kernel (and every in-test
// reference implementation) must share: fused when the target has fast
// hardware FMA, plain mul-add otherwise. Gating scalar and vector code on
// the same macro is what keeps scalar tails bit-identical to vector bodies.

inline float madd(float a, float b, float acc) {
#ifdef FP_FAST_FMAF
  return std::fmaf(a, b, acc);
#else
  return acc + a * b;
#endif
}

inline double madd(double a, double b, double acc) {
#ifdef FP_FAST_FMA
  return std::fma(a, b, acc);
#else
  return acc + a * b;
#endif
}

// ------------------------------------------------------------ backend tags

/// Width-1 reference backend; always compiled, semantically canonical.
struct scalar_backend {};

#if defined(__AVX2__)
/// 256-bit backend: 8 floats / 4 doubles per pack.
struct avx2_backend {};
#endif

#if defined(__AVX512F__)
/// 512-bit backend: 16 floats / 8 doubles per pack.
struct avx512_backend {};
#endif

#if defined(__AVX512F__)
using default_backend = avx512_backend;
#elif defined(__AVX2__)
using default_backend = avx2_backend;
#else
using default_backend = scalar_backend;
#endif

/// Name of the backend the library was compiled to use ("scalar", "avx2",
/// "avx512") — recorded in bench JSON context and NDJSON meta records so
/// perf baselines are attributable to an ISA.
constexpr const char* active_backend_name() {
#if defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__)
  return "avx2";
#else
  return "scalar";
#endif
}

/// True when the build was configured with -march=native (the
/// DTMSV_NATIVE_ARCH CMake option); recorded alongside the backend name.
constexpr bool native_arch_build() {
#if defined(DTMSV_NATIVE_ARCH_BUILD)
  return true;
#else
  return false;
#endif
}

// ------------------------------------------------------------- pack types

template <typename T, typename Backend>
struct pack;

template <typename T>
struct pack<T, scalar_backend> {
  static constexpr std::size_t width = 1;
  T v;

  static pack load(const T* p) { return {*p}; }
  static pack broadcast(T x) { return {x}; }
  static pack zero() { return {T{0}}; }
  void store(T* p) const { *p = v; }
  // Partial (ragged-tail) forms, on this pack and every float pack:
  // load_first reads the first n <= width elements and zeroes the other
  // lanes; store_first writes only the first n lanes. Memory past p + n is
  // never touched, so a kernel can run its last, partial vector of columns
  // as one masked op instead of n scalar chains.
  static pack load_first(const T* p, std::size_t n) { return {n > 0 ? *p : T{0}}; }
  void store_first(T* p, std::size_t n) const {
    if (n > 0) {
      *p = v;
    }
  }

  friend pack operator+(pack a, pack b) { return {a.v + b.v}; }
  friend pack operator-(pack a, pack b) { return {a.v - b.v}; }
  friend pack operator*(pack a, pack b) { return {a.v * b.v}; }
  friend pack operator/(pack a, pack b) { return {a.v / b.v}; }
  /// Lane-wise negation: flips the sign bit, so -(+0) is -0 (0 - x is not).
  friend pack operator-(pack a) { return {-a.v}; }
  /// Lane-wise a*b+acc through the shared scalar madd (FMA iff fast).
  static pack madd(pack a, pack b, pack acc) {
    return {simd::madd(a.v, b.v, acc.v)};
  }
  /// Lane-wise IEEE square root (correctly rounded on every backend).
  friend pack sqrt(pack a) { return {std::sqrt(a.v)}; }

  // Float storage, double arithmetic (double packs only): load_widen reads
  // floats into double lanes (exact), store_narrow rounds each lane to the
  // nearest float and stores it, round_to_float is the two back to back
  // without the memory trip. The _first forms follow load_first /
  // store_first.
  static pack load_widen(const float* p) { return {static_cast<T>(*p)}; }
  static pack load_widen_first(const float* p, std::size_t n) {
    return {n > 0 ? static_cast<T>(*p) : T{0}};
  }
  void store_narrow(float* p) const { *p = static_cast<float>(v); }
  void store_narrow_first(float* p, std::size_t n) const {
    if (n > 0) {
      store_narrow(p);
    }
  }
  friend pack round_to_float(pack a) {
    return {static_cast<T>(static_cast<float>(a.v))};
  }

  // In-register argmin support (see the double vector packs): minimum
  // over lanes (exact — min returns one of its inputs), lanes ordered-
  // equal to a scalar, lanes that are NaN. Callers must route packs with
  // NaN lanes through a scalar fallback, since vector min propagation is
  // operand-order-dependent under NaN.
  T reduce_min() const { return v; }
  unsigned eq_mask(T x) const { return v == x ? 1u : 0u; }
  unsigned unord_mask() const { return v != v ? 1u : 0u; }

  // Exact lane ops for the transcendental kernels (double packs only).
  // select_gt / select_ge: a > b (a >= b) ? t : f, false when either
  // compared lane is NaN.
  friend pack select_gt(pack a, pack b, pack t, pack f) { return {a.v > b.v ? t.v : f.v}; }
  friend pack select_ge(pack a, pack b, pack t, pack f) { return {a.v >= b.v ? t.v : f.v}; }
  // For positive finite x (normal or subnormal): logb is floor(log2 x) as
  // a double, significand is x / 2^logb(x), in [1, 2). Both are exact.
  friend pack logb(pack x) { return {std::logb(x.v)}; }
  friend pack significand(pack x) { return {std::scalbn(x.v, -std::ilogb(x.v))}; }
  // y * 2^n rounded once, for |y| in [0.5, 2) and integral n in
  // [-1100, 1100]; NaN n leaves y unscaled (no undefined int conversion).
  friend pack scalbn(pack y, pack n) {
    return {std::scalbn(y.v, n.v == n.v ? static_cast<int>(n.v) : 0)};
  }
  // x with the low 32 bits of its encoding cleared (a short "high part").
  friend pack clear_low_word(pack x) {
    return {std::bit_cast<T>(std::bit_cast<std::uint64_t>(x.v) & 0xFFFFFFFF00000000ULL)};
  }
};

#if defined(__AVX2__)

template <>
struct pack<float, avx2_backend> {
  static constexpr std::size_t width = 8;
  __m256 v;

  static pack load(const float* p) { return {_mm256_loadu_ps(p)}; }
  static pack broadcast(float x) { return {_mm256_set1_ps(x)}; }
  static pack zero() { return {_mm256_setzero_ps()}; }
  void store(float* p) const { _mm256_storeu_ps(p, v); }
  static pack load_first(const float* p, std::size_t n) {
    return {_mm256_maskload_ps(p, first_lanes(n))};
  }
  void store_first(float* p, std::size_t n) const {
    _mm256_maskstore_ps(p, first_lanes(n), v);
  }
  /// Lane mask with the top bit set in lanes [0, n).
  static __m256i first_lanes(std::size_t n) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }

  friend pack operator+(pack a, pack b) { return {_mm256_add_ps(a.v, b.v)}; }
  friend pack operator-(pack a, pack b) { return {_mm256_sub_ps(a.v, b.v)}; }
  friend pack operator*(pack a, pack b) { return {_mm256_mul_ps(a.v, b.v)}; }
  friend pack operator/(pack a, pack b) { return {_mm256_div_ps(a.v, b.v)}; }
  static pack madd(pack a, pack b, pack acc) {
#if defined(__FMA__) && defined(FP_FAST_FMAF)
    return {_mm256_fmadd_ps(a.v, b.v, acc.v)};
#else
    return {_mm256_add_ps(acc.v, _mm256_mul_ps(a.v, b.v))};
#endif
  }
};

template <>
struct pack<double, avx2_backend> {
  static constexpr std::size_t width = 4;
  __m256d v;

  static pack load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static pack broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static pack zero() { return {_mm256_setzero_pd()}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }

  friend pack operator+(pack a, pack b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend pack operator-(pack a, pack b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend pack operator*(pack a, pack b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend pack operator/(pack a, pack b) { return {_mm256_div_pd(a.v, b.v)}; }
  friend pack operator-(pack a) { return {_mm256_xor_pd(a.v, _mm256_set1_pd(-0.0))}; }
  static pack madd(pack a, pack b, pack acc) {
#if defined(__FMA__) && defined(FP_FAST_FMA)
    return {_mm256_fmadd_pd(a.v, b.v, acc.v)};
#else
    return {_mm256_add_pd(acc.v, _mm256_mul_pd(a.v, b.v))};
#endif
  }
  friend pack sqrt(pack a) { return {_mm256_sqrt_pd(a.v)}; }

  static pack load_widen(const float* p) { return {_mm256_cvtps_pd(_mm_loadu_ps(p))}; }
  static pack load_widen_first(const float* p, std::size_t n) {
    return {_mm256_cvtps_pd(_mm_maskload_ps(p, first_lanes(n)))};
  }
  void store_narrow(float* p) const { _mm_storeu_ps(p, _mm256_cvtpd_ps(v)); }
  void store_narrow_first(float* p, std::size_t n) const {
    _mm_maskstore_ps(p, first_lanes(n), _mm256_cvtpd_ps(v));
  }
  friend pack round_to_float(pack a) {
    return {_mm256_cvtps_pd(_mm256_cvtpd_ps(a.v))};
  }
  /// 4-lane float mask with the top bit set in lanes [0, n).
  static __m128i first_lanes(std::size_t n) {
    return _mm_cmpgt_epi32(_mm_set1_epi32(static_cast<int>(n)),
                           _mm_setr_epi32(0, 1, 2, 3));
  }

  double reduce_min() const {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    __m128d m = _mm_min_pd(lo, hi);
    m = _mm_min_sd(m, _mm_unpackhi_pd(m, m));
    return _mm_cvtsd_f64(m);
  }
  unsigned eq_mask(double x) const {
    return static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(v, _mm256_set1_pd(x), _CMP_EQ_OQ)));
  }
  unsigned unord_mask() const {
    return static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(v, v, _CMP_UNORD_Q)));
  }

  friend pack select_gt(pack a, pack b, pack t, pack f) {
    return {_mm256_blendv_pd(f.v, t.v, _mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ))};
  }
  friend pack select_ge(pack a, pack b, pack t, pack f) {
    return {_mm256_blendv_pd(f.v, t.v, _mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ))};
  }
  // No getexp/getmant on AVX2: read the exponent field, after scaling a
  // subnormal lane by 2^54 so that its field is a normal one.
  friend pack logb(pack x) {
    const __m256d sub = subnormal_lanes(x.v);
    const __m256i field = _mm256_and_si256(
        _mm256_srli_epi64(_mm256_castpd_si256(normalised(x.v, sub)), 52),
        _mm256_set1_epi64x(0x7FF));
    // field | bits(2^52) is the double 2^52 + field, exactly.
    const __m256d biased = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(field, _mm256_set1_epi64x(0x4330000000000000))),
        _mm256_set1_pd(0x1p52));
    return {_mm256_sub_pd(_mm256_sub_pd(biased, _mm256_set1_pd(1023.0)),
                          _mm256_and_pd(sub, _mm256_set1_pd(54.0)))};
  }
  friend pack significand(pack x) {
    const __m256i bits = _mm256_castpd_si256(normalised(x.v, subnormal_lanes(x.v)));
    return {_mm256_castsi256_pd(_mm256_or_si256(
        _mm256_and_si256(bits, _mm256_set1_epi64x(0x000FFFFFFFFFFFFF)),
        _mm256_set1_epi64x(0x3FF0000000000000)))};
  }
  // Two exact normal scale steps, 2^floor(n/2) then 2^(n - floor(n/2)):
  // the first product stays normal for |y| in [0.5, 2), so only the
  // second rounds, as scalbn does.
  friend pack scalbn(pack y, pack n) {
    const __m256d first = _mm256_floor_pd(_mm256_mul_pd(n.v, _mm256_set1_pd(0.5)));
    const __m256d second = _mm256_sub_pd(n.v, first);
    return {_mm256_mul_pd(_mm256_mul_pd(y.v, pow2(first)), pow2(second))};
  }
  friend pack clear_low_word(pack x) {
    return {_mm256_and_pd(x.v, _mm256_castsi256_pd(
                                   _mm256_set1_epi64x(static_cast<long long>(0xFFFFFFFF00000000ULL))))};
  }

 private:
  static __m256d subnormal_lanes(__m256d x) {
    return _mm256_cmp_pd(x, _mm256_set1_pd(0x1p-1022), _CMP_LT_OQ);
  }
  static __m256d normalised(__m256d x, __m256d sub) {
    return _mm256_blendv_pd(x, _mm256_mul_pd(x, _mm256_set1_pd(0x1p54)), sub);
  }
  // 2^k for integral k in [-1022, 1023]: 2^52 + 1023 + k holds the
  // biased exponent in its low mantissa bits; shift them into place.
  static __m256d pow2(__m256d k) {
    const __m256d biased = _mm256_add_pd(k, _mm256_set1_pd(0x1p52 + 1023.0));
    return _mm256_castsi256_pd(_mm256_slli_epi64(_mm256_castpd_si256(biased), 52));
  }
};

#endif  // __AVX2__

#if defined(__AVX512F__)

template <>
struct pack<float, avx512_backend> {
  static constexpr std::size_t width = 16;
  __m512 v;

  static pack load(const float* p) { return {_mm512_loadu_ps(p)}; }
  static pack broadcast(float x) { return {_mm512_set1_ps(x)}; }
  static pack zero() { return {_mm512_setzero_ps()}; }
  void store(float* p) const { _mm512_storeu_ps(p, v); }
  static pack load_first(const float* p, std::size_t n) {
    return {_mm512_maskz_loadu_ps(first_lanes(n), p)};
  }
  void store_first(float* p, std::size_t n) const {
    _mm512_mask_storeu_ps(p, first_lanes(n), v);
  }
  static __mmask16 first_lanes(std::size_t n) {
    return static_cast<__mmask16>((1u << n) - 1u);
  }

  friend pack operator+(pack a, pack b) { return {_mm512_add_ps(a.v, b.v)}; }
  friend pack operator-(pack a, pack b) { return {_mm512_sub_ps(a.v, b.v)}; }
  friend pack operator*(pack a, pack b) { return {_mm512_mul_ps(a.v, b.v)}; }
  friend pack operator/(pack a, pack b) { return {_mm512_div_ps(a.v, b.v)}; }
  static pack madd(pack a, pack b, pack acc) {
#ifdef FP_FAST_FMAF
    return {_mm512_fmadd_ps(a.v, b.v, acc.v)};
#else
    return {_mm512_add_ps(acc.v, _mm512_mul_ps(a.v, b.v))};
#endif
  }
};

template <>
struct pack<double, avx512_backend> {
  static constexpr std::size_t width = 8;
  __m512d v;

  static pack load(const double* p) { return {_mm512_loadu_pd(p)}; }
  static pack broadcast(double x) { return {_mm512_set1_pd(x)}; }
  static pack zero() { return {_mm512_setzero_pd()}; }
  void store(double* p) const { _mm512_storeu_pd(p, v); }

  friend pack operator+(pack a, pack b) { return {_mm512_add_pd(a.v, b.v)}; }
  friend pack operator-(pack a, pack b) { return {_mm512_sub_pd(a.v, b.v)}; }
  friend pack operator*(pack a, pack b) { return {_mm512_mul_pd(a.v, b.v)}; }
  friend pack operator/(pack a, pack b) { return {_mm512_div_pd(a.v, b.v)}; }
  // An integer xor: the double form needs AVX-512DQ.
  friend pack operator-(pack a) {
    return {_mm512_castsi512_pd(_mm512_xor_si512(
        _mm512_castpd_si512(a.v), _mm512_set1_epi64(static_cast<long long>(0x8000000000000000ULL))))};
  }
  static pack madd(pack a, pack b, pack acc) {
#ifdef FP_FAST_FMA
    return {_mm512_fmadd_pd(a.v, b.v, acc.v)};
#else
    return {_mm512_add_pd(acc.v, _mm512_mul_pd(a.v, b.v))};
#endif
  }
  friend pack sqrt(pack a) { return {_mm512_sqrt_pd(a.v)}; }

  // The 8 floats travel in the low half of a 512-bit float register, so
  // the masked forms need only AVX-512F.
  static pack load_widen(const float* p) { return {_mm512_cvtps_pd(_mm256_loadu_ps(p))}; }
  static pack load_widen_first(const float* p, std::size_t n) {
    return {_mm512_cvtps_pd(
        _mm512_castps512_ps256(_mm512_maskz_loadu_ps(first_lanes(n), p)))};
  }
  void store_narrow(float* p) const { _mm256_storeu_ps(p, _mm512_cvtpd_ps(v)); }
  void store_narrow_first(float* p, std::size_t n) const {
    _mm512_mask_storeu_ps(p, first_lanes(n),
                          _mm512_castps256_ps512(_mm512_cvtpd_ps(v)));
  }
  friend pack round_to_float(pack a) {
    return {_mm512_cvtps_pd(_mm512_cvtpd_ps(a.v))};
  }
  static __mmask16 first_lanes(std::size_t n) {
    return static_cast<__mmask16>((1u << n) - 1u);
  }

  double reduce_min() const { return _mm512_reduce_min_pd(v); }
  unsigned eq_mask(double x) const {
    return static_cast<unsigned>(
        _mm512_cmp_pd_mask(v, _mm512_set1_pd(x), _CMP_EQ_OQ));
  }
  unsigned unord_mask() const {
    return static_cast<unsigned>(_mm512_cmp_pd_mask(v, v, _CMP_UNORD_Q));
  }

  friend pack select_gt(pack a, pack b, pack t, pack f) {
    return {_mm512_mask_blend_pd(_mm512_cmp_pd_mask(a.v, b.v, _CMP_GT_OQ), f.v, t.v)};
  }
  friend pack select_ge(pack a, pack b, pack t, pack f) {
    return {_mm512_mask_blend_pd(_mm512_cmp_pd_mask(a.v, b.v, _CMP_GE_OQ), f.v, t.v)};
  }
  // The zero-masked forms with every lane selected: the unmasked ones pass
  // _mm512_undefined_pd() through, which trips GCC's -Wuninitialized.
  friend pack logb(pack x) { return {_mm512_maskz_getexp_pd(0xFF, x.v)}; }
  friend pack significand(pack x) {
    return {_mm512_maskz_getmant_pd(0xFF, x.v, _MM_MANT_NORM_1_2, _MM_MANT_SIGN_zero)};
  }
  friend pack scalbn(pack y, pack n) { return {_mm512_maskz_scalef_pd(0xFF, y.v, n.v)}; }
  friend pack clear_low_word(pack x) {
    return {_mm512_castsi512_pd(_mm512_and_si512(
        _mm512_castpd_si512(x.v),
        _mm512_set1_epi64(static_cast<long long>(0xFFFFFFFF00000000ULL))))};
  }
};

#endif  // __AVX512F__

// ------------------------------------------------------------- transposes
// transpose(rows): rows[0 .. width) viewed as a width x width matrix of
// doubles, transposed in registers (lane l of rows[r] becomes lane r of
// rows[l]). Pure data movement, so exact on every backend.

inline void transpose(pack<double, scalar_backend>*) {}

#if defined(__AVX2__)
inline void transpose(pack<double, avx2_backend>* r) {
  const __m256d t0 = _mm256_unpacklo_pd(r[0].v, r[1].v);
  const __m256d t1 = _mm256_unpackhi_pd(r[0].v, r[1].v);
  const __m256d t2 = _mm256_unpacklo_pd(r[2].v, r[3].v);
  const __m256d t3 = _mm256_unpackhi_pd(r[2].v, r[3].v);
  r[0].v = _mm256_permute2f128_pd(t0, t2, 0x20);
  r[1].v = _mm256_permute2f128_pd(t1, t3, 0x20);
  r[2].v = _mm256_permute2f128_pd(t0, t2, 0x31);
  r[3].v = _mm256_permute2f128_pd(t1, t3, 0x31);
}
#endif

#if defined(__AVX512F__)
inline void transpose(pack<double, avx512_backend>* r) {
  // Pairs of rows interleave lane by lane, then 128-bit chunks, then
  // 256-bit halves.
  __m512d t[8];
  for (int i = 0; i < 8; i += 2) {
    t[i] = _mm512_unpacklo_pd(r[i].v, r[i + 1].v);
    t[i + 1] = _mm512_unpackhi_pd(r[i].v, r[i + 1].v);
  }
  const __m512i even = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
  const __m512i odd = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
  __m512d u[8];
  for (int i = 0; i < 8; i += 4) {
    u[i] = _mm512_permutex2var_pd(t[i], even, t[i + 2]);
    u[i + 1] = _mm512_permutex2var_pd(t[i + 1], even, t[i + 3]);
    u[i + 2] = _mm512_permutex2var_pd(t[i], odd, t[i + 2]);
    u[i + 3] = _mm512_permutex2var_pd(t[i + 1], odd, t[i + 3]);
  }
  for (int i = 0; i < 4; ++i) {
    r[i].v = _mm512_shuffle_f64x2(u[i], u[i + 4], 0x44);
    r[i + 4].v = _mm512_shuffle_f64x2(u[i], u[i + 4], 0xEE);
  }
}
#endif

// -------------------------------------------------------- span-level helpers
// Lane-wise whole-range operations with scalar tails. Because every lane is
// an independent output, these are bit-identical across backends by
// construction.

/// dst[i] += src[i] for i in [0, n).
template <typename Backend, typename T>
inline void add_rows(T* dst, const T* src, std::size_t n) {
  using P = pack<T, Backend>;
  std::size_t i = 0;
  if constexpr (P::width > 1) {
    for (; i + P::width <= n; i += P::width) {
      (P::load(dst + i) + P::load(src + i)).store(dst + i);
    }
  }
  for (; i < n; ++i) {
    dst[i] += src[i];
  }
}

/// dst[i] = src[i] for i in [0, n) (vector loads/stores; exact by nature).
template <typename Backend, typename T>
inline void copy_row(T* dst, const T* src, std::size_t n) {
  using P = pack<T, Backend>;
  std::size_t i = 0;
  if constexpr (P::width > 1) {
    for (; i + P::width <= n; i += P::width) {
      P::load(src + i).store(dst + i);
    }
  }
  for (; i < n; ++i) {
    dst[i] = src[i];
  }
}

}  // namespace dtmsv::util::simd
