// Portable SIMD layer: a fixed-width value type (`pack<T, Backend>`) with
// load/store/arithmetic/madd ops and scalar / AVX2 / AVX-512 backends
// selected at compile time. The scalar backend is always available and is
// the semantic reference; the vector backends exist purely to run the same
// arithmetic wider.
//
// Bit-identity contract. Kernels built on this layer vectorise across
// *independent outputs* (centroids of a k-means search, output columns of
// a matmul, dimensions of a sum), never across a reduction — every lane
// carries one output's full accumulation chain in its original order. All
// pack ops are lane-wise IEEE operations (add/sub/mul/div/fma), so a lane
// computes bit-for-bit what the scalar backend computes for that output,
// and results cannot depend on which backend was compiled in. The one
// regime knob is FMA fusion: `madd` fuses if and only if the libm fast-fma
// macros (FP_FAST_FMAF / FP_FAST_FMA) say the target has hardware FMA, in
// scalar and vector backends alike, so a mixed scalar-tail/vector-body
// kernel still agrees with itself.
//
// Backend selection: `default_backend` picks the widest ISA the
// translation unit is compiled for (__AVX512F__ > __AVX2__ > scalar).
// With the DTMSV_NATIVE_ARCH CMake option ON (the default), -march=native
// sets those macros to the host's best; with it OFF the scalar backend is
// the only one compiled, which is how the portable CI job exercises the
// fallback paths.
#pragma once

#include <cmath>
#include <cstddef>

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
  /// Lane-wise a*b+acc through the shared scalar madd (FMA iff fast).
  static pack madd(pack a, pack b, pack acc) {
    return {simd::madd(a.v, b.v, acc.v)};
  }

  // In-register argmin support (see the double vector packs): minimum
  // over lanes (exact — min returns one of its inputs), lanes ordered-
  // equal to a scalar, lanes that are NaN. Callers must route packs with
  // NaN lanes through a scalar fallback, since vector min propagation is
  // operand-order-dependent under NaN.
  T reduce_min() const { return v; }
  unsigned eq_mask(T x) const { return v == x ? 1u : 0u; }
  unsigned unord_mask() const { return v != v ? 1u : 0u; }
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
  static pack madd(pack a, pack b, pack acc) {
#if defined(__FMA__) && defined(FP_FAST_FMA)
    return {_mm256_fmadd_pd(a.v, b.v, acc.v)};
#else
    return {_mm256_add_pd(acc.v, _mm256_mul_pd(a.v, b.v))};
#endif
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
  static pack madd(pack a, pack b, pack acc) {
#ifdef FP_FAST_FMA
    return {_mm512_fmadd_pd(a.v, b.v, acc.v)};
#else
    return {_mm512_add_pd(acc.v, _mm512_mul_pd(a.v, b.v))};
#endif
  }

  double reduce_min() const { return _mm512_reduce_min_pd(v); }
  unsigned eq_mask(double x) const {
    return static_cast<unsigned>(
        _mm512_cmp_pd_mask(v, _mm512_set1_pd(x), _CMP_EQ_OQ));
  }
  unsigned unord_mask() const {
    return static_cast<unsigned>(_mm512_cmp_pd_mask(v, v, _CMP_UNORD_Q));
  }
};

#endif  // __AVX512F__

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
