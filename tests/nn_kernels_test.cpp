// Tests for the tiled/parallel matmul kernels against untiled references.
//
// The kernels promise bit-identical results to the canonical triple loop
// (per-output-element accumulation through nn::fused_madd in ascending
// inner-dimension order), for any matrix shape and any thread count —
// tiling and row-block parallelism must never change what is computed,
// only how fast. The references below accumulate through the same
// fused_madd primitive so compiler FP-contraction choices cannot make
// the two sides disagree.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "nn/kernels.hpp"
#include "nn/optimizer.hpp"
#include "nn/tensor.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace {

using dtmsv::nn::Tensor;
using dtmsv::util::Rng;

Tensor random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Tensor t({rows, cols});
  for (float& v : t.data()) {
    v = static_cast<float>(rng.uniform(-2.0, 2.0));
  }
  return t;
}

/// Canonical (m×k)·(k×n): ascending-kk accumulation per output element.
Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor out({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc = dtmsv::nn::fused_madd(a.at2(i, kk), b.at2(kk, j), acc);
      }
      out.at2(i, j) = acc;
    }
  }
  return out;
}

Tensor naive_matmul_bt(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor out({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc = dtmsv::nn::fused_madd(a.at2(i, kk), b.at2(j, kk), acc);
      }
      out.at2(i, j) = acc;
    }
  }
  return out;
}

Tensor naive_matmul_at(const Tensor& a, const Tensor& b) {
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor out({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc = dtmsv::nn::fused_madd(a.at2(kk, i), b.at2(kk, j), acc);
      }
      out.at2(i, j) = acc;
    }
  }
  return out;
}

void expect_bit_identical(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "element " << i << " diverges";
  }
}

// Shapes chosen to exercise every tiling edge: smaller than one tile,
// exact tile multiples, one-past-a-tile remainders, and skinny matrices
// in each dimension.
struct Shape3 {
  std::size_t m, k, n;
};

const Shape3 kShapes[] = {
    {1, 1, 1},  {3, 5, 2},   {7, 1, 9},   {32, 64, 128}, {33, 65, 129},
    {31, 63, 127}, {64, 64, 64}, {5, 200, 3}, {130, 70, 40}, {1, 300, 1},
};

TEST(MatmulKernels, MatchesNaiveReference) {
  Rng rng(1);
  for (const auto& s : kShapes) {
    const Tensor a = random_matrix(s.m, s.k, rng);
    const Tensor b = random_matrix(s.k, s.n, rng);
    expect_bit_identical(Tensor::matmul(a, b), naive_matmul(a, b));
  }
}

TEST(MatmulKernels, BtMatchesNaiveReference) {
  Rng rng(2);
  for (const auto& s : kShapes) {
    const Tensor a = random_matrix(s.m, s.k, rng);
    const Tensor b = random_matrix(s.n, s.k, rng);
    expect_bit_identical(Tensor::matmul_bt(a, b), naive_matmul_bt(a, b));
  }
}

TEST(MatmulKernels, AtMatchesNaiveReference) {
  Rng rng(3);
  for (const auto& s : kShapes) {
    const Tensor a = random_matrix(s.k, s.m, rng);
    const Tensor b = random_matrix(s.k, s.n, rng);
    expect_bit_identical(Tensor::matmul_at(a, b), naive_matmul_at(a, b));
  }
}

TEST(MatmulKernels, ThreadCountDoesNotChangeResults) {
  Rng rng(4);
  // Big enough to clear the parallel dispatch threshold.
  const Tensor a = random_matrix(97, 150, rng);
  const Tensor b = random_matrix(150, 83, rng);
  const Tensor bt = random_matrix(83, 150, rng);

  dtmsv::util::set_thread_count(1);
  const Tensor serial = Tensor::matmul(a, b);
  const Tensor serial_bt = Tensor::matmul_bt(a, bt);
  const Tensor serial_at = Tensor::matmul_at(b, b);
  for (const std::size_t threads : {2u, 3u, 8u}) {
    dtmsv::util::set_thread_count(threads);
    expect_bit_identical(Tensor::matmul(a, b), serial);
    expect_bit_identical(Tensor::matmul_bt(a, bt), serial_bt);
    expect_bit_identical(Tensor::matmul_at(b, b), serial_at);
  }
  dtmsv::util::set_thread_count(0);
}

TEST(MatmulKernels, ShapePreconditionsStillEnforced) {
  Rng rng(5);
  const Tensor a = random_matrix(4, 5, rng);
  const Tensor b = random_matrix(4, 5, rng);
  EXPECT_THROW(Tensor::matmul(a, b), dtmsv::util::PreconditionError);
  const Tensor c = random_matrix(6, 4, rng);
  EXPECT_THROW(Tensor::matmul_bt(a, c), dtmsv::util::PreconditionError);
  EXPECT_THROW(Tensor::matmul_at(a, c), dtmsv::util::PreconditionError);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 5u}) {
    dtmsv::util::set_thread_count(threads);
    std::vector<std::atomic<int>> hits(1000);
    dtmsv::util::parallel_for(0, hits.size(), 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        hits[i].fetch_add(1);
      }
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " with " << threads
                                   << " threads";
    }
  }
  dtmsv::util::set_thread_count(0);
}

// ---------------------------------------------------------------------------
// Backend equivalence: every SIMD backend compiled into this binary must
// produce bit-identical outputs to the scalar backend on the raw row
// kernels, including ragged sizes (non-multiples of any lane width),
// single rows, and empty extents. The suite instantiates the kernel
// templates directly so the vector paths are compared against scalar even
// though the library entry points only ever use the default backend.

namespace simd = dtmsv::util::simd;

std::vector<float> random_values(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) {
    x = static_cast<float>(rng.uniform(-2.0, 2.0));
  }
  return v;
}

struct RaggedShape {
  std::size_t m, k, n;
};

// Lane widths in play are 4/8 (AVX2) and 8/16 (AVX-512); every extent
// below is chosen to leave a ragged vector tail or to be degenerate. Row
// counts straddle the 4- and 8-row micro-kernel blocks (3/4/5/7/8/9/33),
// and inner extents past kTileK (65/130/1024) carry accumulators across k
// tiles. The last seven are conv products of the compressor (11→16 k5 and
// 16→32 k3 on 32 steps, batch 32): three from the batch-major im2col
// layout ({1024,55,16}, {512,48,32} forwards, {16,1024,55} the batch-deep
// weight gradient) and four per-sample products of the Conv1D layout
// (forwards {16,55,32}, {32,48,16}; weight gradients {55,32,16},
// {48,16,32}).
const RaggedShape kRaggedShapes[] = {
    {1, 1, 1},      {1, 7, 13},     {2, 3, 17},      {5, 9, 33},
    {8, 16, 31},    {3, 5, 1},      {0, 4, 5},       {4, 0, 5},
    {3, 4, 0},      {9, 21, 19},    {3, 11, 16},     {4, 6, 32},
    {7, 13, 47},    {33, 9, 15},    {5, 65, 7},      {8, 130, 23},
    {9, 1024, 3},   {1024, 55, 16}, {512, 48, 32},   {16, 1024, 55},
    {16, 55, 32},   {32, 48, 16},   {55, 32, 16},    {48, 16, 32},
};

template <typename Backend>
std::vector<float> matmul_via(const std::vector<float>& a,
                              const std::vector<float>& b, std::size_t m,
                              std::size_t k, std::size_t n) {
  std::vector<float> out(m * n, 0.0f);
  dtmsv::nn::kernels::matmul_rows<Backend>(a.data(), b.data(), out.data(), 0, m,
                                           k, n);
  return out;
}

template <typename Backend>
std::vector<float> matmul_at_via(const std::vector<float>& a,
                                 const std::vector<float>& b, std::size_t m,
                                 std::size_t k, std::size_t n) {
  std::vector<float> out(m * n, 0.0f);
  dtmsv::nn::kernels::matmul_at_rows<Backend>(a.data(), b.data(), out.data(), 0,
                                              m, k, m, n);
  return out;
}

void expect_bits_equal(const std::vector<float>& got,
                       const std::vector<float>& want, const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]), std::bit_cast<std::uint32_t>(want[i]))
        << label << ": element " << i << " diverges (" << got[i] << " vs " << want[i] << ")";
  }
}

// Both matmul_bt paths of Tensor::matmul_bt on raw kernels, so each
// backend's instantiation is checked: transpose b then the axpy kernel
// (the batch path) must equal the dot-product rows (the few-rows path).
template <typename Backend>
std::vector<float> matmul_bt_transposed_b(const std::vector<float>& a,
                                          const std::vector<float>& b,
                                          std::size_t m, std::size_t k,
                                          std::size_t n) {
  std::vector<float> bt(k * n);
  dtmsv::nn::kernels::transpose(b.data(), bt.data(), n, k);
  return matmul_via<Backend>(a, bt, m, k, n);
}

template <typename Backend>
void check_matmul_backend_matches_scalar(const char* name) {
  Rng rng(11);
  for (const auto& s : kRaggedShapes) {
    const auto a = random_values(s.m * s.k, rng);
    const auto b = random_values(s.k * s.n, rng);
    expect_bits_equal(matmul_via<Backend>(a, b, s.m, s.k, s.n),
                      matmul_via<simd::scalar_backend>(a, b, s.m, s.k, s.n),
                      name);
    const auto at = random_values(s.k * s.m, rng);
    expect_bits_equal(
        matmul_at_via<Backend>(at, b, s.m, s.k, s.n),
        matmul_at_via<simd::scalar_backend>(at, b, s.m, s.k, s.n), name);

    const auto bn = random_values(s.n * s.k, rng);  // b as (n×k)
    std::vector<float> dot(s.m * s.n);
    dtmsv::nn::kernels::matmul_bt_rows(a.data(), bn.data(), dot.data(), 0, s.m,
                                       s.k, s.n);
    expect_bits_equal(matmul_bt_transposed_b<Backend>(a, bn, s.m, s.k, s.n), dot,
                      name);
  }
}

template <typename Backend>
void check_span_helpers_match_scalar(const char* name) {
  Rng rng(12);
  // Lengths straddling every lane width: empty, single, tails on both
  // sides of 4/8/16, and a multi-vector run with a ragged tail.
  for (const std::size_t len : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u,
                                17u, 67u}) {
    const auto src = random_values(len, rng);
    const auto base = random_values(len, rng);

    std::vector<float> want = base;
    simd::add_rows<simd::scalar_backend>(want.data(), src.data(), len);
    std::vector<float> got = base;
    simd::add_rows<Backend>(got.data(), src.data(), len);
    expect_bits_equal(got, want, name);

    std::vector<float> copied(len, -1.0f);
    simd::copy_row<Backend>(copied.data(), src.data(), len);
    expect_bits_equal(copied, src, name);
  }
}

template <typename Backend>
void check_partial_load_store(const char* name) {
  // load_first/store_first for every lane count 0..W: the first n lanes
  // round-trip, the rest load as zero, and nothing past p + n is written.
  using P = simd::pack<float, Backend>;
  constexpr std::size_t W = P::width;
  Rng rng(14);
  const auto src = random_values(W, rng);
  for (std::size_t n = 0; n <= W; ++n) {
    std::vector<float> lanes(W, -1.0f);
    P::load_first(src.data(), n).store(lanes.data());
    for (std::size_t i = 0; i < W; ++i) {
      ASSERT_EQ(lanes[i], i < n ? src[i] : 0.0f) << name << ": n=" << n << " lane " << i;
    }
    std::vector<float> dst(W + 1, 7.0f);
    P::load(src.data()).store_first(dst.data(), n);
    for (std::size_t i = 0; i <= W; ++i) {
      ASSERT_EQ(dst[i], i < n ? src[i] : 7.0f) << name << ": n=" << n << " slot " << i;
    }
  }
}

TEST(SimdBackends, ScalarBackendReportsAndComputes) {
  // The scalar backend is the always-available reference; sanity-check its
  // primitive ops and that the build records a known backend name.
  using P = simd::pack<float, simd::scalar_backend>;
  static_assert(P::width == 1);
  float out = 0.0f;
  P::madd(P::broadcast(3.0f), P::broadcast(2.0f), P::broadcast(1.0f)).store(&out);
  EXPECT_EQ(out, dtmsv::nn::fused_madd(3.0f, 2.0f, 1.0f));

  const std::string backend = simd::active_backend_name();
  EXPECT_TRUE(backend == "scalar" || backend == "avx2" || backend == "avx512");
}

TEST(SimdBackends, MatmulKernelsBitIdenticalAcrossBackends) {
  check_matmul_backend_matches_scalar<simd::scalar_backend>("scalar");
#if defined(__AVX2__)
  check_matmul_backend_matches_scalar<simd::avx2_backend>("avx2");
#endif
#if defined(__AVX512F__)
  check_matmul_backend_matches_scalar<simd::avx512_backend>("avx512");
#endif
}

/// matmul_at_rows against the ascending-kk triple loop on products wider
/// than two column tiles (kTileJ), where the column tiling splits every
/// output row: the tiles must leave each element's chain as it was.
template <typename Backend>
void check_wide_matmul_at(const char* name) {
  constexpr std::size_t kTileJ = dtmsv::nn::kernels::kTileJ;
  Rng rng(15);
  for (const RaggedShape s : {RaggedShape{48, 32, 4 * kTileJ},
                              RaggedShape{9, 70, 2 * kTileJ + 37}}) {
    ASSERT_GT(s.n, 2 * kTileJ);
    const auto a = random_values(s.k * s.m, rng);  // (k×m)
    const auto b = random_values(s.k * s.n, rng);
    std::vector<float> want(s.m * s.n);
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) {
        float acc = 0.0f;
        for (std::size_t kk = 0; kk < s.k; ++kk) {
          acc = dtmsv::nn::fused_madd(a[kk * s.m + i], b[kk * s.n + j], acc);
        }
        want[i * s.n + j] = acc;
      }
    }
    expect_bits_equal(matmul_at_via<Backend>(a, b, s.m, s.k, s.n), want, name);
  }
}

TEST(SimdBackends, WideMatmulAtMatchesNaiveOnEveryBackend) {
  check_wide_matmul_at<simd::scalar_backend>("scalar");
#if defined(__AVX2__)
  check_wide_matmul_at<simd::avx2_backend>("avx2");
#endif
#if defined(__AVX512F__)
  check_wide_matmul_at<simd::avx512_backend>("avx512");
#endif
}

TEST(SimdBackends, PartialLoadStoreTouchOnlyLeadingLanes) {
  check_partial_load_store<simd::scalar_backend>("scalar");
#if defined(__AVX2__)
  check_partial_load_store<simd::avx2_backend>("avx2");
#endif
#if defined(__AVX512F__)
  check_partial_load_store<simd::avx512_backend>("avx512");
#endif
}

TEST(SimdBackends, SpanHelpersBitIdenticalAcrossBackends) {
  check_span_helpers_match_scalar<simd::scalar_backend>("scalar");
#if defined(__AVX2__)
  check_span_helpers_match_scalar<simd::avx2_backend>("avx2");
#endif
#if defined(__AVX512F__)
  check_span_helpers_match_scalar<simd::avx512_backend>("avx512");
#endif
}

TEST(SimdBackends, BtTransposePathMatchesDotPath) {
  // matmul_bt dispatches on row count: >= 8 rows transposes b and runs the
  // vector axpy kernel, below that it runs the dot-product form. Both are
  // ascending-kk chains per element, so slicing the same product at
  // different row counts must agree bit-for-bit.
  Rng rng(13);
  const std::size_t k = 37, n = 11;
  const Tensor big_a = random_matrix(24, k, rng);
  const Tensor b = random_matrix(n, k, rng);
  const Tensor whole = Tensor::matmul_bt(big_a, b);  // transpose path
  for (const std::size_t i : {0u, 5u, 23u}) {
    Tensor row({1, k});
    for (std::size_t kk = 0; kk < k; ++kk) {
      row.at2(0, kk) = big_a.at2(i, kk);
    }
    const Tensor single = Tensor::matmul_bt(row, b);  // dot path
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(single.at2(0, j), whole.at2(i, j))
          << "row " << i << " col " << j;
    }
  }
}

// ---------------------------------------------------------------------------
// Adam step kernel. The oracle is the scalar loop Adam::step ran before the
// pack kernel, copied verbatim (one parameter tensor, members as
// arguments): every backend's kernel must reproduce it bit for bit.
//
// The oracle's fusion is the compiler's: it contracts
// `beta1_ * m[j] + (1.0 - beta1_) * g` into fma(beta1_, m[j], ...) or not.
// The kernel's is madd's. The two agree in an optimised GCC build (both
// fuse on an FMA target, neither on a generic one); an unoptimised GCC
// build never contracts, so there the backends are held to the scalar
// kernel instead of the oracle.

/// True when this translation unit contracts the oracle's expression shape
/// exactly as madd fuses. The operands make the fused and the unfused
/// results differ: b * m rounds to 1, fma(b, m, -1) is -2^-60. They are
/// read through volatile so the compiler cannot fold the probe away.
bool oracle_contracts_like_madd() {
  volatile double vb = 1.0 + 0x1p-30, vm = 1.0 - 0x1p-30, vg = 0x1p30;
  const double b = vb, m = vm, g = vg;
  const double contracted = b * m + (1.0 - b) * g;
  return contracted == simd::madd(b, m, (1.0 - b) * g);
}

struct AdamState {
  std::vector<float> value, m, v;
};

void adam_reference(AdamState& s, const std::vector<float>& grad_in, double beta1_,
                    double beta2_, double lr_, double epsilon_, std::size_t t_) {
  const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  {
    auto& value = s.value;
    const auto& grad = grad_in;
    auto& m = s.m;
    auto& v = s.v;
    for (std::size_t j = 0; j < value.size(); ++j) {
      const double g = grad[j];
      m[j] = static_cast<float>(beta1_ * m[j] + (1.0 - beta1_) * g);
      v[j] = static_cast<float>(beta2_ * v[j] + (1.0 - beta2_) * g * g);
      const double m_hat = m[j] / bias1;
      const double v_hat = v[j] / bias2;
      value[j] -= static_cast<float>(lr_ * m_hat / (std::sqrt(v_hat) + epsilon_));
    }
  }
}

dtmsv::nn::kernels::AdamCoefficients adam_coefficients(double beta1, double beta2,
                                                       double lr, double eps,
                                                       std::size_t t) {
  return {beta1, beta2, 1.0 - beta1, 1.0 - beta2,
          1.0 - std::pow(beta1, static_cast<double>(t)),
          1.0 - std::pow(beta2, static_cast<double>(t)), lr, eps};
}

/// Step t of the reference: the oracle where this build contracts as madd
/// fuses, else the scalar-backend kernel.
void reference_step(AdamState& s, const std::vector<float>& grad, double beta1,
                    double beta2, double lr, double eps, std::size_t t) {
  if (oracle_contracts_like_madd()) {
    adam_reference(s, grad, beta1, beta2, lr, eps, t);
  } else {
    dtmsv::nn::kernels::adam_step<simd::scalar_backend>(
        s.value.data(), grad.data(), s.m.data(), s.v.data(), s.value.size(),
        adam_coefficients(beta1, beta2, lr, eps, t));
  }
}

/// Step `step`'s gradient: cycles through ordinary, zero, tiny (1e-30),
/// large (±1e3) and clip-scaled gradients, with some zero and tiny
/// elements mixed into the ordinary ones.
std::vector<float> adam_gradient(std::size_t n, std::size_t step, Rng& rng) {
  std::vector<float> g(n);
  switch (step % 5) {
    case 0:
      for (float& x : g) {
        const double u = rng.uniform();
        x = u < 0.05 ? 0.0f : u < 0.1 ? 1e-30f : static_cast<float>(rng.normal(0.0, 0.5));
      }
      break;
    case 1:
      break;  // all zero
    case 2:
      for (float& x : g) {
        x = static_cast<float>(rng.uniform(-1.0, 1.0) * 1e-30);
      }
      break;
    case 3:
      for (float& x : g) {
        x = rng.uniform() < 0.5 ? -1e3f : 1e3f;
      }
      break;
    default: {
      // As clip_grad_norm leaves them: scaled by float(max_norm / norm).
      double sq = 0.0;
      for (float& x : g) {
        x = static_cast<float>(rng.normal(0.0, 4.0));
        sq += static_cast<double>(x) * static_cast<double>(x);
      }
      const auto scale = static_cast<float>(1.0 / std::sqrt(sq));
      for (float& x : g) {
        x *= scale;
      }
    }
  }
  return g;
}

template <typename Backend>
void check_adam_matches_reference(const char* name) {
  constexpr double kBeta1 = 0.9, kBeta2 = 0.999, kLr = 1e-3, kEps = 1e-8;
  for (const std::size_t n : {1u, 7u, 8u, 9u, 15u, 16u, 17u, 65u, 14744u}) {
    Rng rng(40 + n);
    AdamState want{random_values(n, rng), std::vector<float>(n, 0.0f),
                   std::vector<float>(n, 0.0f)};
    AdamState got = want;
    for (std::size_t t = 1; t <= 200; ++t) {
      const auto grad = adam_gradient(n, t, rng);
      reference_step(want, grad, kBeta1, kBeta2, kLr, kEps, t);
      dtmsv::nn::kernels::adam_step<Backend>(
          got.value.data(), grad.data(), got.m.data(), got.v.data(), n,
          adam_coefficients(kBeta1, kBeta2, kLr, kEps, t));
      SCOPED_TRACE(testing::Message() << "n " << n << " step " << t);
      expect_bits_equal(got.m, want.m, name);
      expect_bits_equal(got.v, want.v, name);
      expect_bits_equal(got.value, want.value, name);
      if (testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

TEST(AdamKernel, BitIdenticalToScalarLoopOnEveryBackend) {
#if defined(__OPTIMIZE__) && defined(__GNUC__) && !defined(__clang__)
  // Guards the oracle comparison against silently turning itself off.
  EXPECT_TRUE(oracle_contracts_like_madd());
#endif
  check_adam_matches_reference<simd::scalar_backend>("scalar");
#if defined(__AVX2__)
  check_adam_matches_reference<simd::avx2_backend>("avx2");
#endif
#if defined(__AVX512F__)
  check_adam_matches_reference<simd::avx512_backend>("avx512");
#endif
}

TEST(AdamKernel, OptimizerStepMatchesScalarLoop) {
  // Through nn::Adam: two parameter tensors (a ragged 14735 and a 9-wide
  // tail), learning rate and betas off their defaults, 200 steps.
  constexpr double kBeta1 = 0.8, kBeta2 = 0.99, kLr = 3e-3, kEps = 1e-7;
  Rng rng(48);
  std::vector<Tensor> values, grads;
  std::vector<AdamState> want;
  for (const std::size_t n : {14735u, 9u}) {
    values.push_back(random_matrix(1, n, rng));
    grads.emplace_back(dtmsv::nn::Shape{1, n});
    const auto d = values.back().data();
    want.push_back({{d.begin(), d.end()}, std::vector<float>(n, 0.0f),
                    std::vector<float>(n, 0.0f)});
  }
  std::vector<dtmsv::nn::ParamRef> params;
  for (std::size_t i = 0; i < values.size(); ++i) {
    params.push_back({&values[i], &grads[i], "p"});
  }
  dtmsv::nn::Adam adam(params, kLr, kBeta1, kBeta2, kEps);
  for (std::size_t t = 1; t <= 200; ++t) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      const auto g = adam_gradient(values[i].size(), t, rng);
      std::copy(g.begin(), g.end(), grads[i].data().begin());
      reference_step(want[i], g, kBeta1, kBeta2, kLr, kEps, t);
    }
    adam.step();
    for (std::size_t i = 0; i < values.size(); ++i) {
      const auto d = values[i].data();
      SCOPED_TRACE(testing::Message() << "step " << t);
      expect_bits_equal({d.begin(), d.end()}, want[i].value, "Adam::step");
    }
  }
  EXPECT_EQ(adam.step_count(), 200u);
}

// ---------------------------------------------------------------------------
// Adam's bias-correction divides. Where madd fuses, adam_lanes divides by
// bias1 and bias2 through divide_by_bias (a reciprocal and two FMAs); the
// sweeps hold it to the plain divide bit for bit, over every step count up
// to 20000 (bias1 = 1 - 0.9^t rounds to 1.0 from t ~ 350 on) and over
// inputs at the edges of float: ±0, subnormals, 1 ulp around powers of two
// and ±FLT_MAX, plus random finite bit patterns.

/// ±0, float subnormals and FLT_MIN, 1 ulp either side of powers of two
/// (and the powers), ±FLT_MAX, and a few ordinary values.
std::vector<float> edge_floats() {
  constexpr float kMax = std::numeric_limits<float>::max();
  constexpr float kMin = std::numeric_limits<float>::min();
  constexpr float kTrueMin = std::numeric_limits<float>::denorm_min();
  std::vector<float> out = {0.0f,  -0.0f, kTrueMin, -kTrueMin, 1e-40f, -3e-39f,
                            kMin,  -kMin, kMax,     -kMax,     0.1f,   -0.3f,
                            1.5f,  7.0f,  1e-30f,   -1e30f};
  for (const int e : {-126, -100, -20, -1, 0, 1, 20, 100, 127}) {
    const float p = std::ldexp(1.0f, e);
    for (const float x : {std::nextafter(p, 0.0f), p, std::nextafter(p, kMax)}) {
      out.push_back(x);
      out.push_back(-x);
    }
  }
  return out;
}

/// A finite float from random bits: every exponent, subnormals included,
/// equally likely.
float random_finite_float(Rng& rng) {
  while (true) {
    const float x = std::bit_cast<float>(static_cast<std::uint32_t>(rng.next()));
    if (std::isfinite(x)) {
      return x;
    }
  }
}

bool same_bits_or_both_nan(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

template <typename Backend>
void check_bias_divide_matches_divide(const char* name) {
  using P = simd::pack<double, Backend>;
  constexpr std::size_t W = P::width;
  const std::vector<float> edges = edge_floats();
  std::vector<float> nums(edges.size() + 64);
  nums.resize((nums.size() + W - 1) / W * W, 1.0f);
  Rng rng(49);
  for (const double beta : {0.9, 0.999, 0.9999}) {
    for (std::size_t t = 1; t <= 20000; ++t) {
      std::copy(edges.begin(), edges.end(), nums.begin());
      for (std::size_t i = edges.size(); i < edges.size() + 64; ++i) {
        nums[i] = random_finite_float(rng);
      }
      const double b = 1.0 - std::pow(beta, static_cast<double>(t));
      const P bias = P::broadcast(b);
      const P ny = P::broadcast(-(1.0 / b));
      for (std::size_t i = 0; i < nums.size(); i += W) {
        double got[W];
        dtmsv::nn::kernels::divide_by_bias(P::load_widen(nums.data() + i), bias, ny)
            .store(got);
        for (std::size_t l = 0; l < W; ++l) {
          const double want = static_cast<double>(nums[i + l]) / b;
          if (std::bit_cast<std::uint64_t>(got[l]) != std::bit_cast<std::uint64_t>(want)) {
            FAIL() << name << ": " << nums[i + l] << " / (1 - " << beta << "^" << t
                   << ") gave " << got[l] << ", the divide " << want;
          }
        }
      }
    }
  }
}

TEST(AdamKernel, BiasDivideEqualsDivideOnEveryBackend) {
  check_bias_divide_matches_divide<simd::scalar_backend>("scalar");
#if defined(__AVX2__)
  check_bias_divide_matches_divide<simd::avx2_backend>("avx2");
#endif
#if defined(__AVX512F__)
  check_bias_divide_matches_divide<simd::avx512_backend>("avx512");
#endif
}

/// One Adam step as a plain scalar loop with both bias corrections as
/// divides. Every multiply-add is a madd and every other product rounds
/// on its own, so the loop means the same in every build regime.
void adam_divide_reference(AdamState& s, const std::vector<float>& grad,
                           const dtmsv::nn::kernels::AdamCoefficients& c) {
  for (std::size_t j = 0; j < s.value.size(); ++j) {
    const double g = grad[j];
    const double mj = static_cast<float>(simd::madd(static_cast<double>(s.m[j]), c.beta1,
                                                    c.one_minus_beta1 * g));
    const double vj = static_cast<float>(simd::madd(static_cast<double>(s.v[j]), c.beta2,
                                                    (c.one_minus_beta2 * g) * g));
    const double update = static_cast<float>(c.lr * (mj / c.bias1) /
                                             (std::sqrt(vj / c.bias2) + c.epsilon));
    s.m[j] = static_cast<float>(mj);
    s.v[j] = static_cast<float>(vj);
    s.value[j] = static_cast<float>(static_cast<double>(s.value[j]) - update);
  }
}

template <typename Backend>
void check_adam_edge_sweep(const char* name) {
  // Fresh state each step, rotated through the edge values so that every
  // lane meets every kind of weight, moment and gradient: a FLT_MAX
  // gradient overflows v to inf, a negative v takes sqrt to NaN, and both
  // reach adam_lanes' divide fallback. 70 parameters: full vectors and a
  // ragged tail on every backend.
  const std::vector<float> edges = edge_floats();
  const std::size_t n = edges.size();
  const auto same = [](const std::vector<float>& got, const std::vector<float>& want) {
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (!same_bits_or_both_nan(got[i], want[i])) {
        return false;
      }
    }
    return true;
  };
  for (const double beta2 : {0.999, 0.9999}) {
    for (std::size_t t = 1; t <= 20000; ++t) {
      AdamState want{std::vector<float>(n), std::vector<float>(n), std::vector<float>(n)};
      std::vector<float> grad(n);
      for (std::size_t i = 0; i < n; ++i) {
        want.value[i] = edges[i];
        want.m[i] = edges[(i + t) % n];
        want.v[i] = edges[(3 * i + t) % n];
        grad[i] = edges[(7 * i + 2 * t) % n];
      }
      AdamState got = want;
      const auto c = adam_coefficients(0.9, beta2, 1e-3, 1e-8, t);
      adam_divide_reference(want, grad, c);
      dtmsv::nn::kernels::adam_step<Backend>(got.value.data(), grad.data(), got.m.data(),
                                             got.v.data(), n, c);
      ASSERT_TRUE(same(got.m, want.m) && same(got.v, want.v) && same(got.value, want.value))
          << name << ": beta2 " << beta2 << " step " << t;
    }
  }
}

TEST(AdamKernel, EdgeInputSweepMatchesDivideLoopOnEveryBackend) {
  check_adam_edge_sweep<simd::scalar_backend>("scalar");
#if defined(__AVX2__)
  check_adam_edge_sweep<simd::avx2_backend>("avx2");
#endif
#if defined(__AVX512F__)
  check_adam_edge_sweep<simd::avx512_backend>("avx512");
#endif
}

template <typename Backend>
void check_double_pack_lanes(const char* name) {
  // sqrt, widen/narrow and round_to_float lane by lane against their
  // scalar definitions, on values that stress each: zeros of both signs,
  // ±inf, NaN, a negative (sqrt -> NaN), float-subnormal and
  // float-overflowing doubles, and values with bits below float precision.
  using P = simd::pack<double, Backend>;
  constexpr std::size_t W = P::width;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> specials = {
      0.0, -0.0, 1.0, 2.0, inf, -inf, nan, -4.0, 1e-40, 1e-310, 3e38, 1e39,
      1.0 + 1e-12, 0.1, 123456.789, -7.25};
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  for (std::size_t base = 0; base + W <= specials.size(); base += W) {
    const double* x = specials.data() + base;
    double out[W];
    sqrt(P::load(x)).store(out);
    for (std::size_t i = 0; i < W; ++i) {
      ASSERT_TRUE(same(out[i], std::sqrt(x[i])) ||
                  (std::isnan(out[i]) && std::isnan(std::sqrt(x[i]))))
          << name << ": sqrt lane " << i << " of " << x[i];
    }
    round_to_float(P::load(x)).store(out);
    for (std::size_t i = 0; i < W; ++i) {
      const double want = static_cast<double>(static_cast<float>(x[i]));
      ASSERT_TRUE(same(out[i], want) || (std::isnan(out[i]) && std::isnan(want)))
          << name << ": round_to_float lane " << i << " of " << x[i];
    }
    // Narrowing stores, whole and partial: the first n floats are the
    // rounded lanes, nothing past them is written.
    for (std::size_t n = 0; n <= W; ++n) {
      std::vector<float> dst(W + 1, 7.0f);
      if (n == W) {
        P::load(x).store_narrow(dst.data());
      } else {
        P::load(x).store_narrow_first(dst.data(), n);
      }
      for (std::size_t i = 0; i <= W; ++i) {
        const float want = i < n ? static_cast<float>(x[i]) : 7.0f;
        ASSERT_TRUE(std::bit_cast<std::uint32_t>(dst[i]) == std::bit_cast<std::uint32_t>(want) ||
                    (std::isnan(dst[i]) && std::isnan(want)))
            << name << ": store_narrow n=" << n << " slot " << i;
      }
    }
  }
  // Widening loads, whole and partial: exact, zero past n.
  std::vector<float> src = {1.5f, -0.0f, 1e-40f, 3.4e38f, -2.25f, 0.1f,
                            std::numeric_limits<float>::infinity(), 7.0f,
                            -1e-3f, 65504.0f, 1.0f / 3.0f, -5.0f,
                            2.0f, 3.0f, 4.0f, 5.0f};
  for (std::size_t n = 0; n <= W; ++n) {
    double lanes[W];
    (n == W ? P::load_widen(src.data()) : P::load_widen_first(src.data(), n)).store(lanes);
    for (std::size_t i = 0; i < W; ++i) {
      const double want = i < n ? static_cast<double>(src[i]) : 0.0;
      ASSERT_TRUE(same(lanes[i], want)) << name << ": load_widen n=" << n << " lane " << i;
    }
  }
}

TEST(SimdBackends, DoublePackSqrtAndWidenNarrowLanes) {
  check_double_pack_lanes<simd::scalar_backend>("scalar");
#if defined(__AVX2__)
  check_double_pack_lanes<simd::avx2_backend>("avx2");
#endif
#if defined(__AVX512F__)
  check_double_pack_lanes<simd::avx512_backend>("avx512");
#endif
}

TEST(ParallelFor, BackToBackDispatchesReuseTheJobSafely) {
  // Thousands of short dispatches in a row, each over a different range:
  // the pool refills one job record for every one, so a worker still
  // leaving the previous dispatch must never see a half-refilled record.
  // Each dispatch must cover its own range exactly once.
  dtmsv::util::set_thread_count(4);
  std::vector<std::atomic<int>> hits(64);
  for (std::size_t round = 0; round < 4000; ++round) {
    const std::size_t begin = round % 7;
    const std::size_t end = begin + 4 + round % 53;
    dtmsv::util::parallel_for(begin, end, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].exchange(0), i >= begin && i < end ? 1 : 0)
          << "round " << round << " index " << i;
    }
  }
  dtmsv::util::set_thread_count(0);
}

TEST(ParallelFor, EmptyAndTinyRanges) {
  dtmsv::util::set_thread_count(4);
  int calls = 0;
  dtmsv::util::parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // Below min_grain the loop runs inline as one chunk.
  dtmsv::util::parallel_for(0, 3, 100, [&](std::size_t lo, std::size_t hi) {
    ++calls;
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 3u);
  });
  EXPECT_EQ(calls, 1);
  dtmsv::util::set_thread_count(0);
}

}  // namespace
