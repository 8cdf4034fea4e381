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

#include <atomic>
#include <cstddef>
#include <vector>

#include "nn/kernels.hpp"
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
    ASSERT_EQ(got[i], want[i]) << label << ": element " << i << " diverges";
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
