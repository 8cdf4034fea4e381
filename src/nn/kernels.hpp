// Backend-templated matmul row kernels, shared by the Tensor entry points
// in tensor.cpp (instantiated on the build's default SIMD backend) and by
// the backend-equivalence tests (which instantiate every backend compiled
// into the binary and assert bit-identical outputs).
//
// Vectorisation layout: lanes are *output columns* (j). All kernels
// accumulate each output element (i, j) in ascending kk order whatever the
// lane width or register blocking, so a vector lane computes exactly the
// chain the scalar backend computes for that column. Multiply-accumulate
// goes through util::simd's madd (fused iff the target has fast hardware
// FMA, in scalar and vector code alike), and a ragged column tail runs as
// one masked vector whose live lanes compute the same chains, so the
// scalar backend agrees with every vector backend.
#pragma once

#include <algorithm>
#include <cstddef>

#include "util/simd.hpp"

namespace dtmsv::nn::kernels {

// Cache tiles for the blocked kernels. The b-tile (kTileK x kTileJ floats,
// 32 KiB) stays L1/L2-resident while it is reused across a block of output
// rows. Accumulation order per output element is always ascending kk
// (the kb blocks advance monotonically), so tiled results are
// bit-identical to the untiled triple loop and to themselves for any tile
// size, lane width, or thread count.
constexpr std::size_t kTileI = 32;
constexpr std::size_t kTileJ = 128;
constexpr std::size_t kTileK = 64;

/// Register micro-kernel: for the R output rows starting at `out` (row
/// stride n) and the V column vectors starting at j,
/// out(r, j..) += Σ_kk a(r, kk) · b[kk][j..] for kk in [kb, ke), where
/// a(r, kk) = a[r * ars + kk * acs]. The R·V <= 8 accumulators stay in
/// registers across the whole kk loop and each b vector is loaded once per
/// kk for all R rows, so a k step issues R·V independent madds instead of
/// one serial chain. With Tail (V == 1), the vector covers only `tail` < W
/// columns through masked loads/stores. Every lane still carries exactly
/// one output's chain in ascending kk via util::simd's madd, so the block
/// shape cannot change a bit of the result.
///
/// Accumulator slot s holds row s / V, vector s % V. The slots are named
/// variables, not an array: GCC keeps an array of vector structs in stack
/// memory, which puts a store-to-load round trip into every chain.
template <typename Backend, std::size_t R, std::size_t V, bool Tail>
inline void micro_tile(const float* a, std::size_t ars, std::size_t acs,
                       const float* b, std::size_t n, float* out,
                       std::size_t kb, std::size_t ke, std::size_t j,
                       std::size_t tail) {
  static_assert(R >= 1 && (V == 1 || V == 2) && R * V <= 8 && (!Tail || V == 1));
  using P = util::simd::pack<float, Backend>;
  constexpr std::size_t W = P::width;
  constexpr std::size_t S = R * V;
  const auto load = [tail](const float* p) {
    return Tail ? P::load_first(p, tail) : P::load(p);
  };
  const auto cell = [out, n, j](std::size_t s) {
    return out + (s / V) * n + j + (s % V) * W;
  };
  const auto store = [&](const P& x, std::size_t s) {
    if constexpr (Tail) {
      x.store_first(cell(s), tail);
    } else {
      x.store(cell(s));
    }
  };
  P x0 = load(cell(0)), x1 = P::zero(), x2 = P::zero(), x3 = P::zero();
  P x4 = P::zero(), x5 = P::zero(), x6 = P::zero(), x7 = P::zero();
  if constexpr (S > 1) x1 = load(cell(1));
  if constexpr (S > 2) x2 = load(cell(2));
  if constexpr (S > 3) x3 = load(cell(3));
  if constexpr (S > 4) x4 = load(cell(4));
  if constexpr (S > 5) x5 = load(cell(5));
  if constexpr (S > 6) x6 = load(cell(6));
  if constexpr (S > 7) x7 = load(cell(7));
  for (std::size_t kk = kb; kk < ke; ++kk) {
    const float* brow = b + kk * n + j;
    const P b0 = load(brow);
    const P b1 = V == 1 ? b0 : P::load(brow + W);
    const float* acol = a + kk * acs;
    const auto step = [&](P& x, std::size_t s) {
      x = P::madd(P::broadcast(acol[(s / V) * ars]), s % V == 0 ? b0 : b1, x);
    };
    step(x0, 0);
    if constexpr (S > 1) step(x1, 1);
    if constexpr (S > 2) step(x2, 2);
    if constexpr (S > 3) step(x3, 3);
    if constexpr (S > 4) step(x4, 4);
    if constexpr (S > 5) step(x5, 5);
    if constexpr (S > 6) step(x6, 6);
    if constexpr (S > 7) step(x7, 7);
  }
  store(x0, 0);
  if constexpr (S > 1) store(x1, 1);
  if constexpr (S > 2) store(x2, 2);
  if constexpr (S > 3) store(x3, 3);
  if constexpr (S > 4) store(x4, 4);
  if constexpr (S > 5) store(x5, 5);
  if constexpr (S > 6) store(x6, 6);
  if constexpr (S > 7) store(x7, 7);
}

/// Runs R-row micro-kernel blocks down rows [i, i1) for one column chunk,
/// then hands the < R leftover rows to the next narrower block (R/2, ...,
/// 1), so any row count takes at most log2(R) partial blocks.
template <typename Backend, std::size_t R, std::size_t V, bool Tail>
inline void rows_tile(const float* a, std::size_t ars, std::size_t acs,
                      const float* b, std::size_t n, float* out, std::size_t i,
                      std::size_t i1, std::size_t kb, std::size_t ke,
                      std::size_t j, std::size_t tail) {
  for (; i + R <= i1; i += R) {
    micro_tile<Backend, R, V, Tail>(a + i * ars, ars, acs, b, n, out + i * n,
                                    kb, ke, j, tail);
  }
  if constexpr (R > 1) {
    rows_tile<Backend, R / 2, V, Tail>(a, ars, acs, b, n, out, i, i1, kb, ke,
                                       j, tail);
  }
}

/// Row-blocked accumulate over output rows [i0, i1) of an n-column `out`:
/// out(i, jb..je) += Σ_kk a(i, kk) · b[kk][jb..je) for kk in [kb, ke),
/// a(i, kk) = a[i * ars + kk * acs]. Columns go in two-vector chunks on
/// 4-row blocks, then one full vector and one masked partial vector on
/// 8-row blocks — eight independent accumulators either way.
template <typename Backend>
inline void accum_rows(const float* a, std::size_t ars, std::size_t acs,
                       const float* b, std::size_t n, float* out,
                       std::size_t i0, std::size_t i1, std::size_t kb,
                       std::size_t ke, std::size_t jb, std::size_t je) {
  constexpr std::size_t W = util::simd::pack<float, Backend>::width;
  std::size_t j = jb;
  for (; j + 2 * W <= je; j += 2 * W) {
    rows_tile<Backend, 4, 2, false>(a, ars, acs, b, n, out, i0, i1, kb, ke, j, W);
  }
  if (j + W <= je) {
    rows_tile<Backend, 8, 1, false>(a, ars, acs, b, n, out, i0, i1, kb, ke, j, W);
    j += W;
  }
  if (j < je) {
    rows_tile<Backend, 8, 1, true>(a, ars, acs, b, n, out, i0, i1, kb, ke, j,
                                   je - j);
  }
}

/// out[i0..i1) += a · b for row-major a (m×k), b (k×n).
template <typename Backend>
void matmul_rows(const float* a, const float* b, float* out, std::size_t i0,
                 std::size_t i1, std::size_t k, std::size_t n) {
  for (std::size_t ib = i0; ib < i1; ib += kTileI) {
    const std::size_t ie = std::min(ib + kTileI, i1);
    for (std::size_t kb = 0; kb < k; kb += kTileK) {
      const std::size_t ke = std::min(kb + kTileK, k);
      for (std::size_t jb = 0; jb < n; jb += kTileJ) {
        const std::size_t je = std::min(jb + kTileJ, n);
        accum_rows<Backend>(a, k, 1, b, n, out, ib, ie, kb, ke, jb, je);
      }
    }
  }
}

/// out[i0..i1) = a · bᵀ for row-major a (m×k), b (n×k), dot-product form.
/// Four independent chains per iteration break the serial FP dependency
/// while keeping every (i, j) accumulation in ascending kk order — the
/// same chain the axpy kernels produce, so the two forms are
/// interchangeable per element. Backend-independent (no useful contiguous
/// lane axis without transposing b); kept for short row counts where a
/// transpose would cost more than it saves.
inline void matmul_bt_rows(const float* a, const float* b, float* out,
                           std::size_t i0, std::size_t i1, std::size_t k,
                           std::size_t n) {
  for (std::size_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* orow = out + i * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b + (j + 0) * k;
      const float* b1 = b + (j + 1) * k;
      const float* b2 = b + (j + 2) * k;
      const float* b3 = b + (j + 3) * k;
      float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        acc0 = util::simd::madd(av, b0[kk], acc0);
        acc1 = util::simd::madd(av, b1[kk], acc1);
        acc2 = util::simd::madd(av, b2[kk], acc2);
        acc3 = util::simd::madd(av, b3[kk], acc3);
      }
      orow[j + 0] = acc0;
      orow[j + 1] = acc1;
      orow[j + 2] = acc2;
      orow[j + 3] = acc3;
    }
    for (; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc = util::simd::madd(arow[kk], brow[kk], acc);
      }
      orow[j] = acc;
    }
  }
}

/// out[i0..i1) += aᵀ · b for row-major a (k×m), b (k×n).
template <typename Backend>
void matmul_at_rows(const float* a, const float* b, float* out, std::size_t i0,
                    std::size_t i1, std::size_t k, std::size_t m,
                    std::size_t n) {
  for (std::size_t ib = i0; ib < i1; ib += kTileI) {
    const std::size_t ie = std::min(ib + kTileI, i1);
    for (std::size_t kb = 0; kb < k; kb += kTileK) {
      const std::size_t ke = std::min(kb + kTileK, k);
      accum_rows<Backend>(a, 1, m, b, n, out, ib, ie, kb, ke, 0, n);
    }
  }
}

/// dst (k×n) = src (n×k) transposed. Pure data movement, exact.
inline void transpose(const float* src, float* dst, std::size_t n,
                      std::size_t k) {
  for (std::size_t r = 0; r < n; ++r) {
    const float* srow = src + r * k;
    for (std::size_t c = 0; c < k; ++c) {
      dst[c * n + r] = srow[c];
    }
  }
}

}  // namespace dtmsv::nn::kernels
