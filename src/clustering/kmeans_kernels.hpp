// Backend-templated clustering kernels, shared by the Lloyd loop and the
// k-means++ seeding in kmeans.cpp and the silhouette metric in metrics.cpp
// (all instantiated on the build's default SIMD backend) and by the
// backend-equivalence tests (which instantiate every backend the binary
// was compiled for and assert bit-identical results).
//
// Vectorisation layout of the assign pass: lanes are *centroids*.
// Centroids are transposed into dim-major lane rows (padded with +inf so
// dead lanes never win), and lane c accumulates point-to-centroid-c
// squared distance as the exact madd chain over dimensions the scalar
// backend would run — same order, same fusion regime. The argmin keeps
// strict-< semantics (lowest index wins, NaN distances never compare
// less so they are skipped), identical on every backend. The k-means++
// D² update puts *points* in lanes, and the silhouette passes put query
// points in lanes; every lane runs the same ascending-dimension chain.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "util/simd.hpp"

namespace dtmsv::clustering::kernels {

/// Squared Euclidean distance between two contiguous rows, accumulated as
/// an ascending-dimension madd chain — the scalar reference every lane of
/// the assign kernel reproduces.
inline double row_sq_dist(const double* a, const double* b, std::size_t dim) {
  double total = 0.0;
  for (std::size_t d = 0; d < dim; ++d) {
    const double diff = a[d] - b[d];
    total = util::simd::madd(diff, diff, total);
  }
  return total;
}

/// Branchless strict-< argmin over the first k stored distances: lowest
/// index wins, NaN entries never compare less and are skipped. Written as
/// conditional selects rather than compare-and-branch — centroids move
/// every Lloyd iteration, so a branchy scan mispredicts its way through
/// the pass in situ even though it looks fine in steady-state microbenches.
inline std::size_t argmin_scan(const double* dist, std::size_t k) {
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_idx = 0;
  for (std::size_t c = 0; c < k; ++c) {
    const double dc = dist[c];
    const bool lt = dc < best;
    best = lt ? dc : best;
    best_idx = lt ? c : best_idx;
  }
  return best_idx;
}

/// Register-resident specialisation of the fused assign+accumulate pass
/// for the pipeline's two point shapes, 8-d CNN embeddings and 12-d
/// summary features, with k <= GROUPS lane groups. The transposed centroid
/// lanes live in GROUPS x DIM packs for the entire pass and each point's
/// search is DIM broadcast-sub-madd steps per group — no centroid memory
/// traffic inside the point loop. Chains and tie-breaking are exactly the
/// generic kernel's, so the two paths (and every backend) agree
/// bit-for-bit.
template <typename Backend, std::size_t DIM, std::size_t GROUPS>
bool assign_accumulate_reg(const double* pts, std::size_t n,
                           const double* cents, std::size_t k,
                           std::size_t* assignment, double* sums,
                           std::size_t* counts) {
  using P = util::simd::pack<double, Backend>;
  constexpr std::size_t W = P::width;

  // Transpose + pad into lane rows (+inf beyond k so dead lanes never
  // win), then lift them into packs the compiler can keep in registers.
  double tr[DIM * GROUPS * W];
  std::fill(tr, tr + DIM * GROUPS * W,
            std::numeric_limits<double>::infinity());
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t d = 0; d < DIM; ++d) {
      tr[d * GROUPS * W + c] = cents[c * DIM + d];
    }
  }
  P trows[GROUPS][DIM];
  for (std::size_t g = 0; g < GROUPS; ++g) {
    for (std::size_t d = 0; d < DIM; ++d) {
      trows[g][d] = P::load(tr + d * GROUPS * W + g * W);
    }
  }

  std::size_t nchanged = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* p = pts + i * DIM;
    P acc[GROUPS];
    for (std::size_t g = 0; g < GROUPS; ++g) {
      acc[g] = P::zero();
    }
    for (std::size_t d = 0; d < DIM; ++d) {
      const P pv = P::broadcast(p[d]);
      for (std::size_t g = 0; g < GROUPS; ++g) {
        const P x = pv - trows[g][d];
        acc[g] = P::madd(x, x, acc[g]);
      }
    }
    // Resolve the argmin in registers: per-group min-reduce, then the
    // lowest lane attaining it via the EQ-mask ctz (group order is
    // ascending and later groups only win on strict <, so ties resolve to
    // the lowest index — exactly argmin_scan's semantics). Vector min
    // propagation is operand-order-dependent under NaN, so any NaN lane
    // routes the point through the stored-distance scalar scan instead,
    // which skips NaN like the pre-SIMD implementation did.
    unsigned nan_lanes = 0;
    for (std::size_t g = 0; g < GROUPS; ++g) {
      nan_lanes |= acc[g].unord_mask();
    }
    std::size_t best_idx;
    if (nan_lanes != 0) {
      double dist[GROUPS * W];
      for (std::size_t g = 0; g < GROUPS; ++g) {
        acc[g].store(dist + g * W);
      }
      best_idx = argmin_scan(dist, k);
    } else {
      double best = acc[0].reduce_min();
      best_idx = static_cast<std::size_t>(std::countr_zero(acc[0].eq_mask(best)));
      for (std::size_t g = 1; g < GROUPS; ++g) {
        const double m = acc[g].reduce_min();
        if (m < best) {
          best = m;
          best_idx =
              g * W + static_cast<std::size_t>(std::countr_zero(acc[g].eq_mask(m)));
        }
      }
    }

    nchanged += static_cast<std::size_t>(assignment[i] != best_idx);
    assignment[i] = best_idx;
    ++counts[best_idx];
    util::simd::add_rows<Backend>(sums + best_idx * DIM, p, DIM);
  }
  return nchanged != 0;
}

/// Generic form of the fused assign+accumulate pass, for any dim and k:
/// centroid lanes are reloaded from a transposed buffer per dimension and
/// the per-centroid distances are stored and scanned by argmin_scan. It is
/// the path for shapes the register kernel does not cover and the
/// reference that kernel is tested against.
template <typename Backend>
bool assign_accumulate_generic(const double* pts, std::size_t n, std::size_t dim,
                               const double* cents, std::size_t k,
                               std::size_t* assignment, double* sums,
                               std::size_t* counts) {
  using P = util::simd::pack<double, Backend>;
  constexpr std::size_t W = P::width;
  const std::size_t groups = (k + W - 1) / W;
  const std::size_t padded_k = groups * W;

  // Transpose + pad: trows[d * padded_k + c] = component d of centroid c,
  // +inf beyond k so padded lanes never win the scan.
  std::vector<double> trows(dim * padded_k,
                            std::numeric_limits<double>::infinity());
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t d = 0; d < dim; ++d) {
      trows[d * padded_k + c] = cents[c * dim + d];
    }
  }

  std::vector<double> dist(padded_k);
  std::size_t nchanged = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* p = pts + i * dim;

    // Per-centroid squared distances, one madd chain per lane. Two lane
    // groups run interleaved so their fma chains overlap (the chain over
    // dimensions is latency-bound; centroid positions move every Lloyd
    // iteration, so a branchy argmin inside this loop mispredicts — all
    // comparisons are deferred to the scan below).
    std::size_t g = 0;
    for (; g + 2 <= groups; g += 2) {
      P acc0 = P::zero();
      P acc1 = P::zero();
      for (std::size_t d = 0; d < dim; ++d) {
        const P pv = P::broadcast(p[d]);
        const P x0 = pv - P::load(trows.data() + d * padded_k + g * W);
        const P x1 = pv - P::load(trows.data() + d * padded_k + (g + 1) * W);
        acc0 = P::madd(x0, x0, acc0);
        acc1 = P::madd(x1, x1, acc1);
      }
      acc0.store(dist.data() + g * W);
      acc1.store(dist.data() + (g + 1) * W);
    }
    for (; g < groups; ++g) {
      P acc = P::zero();
      for (std::size_t d = 0; d < dim; ++d) {
        const P pv = P::broadcast(p[d]);
        const P x = pv - P::load(trows.data() + d * padded_k + g * W);
        acc = P::madd(x, x, acc);
      }
      acc.store(dist.data() + g * W);
    }

    const std::size_t best_idx = argmin_scan(dist.data(), k);

    nchanged += static_cast<std::size_t>(assignment[i] != best_idx);
    assignment[i] = best_idx;
    ++counts[best_idx];
    util::simd::add_rows<Backend>(sums + best_idx * dim, p, dim);
  }
  return nchanged != 0;
}

/// Fused assignment + accumulation pass of one Lloyd iteration over raw
/// rows: finds each point's nearest centroid and immediately folds the
/// point into its cluster's running sum and count while the row is still
/// hot. Returns true when any assignment changed. `sums` must hold k*dim
/// zeros-or-carried values, `counts` k entries; n == 0 is a no-op.
template <typename Backend>
bool assign_accumulate(const double* pts, std::size_t n, std::size_t dim,
                       const double* cents, std::size_t k,
                       std::size_t* assignment, double* sums,
                       std::size_t* counts) {
  constexpr std::size_t W = util::simd::pack<double, Backend>::width;
  // The pipeline's shapes (8-d embeddings, 12-d summaries, K in [2, 12])
  // get the register-resident kernel; other shapes take the generic loop.
  // Both produce identical bits, so the cutoff is purely perf.
  if (dim == 8 && k <= W) {
    return assign_accumulate_reg<Backend, 8, 1>(pts, n, cents, k, assignment, sums, counts);
  }
  if (dim == 8 && k <= 2 * W) {
    return assign_accumulate_reg<Backend, 8, 2>(pts, n, cents, k, assignment, sums, counts);
  }
  if (dim == 12 && k <= W) {
    return assign_accumulate_reg<Backend, 12, 1>(pts, n, cents, k, assignment, sums, counts);
  }
  if (dim == 12 && k <= 2 * W) {
    return assign_accumulate_reg<Backend, 12, 2>(pts, n, cents, k, assignment, sums, counts);
  }
  return assign_accumulate_generic<Backend>(pts, n, dim, cents, k, assignment,
                                            sums, counts);
}

/// One k-means++ D² round: d2[i] = min(d2[i], row_sq_dist(p_i, newest)),
/// where a NaN distance never lowers d2[i] (the scalar `if (d < d2[i])`).
/// Lanes are points: `cols` holds the points dim-major (cols[d * stride +
/// i]), and each lane runs the ascending-dimension chain of row_sq_dist
/// for its point. `n` must be a multiple of the pack width; `stride` >= n.
template <typename Backend>
void d2_update(const double* cols, std::size_t stride, std::size_t dim,
               const double* newest, std::size_t n, double* d2) {
  using P = util::simd::pack<double, Backend>;
  for (std::size_t i = 0; i < n; i += P::width) {
    P acc = P::zero();
    for (std::size_t d = 0; d < dim; ++d) {
      const P x = P::load(cols + d * stride + i) - P::broadcast(newest[d]);
      acc = P::madd(x, x, acc);
    }
    const P cur = P::load(d2 + i);
    select_gt(cur, acc, acc, cur).store(d2 + i);
  }
}

/// Scalar per-query form of silhouette_sums: the reference chain every
/// lane of the vector pass reproduces, and the path for query rows with a
/// non-finite coordinate (whose self-distance is NaN, not +0, so the
/// `j == query` skip must be explicit).
inline void silhouette_sums_row(const double* pts, std::size_t dim,
                                const double* members,
                                const std::size_t* offsets,
                                const std::size_t* ids, std::size_t k,
                                std::size_t query, double* sums) {
  const double* q = pts + query * dim;
  for (std::size_t c = 0; c < k; ++c) {
    double acc = 0.0;
    for (std::size_t m = offsets[c]; m < offsets[c + 1]; ++m) {
      if (ids[m] != query) {
        acc += std::sqrt(row_sq_dist(q, members + m * dim, dim));
      }
    }
    sums[c] = acc;
  }
}

/// Per-cluster distance sums behind the silhouette coefficient:
///   sums[q * k + c] = sum over members j of cluster c, in ascending j,
///                     j != queries[q], of sqrt(row_sq_dist(p_query, p_j)).
/// `offsets` (k + 1 entries) and `ids` are the stable counting-sort order
/// of clustering::members_by_cluster: cluster c's points are
/// ids[offsets[c] .. offsets[c + 1]), ascending. Each sum therefore runs
/// the same order as a scan over all points, and each distance is the
/// k-means madd chain.
///
/// Lanes are query points: blocks of two packs of queries are transposed
/// into dim-major rows, member rows are gathered in cluster order, and each
/// lane accumulates `acc += sqrt(chain)` for its query — exactly
/// silhouette_sums_row. A
/// finite query row is at distance +0 from itself, and adding +0 to a
/// non-negative sum changes nothing, so the vector pass needs no self
/// skip. A block holding a non-finite query row runs silhouette_sums_row
/// per query instead.
template <typename Backend>
void silhouette_sums(const double* pts, std::size_t dim,
                     const std::size_t* offsets, const std::size_t* ids,
                     std::size_t k, const std::size_t* queries,
                     std::size_t nq, double* sums) {
  using P = util::simd::pack<double, Backend>;
  constexpr std::size_t W = P::width;
  const std::size_t n = offsets[k];

  std::vector<double> members(n * dim);
  for (std::size_t m = 0; m < n; ++m) {
    util::simd::copy_row<Backend>(members.data() + m * dim, pts + ids[m] * dim,
                                  dim);
  }

  // Two packs of queries per block give two independent madd chains per
  // member row (the chain over dimensions is latency-bound) and share each
  // broadcast coordinate between them.
  constexpr std::size_t L = 2 * W;
  std::vector<double> qt(dim * L);
  double lane_sums[L];
  for (std::size_t q0 = 0; q0 < nq; q0 += L) {
    const std::size_t lanes = std::min(L, nq - q0);
    bool finite = true;
    for (std::size_t l = 0; l < lanes; ++l) {
      const double* q = pts + queries[q0 + l] * dim;
      for (std::size_t d = 0; d < dim; ++d) {
        finite = finite && std::isfinite(q[d]);
      }
    }
    if (!finite) {
      for (std::size_t l = 0; l < lanes; ++l) {
        silhouette_sums_row(pts, dim, members.data(), offsets, ids, k,
                            queries[q0 + l], sums + (q0 + l) * k);
      }
      continue;
    }

    // Transpose the block; padding lanes repeat +0 and are never stored.
    for (std::size_t d = 0; d < dim; ++d) {
      for (std::size_t l = 0; l < L; ++l) {
        qt[d * L + l] = l < lanes ? pts[queries[q0 + l] * dim + d] : 0.0;
      }
    }
    for (std::size_t c = 0; c < k; ++c) {
      P acc0 = P::zero();
      P acc1 = P::zero();
      for (std::size_t m = offsets[c]; m < offsets[c + 1]; ++m) {
        const double* row = members.data() + m * dim;
        P dist0 = P::zero();
        P dist1 = P::zero();
        for (std::size_t d = 0; d < dim; ++d) {
          const P r = P::broadcast(row[d]);
          const P x0 = P::load(qt.data() + d * L) - r;
          const P x1 = P::load(qt.data() + d * L + W) - r;
          dist0 = P::madd(x0, x0, dist0);
          dist1 = P::madd(x1, x1, dist1);
        }
        acc0 = acc0 + sqrt(dist0);
        acc1 = acc1 + sqrt(dist1);
      }
      acc0.store(lane_sums);
      acc1.store(lane_sums + W);
      for (std::size_t l = 0; l < lanes; ++l) {
        sums[(q0 + l) * k + c] = lane_sums[l];
      }
    }
  }
}

/// Pair-once form of the exact per-cluster distance sums, for every point:
///   sums[i * k + c] = sum over members j of cluster c, in ascending j,
///                     j != i, of sqrt(row_sq_dist(p_i, p_j)),
/// the same values silhouette_sums gives with queries = 0, 1, ..., n - 1,
/// from half the distances. (a - b)² and (b - a)² are the same double,
/// so one chain serves both points of a pair.
///
/// Positions are cluster order (ids as in silhouette_sums), and blocks of
/// two packs of positions are processed in ascending order. A block's
/// lanes start from the sums that earlier blocks left for them, then take
/// every partner at or after the block start in ascending position:
/// in-block partners first (each lane's own distance replaced by +0, which
/// leaves a non-negative or NaN sum unchanged, so a non-finite row needs no
/// fallback), then later partners. A later partner also receives the
/// block's distances into its own sums, lane by lane in ascending
/// position. Every (point, cluster) sum therefore adds its members in
/// ascending position — ascending index within the cluster — exactly as
/// silhouette_sums_row does.
template <typename Backend>
void silhouette_sums_pairwise(const double* pts, std::size_t dim,
                              const std::size_t* offsets,
                              const std::size_t* ids, std::size_t k,
                              double* sums) {
  using P = util::simd::pack<double, Backend>;
  constexpr std::size_t W = P::width;
  constexpr std::size_t L = 2 * W;
  const std::size_t n = offsets[k];
  const std::size_t stride = (n + L - 1) / L * L;

  std::vector<double> members(n * dim);
  std::vector<std::size_t> cluster(n);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t m = offsets[c]; m < offsets[c + 1]; ++m) {
      util::simd::copy_row<Backend>(members.data() + m * dim,
                                    pts + ids[m] * dim, dim);
      cluster[m] = c;
    }
  }
  // acc[c * stride + m]: position m's running sum over cluster c, so a
  // block's lanes for one cluster are contiguous.
  std::vector<double> acc(k * stride, 0.0);
  std::vector<double> qt(dim * L);
  double lane[L];
  std::size_t lane_row[L] = {};
  // Distances from the block's lanes to position m: one madd chain per
  // lane over two packs, then the square root.
  const auto lane_roots = [&](std::size_t m, P& root0, P& root1) {
    const double* row = members.data() + m * dim;
    P dist0 = P::zero();
    P dist1 = P::zero();
    for (std::size_t d = 0; d < dim; ++d) {
      const P r = P::broadcast(row[d]);
      const P x0 = P::load(qt.data() + d * L) - r;
      const P x1 = P::load(qt.data() + d * L + W) - r;
      dist0 = P::madd(x0, x0, dist0);
      dist1 = P::madd(x1, x1, dist1);
    }
    root0 = sqrt(dist0);
    root1 = sqrt(dist1);
  };
  for (std::size_t b0 = 0; b0 < n; b0 += L) {
    const std::size_t lanes = std::min(L, n - b0);
    const std::size_t block_end = b0 + lanes;
    // Padding lanes (last block only, which has no later partners) hold
    // +0 rows whose sums land in the padding and are never read.
    for (std::size_t d = 0; d < dim; ++d) {
      for (std::size_t l = 0; l < L; ++l) {
        qt[d * L + l] = l < lanes ? members[(b0 + l) * dim + d] : 0.0;
      }
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      lane_row[l] = cluster[b0 + l] * stride;
    }
    // The lanes' running sums for the cluster of the partners being added,
    // moved to the next cluster's sums when the partners cross into it.
    std::size_t c = cluster[b0];
    P acc0 = P::load(acc.data() + c * stride + b0);
    P acc1 = P::load(acc.data() + c * stride + b0 + W);
    const auto add_to_lanes = [&](std::size_t m, P root0, P root1) {
      if (cluster[m] != c) {
        acc0.store(acc.data() + c * stride + b0);
        acc1.store(acc.data() + c * stride + b0 + W);
        c = cluster[m];
        acc0 = P::load(acc.data() + c * stride + b0);
        acc1 = P::load(acc.data() + c * stride + b0 + W);
      }
      acc0 = acc0 + root0;
      acc1 = acc1 + root1;
    };
    P root0;
    P root1;
    std::size_t m = b0;
    for (; m < block_end; ++m) {
      // In-block partner: its own lane takes +0 instead of its distance.
      lane_roots(m, root0, root1);
      root0.store(lane);
      root1.store(lane + W);
      lane[m - b0] = 0.0;
      add_to_lanes(m, P::load(lane), P::load(lane + W));
    }
    for (; m + W <= n; m += W) {
      // A tile of W later partners: roots[j] / roots[W + j] hold partner
      // j's distances to lanes [0, W) / [W, L). Transposed, roots[l] holds
      // lane l's distances to the W partners, so each partner's sum takes
      // the lanes in order as one vector add.
      P roots[L];
      for (std::size_t j = 0; j < W; ++j) {
        lane_roots(m + j, roots[j], roots[W + j]);
        add_to_lanes(m + j, roots[j], roots[W + j]);
      }
      transpose(roots);
      transpose(roots + W);
      for (std::size_t l = 0; l < L;) {
        double* partner_sums = acc.data() + lane_row[l] + m;
        P sum = P::load(partner_sums);
        const std::size_t row = lane_row[l];
        for (; l < L && lane_row[l] == row; ++l) {
          sum = sum + roots[l];
        }
        sum.store(partner_sums);
      }
    }
    for (; m < n; ++m) {
      // The last later partners, fewer than a tile.
      lane_roots(m, root0, root1);
      add_to_lanes(m, root0, root1);
      root0.store(lane);
      root1.store(lane + W);
      for (std::size_t l = 0; l < L; ++l) {
        acc[lane_row[l] + m] += lane[l];
      }
    }
    acc0.store(acc.data() + c * stride + b0);
    acc1.store(acc.data() + c * stride + b0 + W);
  }
  for (std::size_t m = 0; m < n; ++m) {
    for (std::size_t c = 0; c < k; ++c) {
      sums[ids[m] * k + c] = acc[c * stride + m];
    }
  }
}

}  // namespace dtmsv::clustering::kernels
