#include "clustering/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "clustering/kmeans_kernels.hpp"
#include "util/error.hpp"

namespace dtmsv::clustering {

double squared_distance(std::span<const double> a, std::span<const double> b) {
  DTMSV_EXPECTS(a.size() == b.size());
  double total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    total += d * d;
  }
  return total;
}

double distance(std::span<const double> a, std::span<const double> b) {
  return std::sqrt(squared_distance(a, b));
}

ClusterMembers members_by_cluster(const std::vector<std::size_t>& assignment,
                                  std::size_t k) {
  ClusterMembers out;
  out.offsets.assign(k + 1, 0);
  for (const std::size_t a : assignment) {
    DTMSV_EXPECTS_MSG(a < k, "members_by_cluster: assignment out of range");
    ++out.offsets[a + 1];
  }
  for (std::size_t c = 0; c < k; ++c) {
    out.offsets[c + 1] += out.offsets[c];
  }
  // Scattering points in ascending index through per-cluster cursors keeps
  // each cluster's run ascending (the pass is stable).
  std::vector<std::size_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  out.ids.resize(assignment.size());
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    out.ids[cursor[assignment[i]]++] = i;
  }
  return out;
}

namespace {

// All k-means-internal distance users share the kernel-layer madd chain
// (kernels::row_sq_dist), which is what every lane of the vectorised
// assign pass reproduces — assignments, re-seeding, and inertia stay
// mutually consistent on every backend. The portable kernel replaced the
// old hand-rolled AVX-512 dim==8/k<=16 special case (and its tree
// reduction + GCC pragma workaround): it handles any dim/k, and its
// per-centroid distances follow the same ascending-dimension chain as the
// scalar scan, so results no longer depend on the point shape.
using kernels::row_sq_dist;

void validate_points(const Points& points) {
  DTMSV_EXPECTS_MSG(!points.empty(), "k-means: empty point set");
  DTMSV_EXPECTS_MSG(points.dim() > 0, "k-means: zero-dimensional points");
}

/// Fused assignment + accumulation pass of one Lloyd iteration on the
/// build's default SIMD backend (lanes = centroids; see kmeans_kernels.hpp
/// for the layout and the bit-identity argument).
bool assign_accumulate(const Points& points, const Points& centroids,
                       std::size_t* assignment, double* sums,
                       std::size_t* counts) {
  return kernels::assign_accumulate<util::simd::default_backend>(
      points.data(), points.size(), points.dim(), centroids.data(),
      centroids.size(), assignment, sums, counts);
}

KMeansResult run_single(const Points& points, std::size_t k, util::Rng& rng,
                        const KMeansOptions& options) {
  const std::size_t dim = points.dim();
  const std::size_t n = points.size();
  const double* pts = points.data();
  KMeansResult result;
  result.centroids = kmeans_plus_plus_init(points, k, rng);
  result.assignment.assign(n, 0);

  Points next(k, dim);
  std::vector<std::size_t> counts(k, 0);
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;

    // Fused assignment + cluster-sum accumulation.
    next.fill(0.0);
    counts.assign(k, 0);
    double* nx = next.data();
    bool changed = assign_accumulate(points, result.centroids,
                                     result.assignment.data(), nx, counts.data());

    // Finish the update step: means, and re-seeding of empty clusters.
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster with the point farthest from its centroid.
        std::size_t farthest = 0;
        double farthest_d = -1.0;
        const double* cents = result.centroids.data();
        for (std::size_t i = 0; i < n; ++i) {
          const double d =
              row_sq_dist(pts + i * dim, cents + result.assignment[i] * dim, dim);
          if (d > farthest_d) {
            farthest_d = d;
            farthest = i;
          }
        }
        std::copy(pts + farthest * dim, pts + (farthest + 1) * dim, nx + c * dim);
        result.assignment[farthest] = c;
        changed = true;
        continue;
      }
      double* crow = nx + c * dim;
      for (std::size_t d = 0; d < dim; ++d) {
        crow[d] /= static_cast<double>(counts[c]);
      }
    }

    double movement = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      movement += distance(result.centroids[c], next[c]);
    }
    std::swap(result.centroids, next);

    if (!changed || movement < options.tolerance) {
      result.converged = true;
      break;
    }
  }

  result.inertia = 0.0;
  const double* cents = result.centroids.data();
  for (std::size_t i = 0; i < n; ++i) {
    result.inertia += row_sq_dist(pts + i * dim, cents + result.assignment[i] * dim, dim);
  }
  return result;
}

}  // namespace

Points kmeans_plus_plus_init(const Points& points, std::size_t k, util::Rng& rng) {
  validate_points(points);
  DTMSV_EXPECTS_MSG(k >= 1 && k <= points.size(), "k-means++: k out of range");
  const std::size_t n = points.size();
  const std::size_t dim = points.dim();
  const double* pts = points.data();

  Points centroids;
  centroids.reserve(k);
  centroids.push_back(
      points[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))]);

  // D² distances to the nearest chosen centroid, maintained incrementally:
  // each round only the newest centroid can lower a point's distance, which
  // turns the seed's O(k²·n) rescans into O(k·n) with identical values. The
  // update runs with lanes over points on a dim-major copy (padded to the
  // pack width with +0 points whose d2 is never read); the total stays a
  // scalar sum in point order.
  using Backend = util::simd::default_backend;
  constexpr std::size_t W = util::simd::pack<double, Backend>::width;
  const std::size_t stride = (n + W - 1) / W * W;
  std::vector<double> cols(dim * stride, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < dim; ++d) {
      cols[d * stride + i] = pts[i * dim + d];
    }
  }
  std::vector<double> d2(stride, std::numeric_limits<double>::infinity());
  const std::span<const double> weights(d2.data(), n);
  while (centroids.size() < k) {
    kernels::d2_update<Backend>(cols.data(), stride, dim,
                                centroids[centroids.size() - 1].data(), stride,
                                d2.data());
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += d2[i];
    }
    std::size_t chosen = 0;
    if (total <= 0.0) {
      // All remaining points coincide with existing centroids; any point works.
      chosen = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    } else {
      chosen = rng.categorical(weights);
    }
    centroids.push_back(points[chosen]);
  }
  return centroids;
}

KMeansResult k_means(const Points& points, std::size_t k, util::Rng& rng,
                     const KMeansOptions& options) {
  validate_points(points);
  DTMSV_EXPECTS_MSG(k >= 1 && k <= points.size(), "k-means: k out of range");
  DTMSV_EXPECTS(options.restarts >= 1);

  KMeansResult best;
  double best_inertia = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < options.restarts; ++r) {
    KMeansResult run = run_single(points, k, rng, options);
    if (run.inertia < best_inertia) {
      best_inertia = run.inertia;
      best = std::move(run);
    }
  }
  return best;
}

std::vector<std::size_t> assign_to_nearest(const Points& points, const Points& centroids) {
  DTMSV_EXPECTS(!centroids.empty());
  DTMSV_EXPECTS_MSG(points.empty() || points.dim() == centroids.dim(),
                    "assign_to_nearest: dimensionality mismatch");
  const std::size_t dim = points.dim();
  std::vector<std::size_t> assignment(points.size(), 0);
  // Route through the fused pass (its sums/counts by-product is discarded)
  // so the argmin arithmetic is identical to what k_means used — a
  // k_means assignment re-checked here is a true fixed point.
  std::vector<double> sums(centroids.size() * std::max<std::size_t>(dim, 1), 0.0);
  std::vector<std::size_t> counts(centroids.size(), 0);
  assign_accumulate(points, centroids, assignment.data(), sums.data(), counts.data());
  return assignment;
}

}  // namespace dtmsv::clustering
