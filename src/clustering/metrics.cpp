#include "clustering/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>

#include "clustering/kmeans_kernels.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace dtmsv::clustering {

namespace {

std::size_t cluster_count_of(const std::vector<std::size_t>& assignment) {
  std::size_t k = 0;
  for (const std::size_t a : assignment) {
    k = std::max(k, a + 1);
  }
  return k;
}

Points centroids_of(const Points& points, const std::vector<std::size_t>& assignment,
                    std::size_t k, std::vector<std::size_t>& counts) {
  const std::size_t dim = points.dim();
  const double* pts = points.data();
  Points centroids(k, dim);
  double* cents = centroids.data();
  counts.assign(k, 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::size_t c = assignment[i];
    ++counts[c];
    const double* prow = pts + i * dim;
    double* crow = cents + c * dim;
    for (std::size_t d = 0; d < dim; ++d) {
      crow[d] += prow[d];
    }
  }
  for (std::size_t c = 0; c < k; ++c) {
    if (counts[c] > 0) {
      double* crow = cents + c * dim;
      for (std::size_t d = 0; d < dim; ++d) {
        crow[d] /= static_cast<double>(counts[c]);
      }
    }
  }
  return centroids;
}

inline double row_dist(const double* a, const double* b, std::size_t dim) {
  return std::sqrt(kernels::row_sq_dist(a, b, dim));
}

/// Silhouette contribution of one point from its per-cluster distance
/// sums (see kernels::silhouette_sums_row), or 0 for singleton clusters.
double silhouette_of_point(const ClusterMembers& members, std::size_t own,
                           const double* dist_sum) {
  const std::size_t own_size = members.size_of(own);
  if (own_size <= 1) {
    return 0.0;
  }
  const double a = dist_sum[own] / static_cast<double>(own_size - 1);
  double b = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < members.cluster_count(); ++c) {
    const std::size_t size = members.size_of(c);
    if (c == own || size == 0) {
      continue;
    }
    b = std::min(b, dist_sum[c] / static_cast<double>(size));
  }
  const double denom = std::max(a, b);
  return denom > 0.0 ? (b - a) / denom : 0.0;
}

/// Membership of `assignment`, or nullopt when fewer than two clusters
/// have members (the silhouette is then 0).
std::optional<ClusterMembers> live_members(const std::vector<std::size_t>& assignment) {
  ClusterMembers members =
      members_by_cluster(assignment, cluster_count_of(assignment));
  std::size_t non_empty = 0;
  for (std::size_t c = 0; c < members.cluster_count(); ++c) {
    non_empty += members.size_of(c) > 0 ? 1 : 0;
  }
  if (non_empty < 2) {
    return std::nullopt;
  }
  return members;
}

/// Mean silhouette contribution of the `queries` points, summed in query
/// order; row q of `sums` holds queries[q]'s per-cluster distance sums.
double mean_silhouette(const std::vector<std::size_t>& assignment,
                       const ClusterMembers& members,
                       const std::vector<std::size_t>& queries,
                       const std::vector<double>& sums) {
  const std::size_t k = members.cluster_count();
  double total = 0.0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    total += silhouette_of_point(members, assignment[queries[q]], sums.data() + q * k);
  }
  return total / static_cast<double>(queries.size());
}

}  // namespace

double silhouette(const Points& points, const std::vector<std::size_t>& assignment) {
  DTMSV_EXPECTS(points.size() == assignment.size());
  if (points.empty()) {
    return 0.0;
  }
  const std::optional<ClusterMembers> members = live_members(assignment);
  if (!members) {
    return 0.0;
  }
  const std::size_t k = members->cluster_count();
  std::vector<double> sums(points.size() * k);
  kernels::silhouette_sums_pairwise<util::simd::default_backend>(
      points.data(), points.dim(), members->offsets.data(), members->ids.data(), k,
      sums.data());
  std::vector<std::size_t> all(points.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return mean_silhouette(assignment, *members, all, sums);
}

double silhouette_sampled(const Points& points,
                          const std::vector<std::size_t>& assignment,
                          std::size_t max_samples, util::Rng& rng) {
  DTMSV_EXPECTS(points.size() == assignment.size());
  DTMSV_EXPECTS_MSG(max_samples >= 1, "silhouette_sampled: need at least one sample");
  if (max_samples >= points.size()) {
    return silhouette(points, assignment);
  }
  const std::optional<ClusterMembers> members = live_members(assignment);
  if (!members) {
    return 0.0;
  }
  const std::vector<std::size_t> samples =
      rng.sample_without_replacement(points.size(), max_samples);
  const std::size_t k = members->cluster_count();
  std::vector<double> sums(samples.size() * k);
  kernels::silhouette_sums<util::simd::default_backend>(
      points.data(), points.dim(), members->offsets.data(), members->ids.data(), k,
      samples.data(), samples.size(), sums.data());
  return mean_silhouette(assignment, *members, samples, sums);
}

double davies_bouldin(const Points& points, const std::vector<std::size_t>& assignment) {
  DTMSV_EXPECTS(points.size() == assignment.size());
  if (points.empty()) {
    return 0.0;
  }
  const std::size_t k = cluster_count_of(assignment);
  std::vector<std::size_t> counts;
  const Points centroids = centroids_of(points, assignment, k, counts);

  // Mean intra-cluster scatter per cluster.
  const std::size_t dim = points.dim();
  const double* pts = points.data();
  const double* cents = centroids.data();
  std::vector<double> scatter(k, 0.0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    scatter[assignment[i]] += row_dist(pts + i * dim, cents + assignment[i] * dim, dim);
  }
  std::vector<std::size_t> live;
  for (std::size_t c = 0; c < k; ++c) {
    if (counts[c] > 0) {
      scatter[c] /= static_cast<double>(counts[c]);
      live.push_back(c);
    }
  }
  if (live.size() < 2) {
    return 0.0;
  }

  double total = 0.0;
  for (const std::size_t ci : live) {
    double worst = 0.0;
    for (const std::size_t cj : live) {
      if (ci == cj) {
        continue;
      }
      const double sep = row_dist(cents + ci * dim, cents + cj * dim, dim);
      if (sep > 0.0) {
        worst = std::max(worst, (scatter[ci] + scatter[cj]) / sep);
      }
    }
    total += worst;
  }
  return total / static_cast<double>(live.size());
}

double inertia(const Points& points, const Points& centroids,
               const std::vector<std::size_t>& assignment) {
  DTMSV_EXPECTS(points.size() == assignment.size());
  double total = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    DTMSV_EXPECTS(assignment[i] < centroids.size());
    total += squared_distance(points[i], centroids[assignment[i]]);
  }
  return total;
}

}  // namespace dtmsv::clustering
