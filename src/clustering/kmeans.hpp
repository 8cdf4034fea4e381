// K-means++ seeding plus Lloyd iterations — the paper's fast user-clustering
// step ("the K-means++ algorithm is utilized to perform fast user clustering
// based on the determined grouping number").
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "clustering/point_matrix.hpp"
#include "util/rng.hpp"

namespace dtmsv::clustering {

/// A point set: flat row-major storage, one row per point (see
/// clustering/point_matrix.hpp). All points share one dimensionality.
using Points = PointMatrix;

/// Squared Euclidean distance between two equal-length feature vectors.
double squared_distance(std::span<const double> a, std::span<const double> b);
/// Euclidean distance.
double distance(std::span<const double> a, std::span<const double> b);

/// Outcome of a K-means run.
struct KMeansResult {
  Points centroids;                    // k centroids
  std::vector<std::size_t> assignment;  // per-point cluster index in [0, k)
  double inertia = 0.0;                // sum of squared point-centroid distances
  std::size_t iterations = 0;          // Lloyd iterations executed
  bool converged = false;              // true when assignments stabilised

  std::size_t cluster_count() const { return centroids.size(); }
};

/// Point indices grouped cluster by cluster: cluster c's points are
/// ids[offsets[c] .. offsets[c + 1]), in ascending index order.
struct ClusterMembers {
  std::vector<std::size_t> offsets;  // cluster count + 1 entries
  std::vector<std::size_t> ids;      // every point index exactly once

  std::size_t cluster_count() const { return offsets.size() - 1; }
  std::size_t size_of(std::size_t cluster) const {
    return offsets[cluster + 1] - offsets[cluster];
  }
  std::span<const std::size_t> of(std::size_t cluster) const {
    return {ids.data() + offsets[cluster], size_of(cluster)};
  }
};

/// Membership of every cluster in one stable counting pass, O(n + k).
/// Requires every assignment entry to be < k.
ClusterMembers members_by_cluster(const std::vector<std::size_t>& assignment,
                                  std::size_t k);

/// Options for k_means().
struct KMeansOptions {
  std::size_t max_iterations = 100;
  /// Convergence threshold on total centroid movement (L2).
  double tolerance = 1e-6;
  /// Number of k-means++ restarts; the best-inertia run wins.
  std::size_t restarts = 3;
};

/// K-means++ seeding: D²-weighted centroid selection (Arthur & Vassilvitskii).
/// Requires 1 <= k <= points.size().
Points kmeans_plus_plus_init(const Points& points, std::size_t k, util::Rng& rng);

/// Full K-means++ clustering. Requires non-empty points with consistent
/// dimensionality and 1 <= k <= points.size(). Empty clusters that appear
/// during Lloyd iterations are re-seeded with the farthest point.
KMeansResult k_means(const Points& points, std::size_t k, util::Rng& rng,
                     const KMeansOptions& options = {});

/// Assigns each point to its nearest centroid (ties -> lowest index).
std::vector<std::size_t> assign_to_nearest(const Points& points, const Points& centroids);

}  // namespace dtmsv::clustering
