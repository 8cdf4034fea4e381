// Cluster quality metrics used both as DDQN reward signal and for the
// clustering ablation bench.
#pragma once

#include <vector>

#include "clustering/kmeans.hpp"
#include "util/rng.hpp"

namespace dtmsv::clustering {

/// Default sample cap for silhouette_sampled call sites (K selection,
/// DDQN reward): below this many points the metric is exact, above it
/// the cost is bounded at O(cap · n). One knob — the group constructor's
/// config and the sweep selector both default to it.
inline constexpr std::size_t kDefaultSilhouetteSampleCap = 2048;

/// Mean silhouette coefficient in [-1, 1]; higher is better. Points in
/// singleton clusters contribute 0 (scikit-learn convention). Requires at
/// least 2 clusters with members; returns 0 otherwise.
///
/// Every distance is sqrt(kernels::row_sq_dist), the ascending-dimension
/// madd chain k-means assigns with, summed per cluster in ascending point
/// order; the result is the same on every SIMD backend. The exact form
/// computes each pair once (kernels::silhouette_sums_pairwise), the
/// sampled form puts the drawn points in vector lanes
/// (kernels::silhouette_sums); both give the per-point scan's bits. The
/// Davies–Bouldin index uses the same distance.
double silhouette(const Points& points, const std::vector<std::size_t>& assignment);

/// Silhouette estimated from at most `max_samples` points drawn without
/// replacement (each sample still measures distances to every point, so
/// the cost is O(max_samples · n) instead of O(n²)). When max_samples >=
/// points.size() this is exactly silhouette() and draws nothing from rng,
/// so small inputs stay deterministic across sampled/exact call sites.
double silhouette_sampled(const Points& points,
                          const std::vector<std::size_t>& assignment,
                          std::size_t max_samples, util::Rng& rng);

/// Davies–Bouldin index (>= 0; lower is better). Returns 0 for fewer than
/// 2 non-empty clusters.
double davies_bouldin(const Points& points, const std::vector<std::size_t>& assignment);

/// Within-cluster sum of squared distances to centroids.
double inertia(const Points& points, const Points& centroids,
               const std::vector<std::size_t>& assignment);

}  // namespace dtmsv::clustering
