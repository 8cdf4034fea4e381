#include "clustering/selectors.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace dtmsv::clustering {

std::size_t fixed_k(const Points& points, std::size_t k) {
  DTMSV_EXPECTS(k >= 1);
  DTMSV_EXPECTS(!points.empty());
  return std::min(k, points.size());
}

std::size_t elbow_k(const Points& points, std::size_t k_min, std::size_t k_max,
                    util::Rng& rng) {
  DTMSV_EXPECTS(k_min >= 1 && k_min <= k_max);
  DTMSV_EXPECTS(!points.empty());
  const std::size_t lo = std::min(k_min, points.size());
  const std::size_t hi = std::min(k_max, points.size());
  if (hi - lo < 2) {
    return lo;
  }
  std::vector<double> inertias;
  inertias.reserve(hi - lo + 1);
  KMeansOptions opts;
  opts.restarts = 2;
  for (std::size_t k = lo; k <= hi; ++k) {
    inertias.push_back(k_means(points, k, rng, opts).inertia);
  }
  // Largest positive second difference marks the knee.
  std::size_t best_k = lo + 1;
  double best_knee = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 1; i + 1 < inertias.size(); ++i) {
    const double knee = inertias[i - 1] - 2.0 * inertias[i] + inertias[i + 1];
    if (knee > best_knee) {
      best_knee = knee;
      best_k = lo + i;
    }
  }
  return best_k;
}

std::size_t silhouette_sweep_k(const Points& points, std::size_t k_min,
                               std::size_t k_max, util::Rng& rng,
                               std::size_t sample_cap) {
  DTMSV_EXPECTS(k_min >= 1 && k_min <= k_max);
  DTMSV_EXPECTS(sample_cap >= 1);
  DTMSV_EXPECTS(!points.empty());
  const std::size_t lo = std::max<std::size_t>(2, std::min(k_min, points.size()));
  const std::size_t hi = std::min(k_max, points.size());
  if (lo >= hi) {
    return std::min(lo, points.size());
  }
  KMeansOptions opts;
  opts.restarts = 2;
  std::size_t best_k = lo;
  double best_score = -std::numeric_limits<double>::infinity();
  for (std::size_t k = lo; k <= hi; ++k) {
    const auto result = k_means(points, k, rng, opts);
    // Sampled silhouette keeps the sweep sub-quadratic on large clouds;
    // below the cap it is the exact metric and draws nothing from rng.
    const double score = silhouette_sampled(points, result.assignment, sample_cap, rng);
    if (score > best_score) {
      best_score = score;
      best_k = k;
    }
  }
  return best_k;
}

std::size_t random_k(const Points& points, std::size_t k_min, std::size_t k_max,
                     util::Rng& rng) {
  DTMSV_EXPECTS(k_min >= 1 && k_min <= k_max);
  DTMSV_EXPECTS(!points.empty());
  const std::size_t lo = std::min(k_min, points.size());
  const std::size_t hi = std::min(k_max, points.size());
  return static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
}

}  // namespace dtmsv::clustering
