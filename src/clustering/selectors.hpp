// Grouping-number (K) selection baselines. The paper's contribution uses a
// DDQN (see core/group_constructor.hpp); these functions are the baselines
// the ablation compares against. Each backs one grouping stage key in
// core/pipeline.cpp ("fixed", "elbow", "silhouette", "random"): the stage
// chooses K with it, then clusters with K-means++.
#pragma once

#include <cstddef>

#include "clustering/kmeans.hpp"
#include "clustering/metrics.hpp"

namespace dtmsv::clustering {

/// Returns `k` clamped to the point count. Requires k >= 1 and non-empty
/// points; draws nothing.
std::size_t fixed_k(const Points& points, std::size_t k);

/// Classic elbow heuristic: runs K-means for each K in [k_min, k_max]
/// (clamped to the point count) and picks the K with the largest second
/// difference ("knee") of inertia.
std::size_t elbow_k(const Points& points, std::size_t k_min, std::size_t k_max,
                    util::Rng& rng);

/// Silhouette sweep: picks the K in [max(2, k_min), k_max] with the best
/// silhouette. The "slow oracle" the DDQN approximates; beyond
/// `sample_cap` points the silhouette is estimated from a sample so the
/// sweep stays O(range · cap · n) instead of O(range · n²).
std::size_t silhouette_sweep_k(const Points& points, std::size_t k_min,
                               std::size_t k_max, util::Rng& rng,
                               std::size_t sample_cap = kDefaultSilhouetteSampleCap);

/// Uniform-random K in [k_min, k_max], clamped to the point count
/// (lower-bound baseline).
std::size_t random_k(const Points& points, std::size_t k_min, std::size_t k_max,
                     util::Rng& rng);

}  // namespace dtmsv::clustering
