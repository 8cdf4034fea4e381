// Unit tests for dtmsv::clustering — K-means++ seeding invariants, Lloyd
// convergence on separable data, quality metrics against hand-computed
// values, and the K-selection baselines.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <span>
#include <vector>

#include "clustering/kmeans.hpp"
#include "clustering/kmeans_kernels.hpp"
#include "clustering/metrics.hpp"
#include "clustering/selectors.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace {

using namespace dtmsv::clustering;
using dtmsv::util::PreconditionError;
using dtmsv::util::Rng;

/// Generates `per_cluster` points around each of `centers`.
Points gaussian_blobs(const Points& centers, std::size_t per_cluster, double sigma,
                      Rng& rng) {
  Points points;
  for (const auto& c : centers) {
    for (std::size_t i = 0; i < per_cluster; ++i) {
      std::vector<double> p(c.size());
      for (std::size_t d = 0; d < c.size(); ++d) {
        p[d] = c[d] + rng.normal(0.0, sigma);
      }
      points.push_back(std::move(p));
    }
  }
  return points;
}

const Points kFarCenters = {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}, {10.0, 10.0}};

// ---------------------------------------------------------------- distance

TEST(Distance, KnownValues) {
  const std::vector<double> a = {0.0, 0.0};
  const std::vector<double> b = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 25.0);
  EXPECT_DOUBLE_EQ(distance(a, b), 5.0);
}

TEST(Distance, DimensionMismatchRejected) {
  const std::vector<double> a = {1.0};
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW(squared_distance(a, b), PreconditionError);
}

// ----------------------------------------------------------- k-means++ init

TEST(KMeansPlusPlus, ProducesKDistinctCentroidsOnSeparatedData) {
  Rng rng(1);
  const Points points = gaussian_blobs(kFarCenters, 20, 0.3, rng);
  const Points centroids = kmeans_plus_plus_init(points, 4, rng);
  ASSERT_EQ(centroids.size(), 4u);
  // With well separated blobs, D² weighting lands one seed per blob with
  // overwhelming probability.
  std::set<int> blobs_hit;
  for (const auto& c : centroids) {
    for (std::size_t b = 0; b < kFarCenters.size(); ++b) {
      if (distance(c, kFarCenters[b]) < 3.0) {
        blobs_hit.insert(static_cast<int>(b));
      }
    }
  }
  EXPECT_EQ(blobs_hit.size(), 4u);
}

TEST(KMeansPlusPlus, CentroidsAreInputPoints) {
  Rng rng(2);
  const Points points = gaussian_blobs({{0.0, 0.0}, {5.0, 5.0}}, 10, 0.5, rng);
  const Points centroids = kmeans_plus_plus_init(points, 3, rng);
  for (const auto& c : centroids) {
    EXPECT_TRUE(points.contains(c));
  }
}

TEST(KMeansPlusPlus, HandlesDuplicatePoints) {
  Rng rng(3);
  Points points(10, std::vector<double>{1.0, 1.0});  // all identical
  const Points centroids = kmeans_plus_plus_init(points, 3, rng);
  EXPECT_EQ(centroids.size(), 3u);
}

TEST(KMeansPlusPlus, KOutOfRangeRejected) {
  Rng rng(4);
  Points points = {{1.0}, {2.0}};
  EXPECT_THROW(kmeans_plus_plus_init(points, 0, rng), PreconditionError);
  EXPECT_THROW(kmeans_plus_plus_init(points, 3, rng), PreconditionError);
}

// ------------------------------------------------------------------ k-means

TEST(KMeans, RecoversWellSeparatedBlobs) {
  Rng rng(5);
  const Points points = gaussian_blobs(kFarCenters, 25, 0.4, rng);
  const KMeansResult result = k_means(points, 4, rng);

  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.cluster_count(), 4u);
  // Every centroid sits near a true center.
  for (const auto& c : result.centroids) {
    double best = 1e9;
    for (const auto& t : kFarCenters) {
      best = std::min(best, distance(c, t));
    }
    EXPECT_LT(best, 1.0);
  }
  // All 100 points partitioned into 4 clusters of 25.
  const auto sizes = result.cluster_sizes();
  for (const std::size_t s : sizes) {
    EXPECT_EQ(s, 25u);
  }
}

TEST(KMeans, AssignmentIsNearestCentroidFixedPoint) {
  Rng rng(6);
  const Points points = gaussian_blobs(kFarCenters, 15, 1.0, rng);
  const KMeansResult result = k_means(points, 4, rng);
  const auto reassigned = assign_to_nearest(points, result.centroids);
  EXPECT_EQ(reassigned, result.assignment);
}

TEST(KMeans, InertiaDecreasesWithK) {
  Rng rng(7);
  const Points points = gaussian_blobs(kFarCenters, 20, 1.5, rng);
  double prev = std::numeric_limits<double>::infinity();
  for (const std::size_t k : {1u, 2u, 4u, 8u, 16u}) {
    KMeansOptions opts;
    opts.restarts = 4;
    const double inertia_k = k_means(points, k, rng, opts).inertia;
    EXPECT_LE(inertia_k, prev * 1.001);
    prev = inertia_k;
  }
}

TEST(KMeans, KEqualsOneGivesCentroidMean) {
  Rng rng(8);
  const Points points = {{0.0, 0.0}, {2.0, 0.0}, {0.0, 2.0}, {2.0, 2.0}};
  const KMeansResult result = k_means(points, 1, rng);
  ASSERT_EQ(result.centroids.size(), 1u);
  EXPECT_NEAR(result.centroids[0][0], 1.0, 1e-9);
  EXPECT_NEAR(result.centroids[0][1], 1.0, 1e-9);
  EXPECT_NEAR(result.inertia, 8.0, 1e-9);
}

TEST(KMeans, KEqualsNPerfectFit) {
  Rng rng(9);
  const Points points = {{0.0}, {5.0}, {10.0}};
  const KMeansResult result = k_means(points, 3, rng);
  EXPECT_NEAR(result.inertia, 0.0, 1e-12);
  std::set<std::size_t> clusters(result.assignment.begin(), result.assignment.end());
  EXPECT_EQ(clusters.size(), 3u);
}

TEST(KMeans, MembersByClusterPartitionsAllPoints) {
  Rng rng(10);
  const Points points = gaussian_blobs(kFarCenters, 10, 0.5, rng);
  const KMeansResult result = k_means(points, 4, rng);
  const ClusterMembers members =
      members_by_cluster(result.assignment, result.cluster_count());
  ASSERT_EQ(members.cluster_count(), result.cluster_count());
  std::size_t total = 0;
  for (std::size_t c = 0; c < members.cluster_count(); ++c) {
    const std::span<const std::size_t> ids = members.of(c);
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    for (const std::size_t i : ids) {
      EXPECT_EQ(result.assignment[i], c);
    }
    total += ids.size();
  }
  EXPECT_EQ(total, points.size());
  EXPECT_EQ(members.offsets.back(), points.size());
}

TEST(KMeans, MembersByClusterKeepsEmptyClustersAndRejectsOutOfRange) {
  const ClusterMembers members = members_by_cluster({2, 0, 2, 2, 0}, 4);
  EXPECT_EQ(members.offsets, (std::vector<std::size_t>{0, 2, 2, 5, 5}));
  EXPECT_EQ(members.ids, (std::vector<std::size_t>{1, 4, 0, 2, 3}));
  EXPECT_EQ(members.size_of(1), 0u);
  EXPECT_TRUE(members_by_cluster({}, 3).ids.empty());
  EXPECT_THROW(members_by_cluster({0, 3}, 3), PreconditionError);
}

TEST(KMeans, DeterministicGivenSeed) {
  Rng rng_a(11);
  Rng rng_b(11);
  const Points points = gaussian_blobs(kFarCenters, 10, 1.0, rng_a);
  Rng points_rng(11);
  const Points points_b = gaussian_blobs(kFarCenters, 10, 1.0, points_rng);
  Rng ka(99);
  Rng kb(99);
  const auto ra = k_means(points, 3, ka);
  const auto rb = k_means(points, 3, kb);
  EXPECT_EQ(ra.assignment, rb.assignment);
  EXPECT_DOUBLE_EQ(ra.inertia, rb.inertia);
  (void)rng_b;
  (void)points_b;
}

TEST(KMeans, EmptyInputRejected) {
  Rng rng(12);
  Points empty;
  EXPECT_THROW(k_means(empty, 1, rng), PreconditionError);
}

TEST(KMeans, InconsistentDimensionsRejected) {
  // Flat storage enforces a single dimensionality at construction time.
  EXPECT_THROW(Points({{1.0, 2.0}, {3.0}}), PreconditionError);
  Points points = {{1.0, 2.0}};
  EXPECT_THROW(points.push_back({3.0}), PreconditionError);
}

// ------------------------------------------------------------------ metrics

TEST(Silhouette, PerfectSeparationNearOne) {
  Rng rng(14);
  const Points points = gaussian_blobs({{0.0, 0.0}, {100.0, 0.0}}, 10, 0.1, rng);
  std::vector<std::size_t> assignment(20, 0);
  std::fill(assignment.begin() + 10, assignment.end(), 1);
  EXPECT_GT(silhouette(points, assignment), 0.95);
}

TEST(Silhouette, RandomAssignmentNearZeroOrNegative) {
  Rng rng(15);
  const Points points = gaussian_blobs({{0.0, 0.0}, {100.0, 0.0}}, 10, 0.1, rng);
  std::vector<std::size_t> assignment;
  for (std::size_t i = 0; i < 20; ++i) {
    assignment.push_back(i % 2);  // alternating: mixes both blobs
  }
  EXPECT_LT(silhouette(points, assignment), 0.1);
}

TEST(Silhouette, SingleClusterIsZero) {
  const Points points = {{0.0}, {1.0}, {2.0}};
  const std::vector<std::size_t> assignment = {0, 0, 0};
  EXPECT_DOUBLE_EQ(silhouette(points, assignment), 0.0);
}

TEST(Silhouette, BoundedInMinusOneOne) {
  Rng rng(16);
  const Points points = gaussian_blobs(kFarCenters, 8, 5.0, rng);
  for (const std::size_t k : {2u, 3u, 4u}) {
    const auto result = k_means(points, k, rng);
    const double s = silhouette(points, result.assignment);
    EXPECT_GE(s, -1.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(DaviesBouldin, LowerForBetterSeparation) {
  Rng rng(17);
  const Points tight = gaussian_blobs({{0.0, 0.0}, {50.0, 0.0}}, 15, 0.5, rng);
  const Points loose = gaussian_blobs({{0.0, 0.0}, {3.0, 0.0}}, 15, 2.0, rng);
  std::vector<std::size_t> assignment(30, 0);
  std::fill(assignment.begin() + 15, assignment.end(), 1);
  EXPECT_LT(davies_bouldin(tight, assignment), davies_bouldin(loose, assignment));
}

TEST(DaviesBouldin, DegenerateSingleCluster) {
  const Points points = {{0.0}, {1.0}};
  const std::vector<std::size_t> assignment = {0, 0};
  EXPECT_DOUBLE_EQ(davies_bouldin(points, assignment), 0.0);
}

TEST(Inertia, MatchesHandComputation) {
  const Points points = {{0.0}, {2.0}, {10.0}};
  const Points centroids = {{1.0}, {10.0}};
  const std::vector<std::size_t> assignment = {0, 0, 1};
  EXPECT_DOUBLE_EQ(inertia(points, centroids, assignment), 1.0 + 1.0 + 0.0);
}

TEST(SilhouetteSampled, ExactWhenSampleCoversAllPoints) {
  Rng rng(40);
  const Points points = gaussian_blobs(kFarCenters, 10, 0.8, rng);
  const auto result = k_means(points, 4, rng);
  Rng sample_rng(41);
  // max_samples >= n: must match the exact metric bit-for-bit and leave
  // the rng untouched.
  EXPECT_DOUBLE_EQ(
      silhouette_sampled(points, result.assignment, points.size(), sample_rng),
      silhouette(points, result.assignment));
  EXPECT_DOUBLE_EQ(
      silhouette_sampled(points, result.assignment, 10000, sample_rng),
      silhouette(points, result.assignment));
}

TEST(SilhouetteSampled, CloseToExactOnSubsample) {
  Rng rng(42);
  const Points points = gaussian_blobs(kFarCenters, 50, 0.8, rng);  // n = 200
  const auto result = k_means(points, 4, rng);
  const double exact = silhouette(points, result.assignment);
  Rng sample_rng(43);
  const double sampled =
      silhouette_sampled(points, result.assignment, 80, sample_rng);
  EXPECT_NEAR(sampled, exact, 0.1);
  EXPECT_GE(sampled, -1.0);
  EXPECT_LE(sampled, 1.0);
}

TEST(SilhouetteSampled, DegenerateSingleClusterIsZero) {
  const Points points = {{0.0}, {1.0}, {2.0}, {3.0}};
  const std::vector<std::size_t> assignment = {0, 0, 0, 0};
  Rng sample_rng(44);
  EXPECT_DOUBLE_EQ(silhouette_sampled(points, assignment, 2, sample_rng), 0.0);
}

// ---------------------------------------------------------------- selectors

TEST(FixedKSelector, ClampsToPointCount) {
  FixedKSelector sel(10);
  Rng rng(19);
  Points points = {{0.0}, {1.0}, {2.0}};
  EXPECT_EQ(sel.select_k(points, rng), 3u);
  EXPECT_EQ(sel.name(), "fixed-10");
}

TEST(ElbowKSelector, FindsKneeOnSeparatedBlobs) {
  Rng rng(20);
  const Points points = gaussian_blobs(kFarCenters, 20, 0.4, rng);
  ElbowKSelector sel(2, 8);
  const std::size_t k = sel.select_k(points, rng);
  // The knee of 4 well-separated blobs is at or adjacent to 4.
  EXPECT_GE(k, 3u);
  EXPECT_LE(k, 5u);
}

TEST(SilhouetteSweepSelector, FindsTrueKOnSeparatedBlobs) {
  Rng rng(21);
  const Points points = gaussian_blobs(kFarCenters, 15, 0.4, rng);
  SilhouetteSweepSelector sel(2, 8);
  EXPECT_EQ(sel.select_k(points, rng), 4u);
}

TEST(RandomKSelector, StaysWithinRange) {
  Rng rng(22);
  const Points points = gaussian_blobs(kFarCenters, 10, 1.0, rng);
  RandomKSelector sel(3, 7);
  for (int i = 0; i < 50; ++i) {
    const std::size_t k = sel.select_k(points, rng);
    EXPECT_GE(k, 3u);
    EXPECT_LE(k, 7u);
  }
}

TEST(Selectors, InvalidRangesRejected) {
  EXPECT_THROW(FixedKSelector(0), PreconditionError);
  EXPECT_THROW(ElbowKSelector(5, 2), PreconditionError);
  EXPECT_THROW(RandomKSelector(0, 3), PreconditionError);
}

// ------------------------------------------------- parameterized properties

struct KMeansParam {
  std::size_t n_points;
  std::size_t k;
  std::uint64_t seed;
};

class KMeansProperty : public ::testing::TestWithParam<KMeansParam> {};

TEST_P(KMeansProperty, InvariantsHoldOnRandomData) {
  const auto param = GetParam();
  Rng rng(param.seed);
  Points points;
  points.reserve(param.n_points);
  for (std::size_t i = 0; i < param.n_points; ++i) {
    points.push_back({rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0),
                      rng.uniform(0.0, 10.0)});
  }
  const KMeansResult result = k_means(points, param.k, rng);

  // Assignment indices valid; all clusters non-empty; inertia matches.
  ASSERT_EQ(result.assignment.size(), points.size());
  std::vector<std::size_t> counts(param.k, 0);
  for (const std::size_t a : result.assignment) {
    ASSERT_LT(a, param.k);
    ++counts[a];
  }
  for (const std::size_t c : counts) {
    EXPECT_GT(c, 0u);
  }
  EXPECT_NEAR(result.inertia, inertia(points, result.centroids, result.assignment),
              1e-6);
  // Assignment is a nearest-centroid fixed point.
  EXPECT_EQ(assign_to_nearest(points, result.centroids), result.assignment);
  // Silhouette bounded.
  const double s = silhouette(points, result.assignment);
  EXPECT_GE(s, -1.0);
  EXPECT_LE(s, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KMeansProperty,
    ::testing::Values(KMeansParam{10, 2, 1}, KMeansParam{50, 3, 2},
                      KMeansParam{100, 5, 3}, KMeansParam{100, 10, 4},
                      KMeansParam{30, 1, 5}, KMeansParam{64, 8, 6},
                      KMeansParam{200, 6, 7}, KMeansParam{25, 25, 8}));

// ------------------------------------------------- SIMD backend equivalence
// The fused assign+accumulate kernel must produce bit-identical
// assignments, sums, counts, and changed-flags on every backend compiled
// into this binary, for any point/centroid geometry — including dims and
// cluster counts that leave ragged vector tails, a single point, and an
// empty point set.

namespace simd = dtmsv::util::simd;

struct AssignOutput {
  std::vector<std::size_t> assignment;
  std::vector<double> sums;
  std::vector<std::size_t> counts;
  bool changed = false;
};

template <typename Backend>
AssignOutput assign_via(const std::vector<double>& pts, std::size_t n,
                        std::size_t dim, const std::vector<double>& cents,
                        std::size_t k) {
  AssignOutput out;
  out.assignment.assign(n, 0);
  out.sums.assign(k * dim, 0.0);
  out.counts.assign(k, 0);
  out.changed = kernels::assign_accumulate<Backend>(
      pts.data(), n, dim, cents.data(), k, out.assignment.data(),
      out.sums.data(), out.counts.data());
  return out;
}

struct AssignGeometry {
  std::size_t n, dim, k;
};

// Lane widths in play are 4 (AVX2 doubles) and 8 (AVX-512 doubles); the
// cluster counts straddle both, and the dims cover the paper's 8-d
// embeddings plus ragged widths on either side.
const AssignGeometry kAssignGeometries[] = {
    {0, 3, 2},  {1, 3, 1},   {7, 1, 3},   {37, 3, 5},  {40, 8, 8},
    {40, 8, 9}, {25, 9, 17}, {12, 5, 12}, {64, 8, 25},
};

template <typename Backend>
void check_assign_backend_matches_scalar(const char* name) {
  Rng rng(77);
  for (const auto& g : kAssignGeometries) {
    std::vector<double> pts(g.n * g.dim);
    for (double& v : pts) {
      v = rng.uniform(-5.0, 5.0);
    }
    std::vector<double> cents(g.k * g.dim);
    for (double& v : cents) {
      v = rng.uniform(-5.0, 5.0);
    }
    const AssignOutput want =
        assign_via<simd::scalar_backend>(pts, g.n, g.dim, cents, g.k);
    const AssignOutput got = assign_via<Backend>(pts, g.n, g.dim, cents, g.k);
    ASSERT_EQ(got.assignment, want.assignment)
        << name << ": n=" << g.n << " dim=" << g.dim << " k=" << g.k;
    ASSERT_EQ(got.counts, want.counts) << name;
    ASSERT_EQ(got.changed, want.changed) << name;
    ASSERT_EQ(got.sums.size(), want.sums.size()) << name;
    for (std::size_t i = 0; i < got.sums.size(); ++i) {
      ASSERT_EQ(got.sums[i], want.sums[i]) << name << ": sum " << i;
    }
  }
}

TEST(KMeansSimdBackends, AssignAccumulateBitIdenticalAcrossBackends) {
  check_assign_backend_matches_scalar<simd::scalar_backend>("scalar");
#if defined(__AVX2__)
  check_assign_backend_matches_scalar<simd::avx2_backend>("avx2");
#endif
#if defined(__AVX512F__)
  check_assign_backend_matches_scalar<simd::avx512_backend>("avx512");
#endif
}

template <typename Backend>
void check_nan_points_assign_to_zero() {
  // A NaN coordinate poisons every distance; the strict-< argmin then
  // keeps index 0, on every backend (NaN lanes never compare less).
  const std::size_t dim = 3, k = 5;
  std::vector<double> pts = {0.5, std::numeric_limits<double>::quiet_NaN(), 1.0};
  std::vector<double> cents(k * dim, 0.25);
  const AssignOutput out = assign_via<Backend>(pts, 1, dim, cents, k);
  EXPECT_EQ(out.assignment[0], 0u);
  EXPECT_EQ(out.counts[0], 1u);
}

TEST(KMeansSimdBackends, NanPointsFallBackToIndexZeroOnEveryBackend) {
  check_nan_points_assign_to_zero<simd::scalar_backend>();
#if defined(__AVX2__)
  check_nan_points_assign_to_zero<simd::avx2_backend>();
#endif
#if defined(__AVX512F__)
  check_nan_points_assign_to_zero<simd::avx512_backend>();
#endif
}

TEST(KMeansSimdBackends, KernelAgreesWithPublicSquaredDistance) {
  // The kernel's per-lane distance chain must rank centroids the same way
  // the public span API does (the metrics layer uses the latter), so a
  // k_means assignment remains a nearest-centroid fixed point under
  // metrics-side distance checks.
  Rng rng(78);
  const std::size_t n = 50, dim = 8, k = 6;
  std::vector<double> pts(n * dim);
  for (double& v : pts) {
    v = rng.uniform(-3.0, 3.0);
  }
  std::vector<double> cents(k * dim);
  for (double& v : cents) {
    v = rng.uniform(-3.0, 3.0);
  }
  const AssignOutput out =
      assign_via<simd::default_backend>(pts, n, dim, cents, k);
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const double> p(pts.data() + i * dim, dim);
    std::size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < k; ++c) {
      const double d =
          squared_distance(p, {cents.data() + c * dim, dim});
      if (d < best_d) {
        best_d = d;
        best = c;
      }
    }
    EXPECT_EQ(out.assignment[i], best) << "point " << i;
  }
}

// ------------------------------------------- silhouette kernel equivalence
// kernels::silhouette_sums must reproduce, on every backend, the scalar
// scan over all points with the k-means madd-chain distance: per query,
// per cluster, sum sqrt(chain) over members in ascending index, skipping
// the query itself. Geometries straddle one and two pack widths of
// queries, cover dims on both sides of the paper's 8 and 12, empty and
// singleton clusters, and inf/NaN rows on the query and member sides.

double chain_sq_dist(const double* a, const double* b, std::size_t dim) {
  double total = 0.0;
  for (std::size_t d = 0; d < dim; ++d) {
    const double diff = a[d] - b[d];
    total = simd::madd(diff, diff, total);
  }
  return total;
}

std::vector<double> reference_silhouette_sums(const std::vector<double>& pts,
                                              std::size_t dim,
                                              const std::vector<std::size_t>& assignment,
                                              std::size_t k,
                                              const std::vector<std::size_t>& queries) {
  std::vector<double> sums(queries.size() * k, 0.0);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const std::size_t i = queries[q];
    for (std::size_t j = 0; j < assignment.size(); ++j) {
      if (j != i) {
        sums[q * k + assignment[j]] +=
            std::sqrt(chain_sq_dist(pts.data() + i * dim, pts.data() + j * dim, dim));
      }
    }
  }
  return sums;
}

/// Bit-equal, except that any two NaNs match (which NaN payload an x86
/// instruction propagates depends on its operand order, not on the value).
bool same_double(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

template <typename Backend>
std::vector<double> silhouette_sums_via(const std::vector<double>& pts, std::size_t dim,
                                        const std::vector<std::size_t>& assignment,
                                        std::size_t k,
                                        const std::vector<std::size_t>& queries) {
  const ClusterMembers members = members_by_cluster(assignment, k);
  std::vector<double> sums(queries.size() * k, -1.0);
  kernels::silhouette_sums<Backend>(pts.data(), dim, members.offsets.data(),
                                    members.ids.data(), k, queries.data(),
                                    queries.size(), sums.data());
  return sums;
}

enum class Poison { kNone, kInfQuery, kNanQuery, kInfMember, kNanMember };

template <typename Backend>
void check_silhouette_sums_backend(const char* name) {
  constexpr std::size_t W = simd::pack<double, Backend>::width;
  Rng rng(91);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, W - 1, W, W + 1,
                              2 * W - 1, 2 * W, 2 * W + 1, std::size_t{37},
                              std::size_t{1000}}) {
    if (n == 0) {
      continue;
    }
    for (const std::size_t dim : {1u, 8u, 12u, 13u}) {
      for (const std::size_t k : {1u, 2u, 5u, 9u, 12u}) {
        for (const Poison poison : {Poison::kNone, Poison::kInfQuery, Poison::kNanQuery,
                                    Poison::kInfMember, Poison::kNanMember}) {
          if (n == 1000 && (dim != 12 || k != 12 ||
                            (poison != Poison::kNone && poison != Poison::kNanQuery))) {
            continue;  // the large size runs the serve shape only
          }
          std::vector<double> pts(n * dim);
          for (double& v : pts) {
            v = rng.uniform(-4.0, 4.0);
          }
          // Cluster 0 is a singleton when there is room; the last cluster
          // stays empty whenever k > 1; the rest are random.
          std::vector<std::size_t> assignment(n);
          for (std::size_t i = 0; i < n; ++i) {
            const std::size_t live = k > 2 ? k - 2 : 1;
            assignment[i] = i == 0 ? 0 : (k > 2 ? 1 + static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(live) - 1)) : 0);
          }
          const std::size_t victim = n / 2;
          const double inf = std::numeric_limits<double>::infinity();
          const double nan = std::numeric_limits<double>::quiet_NaN();
          switch (poison) {
            case Poison::kNone:
              break;
            case Poison::kInfQuery:
            case Poison::kInfMember:
              pts[victim * dim + dim / 2] = inf;
              break;
            case Poison::kNanQuery:
            case Poison::kNanMember:
              pts[victim * dim] = nan;
              break;
          }
          std::vector<std::size_t> queries(n);
          std::iota(queries.begin(), queries.end(), std::size_t{0});
          if (poison == Poison::kInfMember || poison == Poison::kNanMember) {
            // The poisoned row is never a query: every block is finite.
            queries.erase(queries.begin() + static_cast<std::ptrdiff_t>(victim));
          }
          const std::vector<double> want =
              reference_silhouette_sums(pts, dim, assignment, k, queries);
          const std::vector<double> got =
              silhouette_sums_via<Backend>(pts, dim, assignment, k, queries);
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_TRUE(same_double(got[i], want[i]))
                << name << ": n=" << n << " dim=" << dim << " k=" << k
                << " poison=" << static_cast<int>(poison) << " sum " << i << " got "
                << got[i] << " want " << want[i];
          }
        }
      }
    }
  }
}

TEST(SilhouetteSimdBackends, SumsMatchScalarChainOnEveryBackend) {
  check_silhouette_sums_backend<simd::scalar_backend>("scalar");
#if defined(__AVX2__)
  check_silhouette_sums_backend<simd::avx2_backend>("avx2");
#endif
#if defined(__AVX512F__)
  check_silhouette_sums_backend<simd::avx512_backend>("avx512");
#endif
}

template <typename Backend>
void check_sampled_queries(const char* name) {
  // The sampled path's queries: a drawn subset in draw order, at block-
  // sized and ragged counts.
  Rng rng(92);
  const std::size_t n = 300, dim = 12, k = 7;
  std::vector<double> pts(n * dim);
  for (double& v : pts) {
    v = rng.uniform(-1.0, 1.0);
  }
  std::vector<std::size_t> assignment(n);
  for (std::size_t& a : assignment) {
    a = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(k) - 1));
  }
  for (const std::size_t count : {1u, 9u, 16u, 17u, 64u, 299u}) {
    const std::vector<std::size_t> queries = rng.sample_without_replacement(n, count);
    const std::vector<double> want =
        reference_silhouette_sums(pts, dim, assignment, k, queries);
    const std::vector<double> got =
        silhouette_sums_via<Backend>(pts, dim, assignment, k, queries);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(same_double(got[i], want[i]))
          << name << ": count=" << count << " sum " << i;
    }
  }
}

TEST(SilhouetteSimdBackends, SampledQueriesMatchScalarChainOnEveryBackend) {
  check_sampled_queries<simd::scalar_backend>("scalar");
#if defined(__AVX2__)
  check_sampled_queries<simd::avx2_backend>("avx2");
#endif
#if defined(__AVX512F__)
  check_sampled_queries<simd::avx512_backend>("avx512");
#endif
}

/// The pre-kernel silhouette loop with the madd-chain distance: the oracle
/// for the public metric (per point, scan every other point in ascending
/// index, then a/b from the per-cluster means).
double reference_silhouette_of(const Points& points,
                               const std::vector<std::size_t>& assignment,
                               std::size_t k, std::size_t i) {
  std::vector<std::size_t> sizes(k, 0);
  for (const std::size_t a : assignment) {
    ++sizes[a];
  }
  const std::size_t own = assignment[i];
  if (sizes[own] <= 1) {
    return 0.0;
  }
  std::vector<double> dist_sum(k, 0.0);
  for (std::size_t j = 0; j < points.size(); ++j) {
    if (j != i) {
      dist_sum[assignment[j]] += std::sqrt(chain_sq_dist(
          points[i].data(), points[j].data(), points.dim()));
    }
  }
  const double a = dist_sum[own] / static_cast<double>(sizes[own] - 1);
  double b = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < k; ++c) {
    if (c != own && sizes[c] > 0) {
      b = std::min(b, dist_sum[c] / static_cast<double>(sizes[c]));
    }
  }
  const double denom = std::max(a, b);
  return denom > 0.0 ? (b - a) / denom : 0.0;
}

TEST(Silhouette, ExactAndSampledMatchScanOracle) {
  Rng rng(93);
  const Points points = gaussian_blobs(kFarCenters, 60, 2.5, rng);
  const KMeansResult result = k_means(points, 5, rng);
  const std::size_t k = result.cluster_count();

  double exact = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    exact += reference_silhouette_of(points, result.assignment, k, i);
  }
  exact /= static_cast<double>(points.size());
  EXPECT_EQ(silhouette(points, result.assignment), exact);

  // Same seed, same draws: the sampled estimate averages the oracle over
  // the drawn points in draw order.
  Rng draw(94);
  Rng replay(94);
  const double sampled = silhouette_sampled(points, result.assignment, 50, draw);
  const std::vector<std::size_t> drawn =
      replay.sample_without_replacement(points.size(), 50);
  double want = 0.0;
  for (const std::size_t i : drawn) {
    want += reference_silhouette_of(points, result.assignment, k, i);
  }
  EXPECT_EQ(sampled, want / 50.0);
  EXPECT_EQ(draw.next(), replay.next());
}

// ----------------------------------- register assign kernel vs generic loop
// kernels::assign_accumulate sends 8-d and 12-d points with k <= 2W to the
// register-resident kernel; it must agree bit for bit with the generic
// loop it stands in for, on every backend, at cluster counts on both sides
// of one and two pack widths, with tied centroids (lowest index wins, also
// across lane groups), NaN rows (index 0), a NaN centroid (never wins) and
// point counts that are not multiples of anything.

template <typename Backend>
void check_register_assign_matches_generic(const char* name) {
  constexpr std::size_t W = simd::pack<double, Backend>::width;
  Rng rng(79);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::size_t dim : {8u, 12u, 5u}) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{2}, W - 1, W, W + 1,
                                2 * W, 2 * W + 1}) {
      if (k == 0) {
        continue;
      }
      for (const std::size_t n : {1u, 7u, 37u, 101u}) {
        for (int variant = 0; variant < 3; ++variant) {
          std::vector<double> pts(n * dim);
          for (double& v : pts) {
            v = rng.uniform(-2.0, 2.0);
          }
          std::vector<double> cents(k * dim);
          for (double& v : cents) {
            v = rng.uniform(-2.0, 2.0);
          }
          if (variant == 1) {
            // Every centroid a copy of centroid 0 or 1, and points sitting
            // on the midpoint grid: ties everywhere, across lane groups.
            for (std::size_t c = 2; c < k; ++c) {
              std::copy_n(cents.begin() + static_cast<std::ptrdiff_t>((c % 2) * dim), dim,
                          cents.begin() + static_cast<std::ptrdiff_t>(c * dim));
            }
            for (std::size_t i = 0; i < n; i += 2) {
              std::fill_n(pts.begin() + static_cast<std::ptrdiff_t>(i * dim), dim, 0.0);
            }
            for (double& v : cents) {
              v = std::round(v);
            }
          }
          if (variant == 2) {
            pts[(n / 2) * dim + dim - 1] = nan;
            cents[(k / 2) * dim] = nan;
          }
          std::vector<std::size_t> carried(n);
          for (std::size_t& a : carried) {
            a = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(k) - 1));
          }
          AssignOutput want{carried, std::vector<double>(k * dim, 0.5),
                            std::vector<std::size_t>(k, 1), false};
          AssignOutput got = want;
          want.changed = kernels::assign_accumulate_generic<Backend>(
              pts.data(), n, dim, cents.data(), k, want.assignment.data(),
              want.sums.data(), want.counts.data());
          got.changed = kernels::assign_accumulate<Backend>(
              pts.data(), n, dim, cents.data(), k, got.assignment.data(),
              got.sums.data(), got.counts.data());
          ASSERT_EQ(got.assignment, want.assignment)
              << name << ": dim=" << dim << " k=" << k << " n=" << n
              << " variant=" << variant;
          ASSERT_EQ(got.counts, want.counts) << name;
          ASSERT_EQ(got.changed, want.changed) << name;
          for (std::size_t i = 0; i < got.sums.size(); ++i) {
            ASSERT_TRUE(same_double(got.sums[i], want.sums[i])) << name << ": sum " << i;
          }
        }
      }
    }
  }
}

TEST(KMeansSimdBackends, RegisterAssignMatchesGenericLoopOnEveryBackend) {
  check_register_assign_matches_generic<simd::scalar_backend>("scalar");
#if defined(__AVX2__)
  check_register_assign_matches_generic<simd::avx2_backend>("avx2");
#endif
#if defined(__AVX512F__)
  check_register_assign_matches_generic<simd::avx512_backend>("avx512");
#endif
}

// ------------------------------------------------- k-means++ D² update
// kernels::d2_update (lanes = points) must leave the D² array exactly as
// the per-point scalar loop does, and kmeans_plus_plus_init must pick the
// same centroids and leave the generator where the scalar seeding left it.

/// The scalar seeding the vector update replaced, verbatim.
Points reference_plus_plus_init(const Points& points, std::size_t k, Rng& rng) {
  const std::size_t n = points.size();
  const std::size_t dim = points.dim();
  Points centroids;
  centroids.push_back(
      points[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))]);
  std::vector<double> d2(n, std::numeric_limits<double>::infinity());
  while (centroids.size() < k) {
    const std::vector<double> newest(centroids[centroids.size() - 1].begin(),
                                     centroids[centroids.size() - 1].end());
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = chain_sq_dist(points[i].data(), newest.data(), dim);
      if (d < d2[i]) {
        d2[i] = d;
      }
      total += d2[i];
    }
    std::size_t chosen = 0;
    if (total <= 0.0) {
      chosen = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    } else {
      chosen = rng.categorical(d2);
    }
    centroids.push_back(points[chosen]);
  }
  return centroids;
}

template <typename Backend>
void check_d2_update(const char* name) {
  constexpr std::size_t W = simd::pack<double, Backend>::width;
  Rng rng(80);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::size_t dim : {1u, 5u, 8u, 12u}) {
    for (const std::size_t n : {W, 3 * W, 40 * W}) {
      const std::size_t stride = n + W;  // a row pitch wider than n
      std::vector<double> cols(dim * stride, 0.0);
      std::vector<double> rows(n * dim);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t d = 0; d < dim; ++d) {
          // Some rows equal the second centroid below (D² = 0), one holds
          // +inf (D² = +inf) and one NaN (D² = NaN, which never lowers).
          double v = i % 5 == 3 ? 0.25 : rng.uniform(-3.0, 3.0);
          v = i == 1 && d == 0 ? inf : (i == n - 1 && d == dim - 1 ? nan : v);
          rows[i * dim + d] = v;
          cols[d * stride + i] = v;
        }
      }
      std::vector<double> want(n);
      for (std::size_t i = 0; i < n; ++i) {
        want[i] = i % 3 == 0 ? inf : rng.uniform(0.0, 40.0);
      }
      std::vector<double> got = want;
      // Centroids: random, then one equal to some points, then one with a
      // NaN coordinate.
      for (int round = 0; round < 3; ++round) {
        std::vector<double> newest(dim, 0.25);
        if (round == 0) {
          for (double& v : newest) {
            v = rng.uniform(-3.0, 3.0);
          }
        } else if (round == 2) {
          newest[dim / 2] = nan;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double d = chain_sq_dist(rows.data() + i * dim, newest.data(), dim);
          if (d < want[i]) {
            want[i] = d;
          }
        }
        kernels::d2_update<Backend>(cols.data(), stride, dim, newest.data(), n,
                                    got.data());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(same_double(got[i], want[i]))
              << name << ": dim=" << dim << " n=" << n << " round=" << round << " i=" << i;
        }
      }
    }
  }
}

TEST(KMeansPlusPlus, D2UpdateMatchesScalarLoopOnEveryBackend) {
  check_d2_update<simd::scalar_backend>("scalar");
#if defined(__AVX2__)
  check_d2_update<simd::avx2_backend>("avx2");
#endif
#if defined(__AVX512F__)
  check_d2_update<simd::avx512_backend>("avx512");
#endif
}

TEST(KMeansPlusPlus, SeedingMatchesScalarSeedingAndGeneratorState) {
  Rng data(81);
  for (const std::size_t dim : {1u, 8u, 12u, 13u}) {
    for (const std::size_t n : {1u, 3u, 7u, 9u, 37u, 1000u}) {
      for (int variant = 0; variant < 3; ++variant) {
        Points points(n, dim);
        double* rows = points.data();
        for (std::size_t i = 0; i < n * dim; ++i) {
          // variant 1: every point equal (the total <= 0 branch);
          // variant 2: few distinct values, so D² ties and zeros abound.
          rows[i] = variant == 1 ? 1.5
                    : variant == 2 ? static_cast<double>(data.uniform_int(0, 2))
                                   : data.uniform(-1.0, 1.0);
        }
        const std::size_t k = std::min<std::size_t>(n, 8);
        Rng rng(500 + n + dim);
        Rng replay(500 + n + dim);
        const Points got = kmeans_plus_plus_init(points, k, rng);
        const Points want = reference_plus_plus_init(points, k, replay);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t c = 0; c < got.size(); ++c) {
          for (std::size_t d = 0; d < dim; ++d) {
            ASSERT_EQ(got[c][d], want[c][d])
                << "dim=" << dim << " n=" << n << " variant=" << variant << " c=" << c;
          }
        }
        EXPECT_EQ(rng.next(), replay.next()) << "dim=" << dim << " n=" << n;
      }
    }
  }
}

// ------------------------------------------- pair-once exact silhouette
// kernels::silhouette_sums_pairwise computes each unordered pair once; every
// point's per-cluster sum must still equal silhouette_sums_row's ascending
// chain, on every backend. Sizes straddle one block (L = 2W lanes); the
// assignments cover singleton clusters, an empty cluster id, clusters that
// straddle blocks (and fill whole partner tiles), duplicate points, and
// +inf/-inf/NaN coordinates, including on rows that share a block.

template <typename Backend>
void check_pairwise_sums(const char* name) {
  constexpr std::size_t L = 2 * simd::pack<double, Backend>::width;
  Rng rng(95);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, L - 1, L, L + 1,
                              std::size_t{37}, std::size_t{1000}}) {
    for (const std::size_t dim : {3u, 12u}) {
      for (const std::size_t k : {1u, 4u, 9u}) {
        for (int variant = 0; variant < 3; ++variant) {
          if (n == 1000 && (dim != 12 || k == 1)) {
            continue;
          }
          std::vector<double> pts(n * dim);
          for (double& v : pts) {
            v = rng.uniform(-4.0, 4.0);
          }
          std::vector<std::size_t> assignment(n);
          for (std::size_t i = 0; i < n; ++i) {
            // Cluster k - 1 stays empty when k > 2 and cluster 0 holds
            // point 0 alone; the rest are drawn.
            assignment[i] = k <= 2 || i == 0
                                ? std::min<std::size_t>(i, k - 1)
                                : 1 + static_cast<std::size_t>(rng.uniform_int(
                                          0, static_cast<std::int64_t>(k) - 3));
          }
          if (variant >= 1 && n > 2) {
            // Duplicates: every fourth point copies its predecessor.
            for (std::size_t i = 3; i < n; i += 4) {
              std::copy_n(pts.begin() + static_cast<std::ptrdiff_t>((i - 1) * dim), dim,
                          pts.begin() + static_cast<std::ptrdiff_t>(i * dim));
            }
          }
          if (variant == 2) {
            pts[(n / 2) * dim] = inf;
            pts[(n / 3) * dim + dim - 1] = -inf;
            pts[(n - 1) * dim] = nan;
            if (n > 1) {
              pts[1 * dim] = inf;  // same dimension as the +inf row
            }
          }
          const ClusterMembers members = members_by_cluster(assignment, k);
          std::vector<double> gathered(n * dim);
          for (std::size_t m = 0; m < n; ++m) {
            std::copy_n(pts.begin() + static_cast<std::ptrdiff_t>(members.ids[m] * dim), dim,
                        gathered.begin() + static_cast<std::ptrdiff_t>(m * dim));
          }
          std::vector<double> got(n * k, -1.0);
          kernels::silhouette_sums_pairwise<Backend>(pts.data(), dim, members.offsets.data(),
                                                     members.ids.data(), k, got.data());
          std::vector<double> want(k);
          for (std::size_t i = 0; i < n; ++i) {
            kernels::silhouette_sums_row(pts.data(), dim, gathered.data(),
                                         members.offsets.data(), members.ids.data(), k, i,
                                         want.data());
            for (std::size_t c = 0; c < k; ++c) {
              ASSERT_TRUE(same_double(got[i * k + c], want[c]))
                  << name << ": n=" << n << " dim=" << dim << " k=" << k
                  << " variant=" << variant << " point " << i << " cluster " << c
                  << " got " << got[i * k + c] << " want " << want[c];
            }
          }
        }
      }
    }
  }
}

TEST(SilhouetteSimdBackends, PairOnceSumsMatchRowChainOnEveryBackend) {
  check_pairwise_sums<simd::scalar_backend>("scalar");
#if defined(__AVX2__)
  check_pairwise_sums<simd::avx2_backend>("avx2");
#endif
#if defined(__AVX512F__)
  check_pairwise_sums<simd::avx512_backend>("avx512");
#endif
}

}  // namespace
