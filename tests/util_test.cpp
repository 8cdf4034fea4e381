// Unit tests for dtmsv::util — RNG determinism and distribution moments,
// streaming statistics, histograms, CSV writing, table rendering,
// error-check macros, and the thread-count ceiling.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "stats_check.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/vmath.hpp"

namespace {

using namespace dtmsv::util;

// ---------------------------------------------------------------- RNG basics

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() != b.next()) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 60);
}

TEST(Rng, ForkIsDeterministicAndDecorrelated) {
  Rng parent1(7);
  Rng parent2(7);
  Rng childA = parent1.fork(0);
  Rng childA2 = parent2.fork(0);
  EXPECT_EQ(childA.next(), childA2.next());

  Rng parent3(7);
  Rng c0 = parent3.fork(0);
  Rng parent4(7);
  Rng c1 = parent4.fork(1);
  EXPECT_NE(c0.next(), c1.next());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformRejectsInvertedRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(2.0, 1.0), PreconditionError);
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(9);
  std::array<int, 5> counts{};
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(0, 4);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 4);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (const int c : counts) {
    EXPECT_GT(c, 800);  // ~1000 expected each
  }
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.uniform_int(7, 7), 7);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(2024);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.add(rng.normal());
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, NormalScaled) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.add(rng.normal(10.0, 3.0));
  }
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.1);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(77);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.add(rng.exponential(2.0));
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), PreconditionError);
  EXPECT_THROW(rng.exponential(-1.0), PreconditionError);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    hits += rng.bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / 20000.0, 0.3, 0.02);
}

TEST(Rng, BernoulliDegenerate) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, GammaMoments) {
  Rng rng(13);
  RunningStats stats;
  const double shape = 3.0;
  const double scale = 2.0;
  for (int i = 0; i < 50000; ++i) {
    stats.add(rng.gamma(shape, scale));
  }
  EXPECT_NEAR(stats.mean(), shape * scale, 0.15);
  EXPECT_NEAR(stats.variance(), shape * scale * scale, 0.8);
}

TEST(Rng, GammaSmallShape) {
  Rng rng(14);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    const double g = rng.gamma(0.5, 1.0);
    ASSERT_GE(g, 0.0);
    stats.add(g);
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.05);
}

TEST(Rng, BetaMeanAndRange) {
  Rng rng(15);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    const double b = rng.beta(2.0, 6.0);
    ASSERT_GE(b, 0.0);
    ASSERT_LE(b, 1.0);
    stats.add(b);
  }
  EXPECT_NEAR(stats.mean(), 0.25, 0.02);
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(16);
  const std::vector<double> weights = {1.0, 3.0, 6.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 30000; ++i) {
    ++counts[rng.categorical(weights)];
  }
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 30000.0, 0.3, 0.02);
  EXPECT_NEAR(counts[2] / 30000.0, 0.6, 0.02);
}

TEST(Rng, CategoricalZeroWeightNeverChosen) {
  Rng rng(17);
  const std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.categorical(weights), 1u);
  }
}

TEST(Rng, CategoricalRejectsBadWeights) {
  Rng rng(1);
  const std::vector<double> negative = {1.0, -0.5};
  EXPECT_THROW(rng.categorical(negative), PreconditionError);
  const std::vector<double> zeros = {0.0, 0.0};
  EXPECT_THROW(rng.categorical(zeros), PreconditionError);
}

TEST(Rng, DirichletSumsToOne) {
  Rng rng(18);
  const std::vector<double> alpha = {0.5, 1.0, 2.0, 4.0};
  for (int i = 0; i < 100; ++i) {
    const auto p = rng.dirichlet(alpha);
    ASSERT_EQ(p.size(), alpha.size());
    const double total = std::accumulate(p.begin(), p.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-9);
    for (const double v : p) {
      EXPECT_GE(v, 0.0);
    }
  }
}

TEST(Rng, DirichletMeansTrackAlpha) {
  Rng rng(19);
  const std::vector<double> alpha = {1.0, 3.0};
  double mean0 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    mean0 += rng.dirichlet(alpha)[0];
  }
  EXPECT_NEAR(mean0 / n, 0.25, 0.01);
}

// ------------------------------------------- RNG distributions (K-S, α = 1e-3)

constexpr double kKsAlpha = 1e-3;

std::vector<double> draw(std::size_t n, const std::function<double()>& sampler) {
  std::vector<double> xs(n);
  for (double& x : xs) {
    x = sampler();
  }
  return xs;
}

TEST(RngDistribution, NormalMatchesPhi) {
  Rng rng(20240);
  const auto xs = draw(1'000'000, [&] { return rng.normal(); });
  const auto ks = dtmsv::testing::ks::one_sample(xs, dtmsv::testing::normal_cdf);
  EXPECT_GT(ks.p, kKsAlpha) << "sqrt(n)·D = " << ks.scaled_d;
  // K-S is least sensitive in the tails; count |x| > 3.5 directly
  // (P = 4.6525e-4, so 465 ± 21.6 expected; allow 5 sigma).
  const auto tail = std::count_if(xs.begin(), xs.end(),
                                  [](double x) { return std::abs(x) > 3.5; });
  const double expected = 4.6525e-4 * 1e6;
  EXPECT_NEAR(static_cast<double>(tail), expected, 5.0 * std::sqrt(expected));
  RunningStats s;
  for (const double x : xs) {
    s.add(x);
  }
  EXPECT_NEAR(s.mean(), 0.0, 0.005);
  EXPECT_NEAR(s.variance(), 1.0, 0.005);
}

TEST(RngDistribution, GammaMatchesClosedFormCdf) {
  struct Case {
    double shape;
    double (*cdf)(double);
  };
  const Case cases[] = {
      {1.0, [](double x) { return -std::expm1(-x); }},
      {2.0, [](double x) { return 1.0 - std::exp(-x) * (1.0 + x); }},
      // Gamma(1/2, 1) is χ²₁/2: P(X <= x) = erf(√x).
      {0.5, [](double x) { return std::erf(std::sqrt(x)); }},
  };
  Rng rng(31);
  for (const Case& c : cases) {
    const double scale = 2.0;
    const auto xs = draw(200'000, [&] { return rng.gamma(c.shape, scale) / scale; });
    const auto ks = dtmsv::testing::ks::one_sample(xs, c.cdf);
    EXPECT_GT(ks.p, kKsAlpha) << "shape " << c.shape << ": sqrt(n)·D = " << ks.scaled_d;
  }
}

TEST(RngDistribution, DirichletMarginalIsBeta) {
  // Component i of Dirichlet(α) is Beta(α_i, Σα − α_i).
  const std::vector<double> alpha = {0.35, 0.35, 0.35, 0.35, 0.35, 0.35};
  Rng dirichlet_rng(41);
  Rng beta_rng(42);
  const auto marginal = draw(50'000, [&] { return dirichlet_rng.dirichlet(alpha)[2]; });
  const auto beta = draw(50'000, [&] { return beta_rng.beta(0.35, 5 * 0.35); });
  const auto ks = dtmsv::testing::ks::two_sample(marginal, beta);
  EXPECT_GT(ks.p, kKsAlpha) << "sqrt(n_eff)·D = " << ks.scaled_d;
}

TEST(KsCheck, RejectsAShiftedSample) {
  // The harness itself must have power: N(0.02, 1) at n = 1e6 lies ~8
  // standard errors of D away from Φ, and two-sample against N(0, 1)
  // at 50k each is far outside too.
  Rng rng(7);
  const auto shifted = draw(1'000'000, [&] { return rng.normal(0.02, 1.0); });
  EXPECT_LT(dtmsv::testing::ks::one_sample(shifted, dtmsv::testing::normal_cdf).p, 1e-6);
  const auto a = draw(50'000, [&] { return rng.normal(); });
  const auto b = draw(50'000, [&] { return rng.normal(0.1, 1.0); });
  EXPECT_LT(dtmsv::testing::ks::two_sample(a, b).p, 1e-6);
  EXPECT_GT(dtmsv::testing::ks::kolmogorov_sf(1.36), 0.049);
  EXPECT_LT(dtmsv::testing::ks::kolmogorov_sf(1.36), 0.051);
}

// ------------------------------------------------- vmath (log10 / exp kernel)

// Distance in units in the last place between two finite doubles.
double ulps(double got, double want) {
  if (got == want) {
    return 0.0;
  }
  const auto key = [](double x) {
    // Map the sign-magnitude encoding onto a monotone integer line.
    const auto b = std::bit_cast<std::int64_t>(x);
    return b < 0 ? std::numeric_limits<std::int64_t>::min() - b : b;
  };
  return std::abs(static_cast<double>(key(got) - key(want)));
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

// Sweeps: log-spaced [1e-30, 1e6] (dB conversion's clamp up to large
// ratios) and dense [1, 5000] (path loss over a campus, in metres).
std::vector<double> log10_sweep() {
  std::vector<double> xs;
  const std::size_t n = 400'000;
  for (std::size_t i = 0; i <= n; ++i) {
    xs.push_back(std::pow(10.0, -30.0 + 36.0 * static_cast<double>(i) / n));
  }
  for (double d = 1.0; d <= 5000.0; d += 1.0 / 256.0 + 1e-9) {
    xs.push_back(d);
  }
  return xs;
}

std::vector<double> exp_sweep() {
  std::vector<double> xs;
  const std::size_t n = 1'000'000;
  for (std::size_t i = 0; i <= n; ++i) {
    xs.push_back(-745.0 * static_cast<double>(i) / n);
  }
  // Small arguments, where rho = exp(-moved/d_corr) of a slow walker lives.
  for (double x = -1e-3; x < 0.0; x += 1e-7) {
    xs.push_back(x);
  }
  return xs;
}

TEST(VMath, Log10WithinTwoUlpOfLibm) {
  double worst = 0.0;
  double worst_x = 0.0;
  for (const double x : log10_sweep()) {
    const double e = ulps(dtmsv::util::vmath::log10(x), std::log10(x));
    if (e > worst) {
      worst = e;
      worst_x = x;
    }
  }
  std::printf("vmath::log10: max %.0f ulp vs std::log10 (at x = %.17g)\n", worst, worst_x);
  EXPECT_LE(worst, 2.0) << "at x = " << worst_x;
}

TEST(VMath, ExpWithinTwoUlpOfLibm) {
  double worst = 0.0;
  double worst_x = 0.0;
  for (const double x : exp_sweep()) {
    const double e = ulps(dtmsv::util::vmath::exp(x), std::exp(x));
    if (e > worst) {
      worst = e;
      worst_x = x;
    }
  }
  std::printf("vmath::exp: max %.0f ulp vs std::exp (at x = %.17g)\n", worst, worst_x);
  EXPECT_LE(worst, 2.0) << "at x = " << worst_x;
}

TEST(VMath, ExactPoints) {
  using dtmsv::util::vmath::exp;
  using dtmsv::util::vmath::log10;
  // Stationary users rely on rho = exp(-0/d) == 1 and log10(d_ref/d_ref) == 0.
  EXPECT_TRUE(same_bits(log10(1.0), 0.0));
  EXPECT_TRUE(same_bits(exp(0.0), 1.0));
  EXPECT_TRUE(same_bits(exp(-0.0), 1.0));
  EXPECT_EQ(log10(10.0), 1.0);
  EXPECT_EQ(log10(1000.0), 3.0);
  // Underflow to +0 below the smallest subnormal's half-way point, and the
  // smallest subnormal just above it.
  EXPECT_TRUE(same_bits(exp(-746.0), 0.0));
  EXPECT_TRUE(same_bits(exp(-1e4), 0.0));
  EXPECT_TRUE(same_bits(exp(-std::numeric_limits<double>::infinity()), 0.0));
  EXPECT_EQ(exp(-745.0), std::exp(-745.0));
  EXPECT_TRUE(std::isnan(exp(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_EQ(exp(1e4), std::numeric_limits<double>::infinity());
}

template <typename Backend>
void check_vmath_matches_scalar(const char* name) {
  using P = simd::pack<double, Backend>;
  constexpr std::size_t W = P::width;
  const auto compare = [&](std::vector<double> xs, auto vector_fn, auto scalar_fn,
                           const char* fn) {
    while (xs.size() % W != 0) {
      xs.push_back(1.0);
    }
    double lanes[W];
    for (std::size_t i = 0; i < xs.size(); i += W) {
      vector_fn(P::load(xs.data() + i)).store(lanes);
      for (std::size_t l = 0; l < W; ++l) {
        ASSERT_TRUE(same_bits(lanes[l], scalar_fn(xs[i + l])))
            << name << ": " << fn << " lane " << l << " of " << xs[i + l];
      }
    }
  };
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> logs = log10_sweep();
  // Subnormals, the normal range's ends and the sqrt(2) fold point.
  for (const double x : {4.9e-324, 1e-310, 2.2250738585072009e-308,
                         std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
                         1.4142135623730949, 1.4142135623730951, 1.4142135623730954,
                         0.70710678118654746, 0.70710678118654757}) {
    logs.push_back(x);
  }
  compare(logs, [](P x) { return dtmsv::util::vmath::log10(x); },
          [](double x) { return dtmsv::util::vmath::log10(x); }, "log10");
  std::vector<double> exps = exp_sweep();
  // Subnormal results, both clamps, overflow, signed zeros, NaN, ±inf.
  for (const double x : {-745.13321910194122, -745.1332191019411, -720.5, -708.4,
                         -708.39641853226408, -746.0, -800.0, -inf, 0.0, -0.0, 1.0,
                         709.78, 709.79, 710.0, 1e4, inf,
                         std::numeric_limits<double>::quiet_NaN()}) {
    exps.push_back(x);
  }
  compare(exps, [](P x) { return dtmsv::util::vmath::exp(x); },
          [](double x) { return dtmsv::util::vmath::exp(x); }, "exp");
}

TEST(VMath, BitIdenticalAcrossBackends) {
  check_vmath_matches_scalar<simd::scalar_backend>("scalar");
#if defined(__AVX2__)
  check_vmath_matches_scalar<simd::avx2_backend>("avx2");
#endif
#if defined(__AVX512F__)
  check_vmath_matches_scalar<simd::avx512_backend>("avx512");
#endif
}

TEST(ZipfDistribution, RankZeroMostLikely) {
  Rng rng(20);
  const ZipfDistribution dist(10, 1.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 30000; ++i) {
    ++counts[dist.sample(rng)];
  }
  for (std::size_t k = 1; k < counts.size(); ++k) {
    EXPECT_GE(counts[0], counts[k]);
  }
}

TEST(ZipfDistribution, ExponentZeroIsUniform) {
  Rng rng(21);
  const ZipfDistribution dist(4, 0.0);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) {
    ++counts[dist.sample(rng)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c / 40000.0, 0.25, 0.02);
  }
}

/// The sampler the table replaced, verbatim: both sums recomputed with
/// std::pow on every draw.
std::size_t zipf_by_pow(Rng& rng, std::size_t n, double s) {
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
  }
  double draw = rng.uniform() * total;
  for (std::size_t k = 0; k < n; ++k) {
    draw -= 1.0 / std::pow(static_cast<double>(k + 1), s);
    if (draw < 0.0) {
      return k;
    }
  }
  return n - 1;
}

TEST(ZipfDistribution, TableDrawEqualsPowLoop) {
  // Same rank and the same generator state after every draw, so a caller
  // that switches sampler sees an unchanged stream.
  for (const std::size_t n : {1u, 2u, 7u, 50u, 200u, 1000u}) {
    for (const double s : {0.0, 0.5, 0.9, 1.0, 1.3, 2.5}) {
      for (const std::uint64_t seed : {1u, 29u, 977u}) {
        Rng table_rng(seed), pow_rng(seed);
        const ZipfDistribution dist(n, s);
        for (int i = 0; i < 500; ++i) {
          ASSERT_EQ(dist.sample(table_rng), zipf_by_pow(pow_rng, n, s))
              << "n " << n << " s " << s << " seed " << seed << " draw " << i;
        }
        ASSERT_EQ(table_rng.next(), pow_rng.next());
      }
    }
  }
}

TEST(Rng, SampleWithoutReplacementUnique) {
  Rng rng(22);
  const auto sample = rng.sample_without_replacement(100, 30);
  ASSERT_EQ(sample.size(), 30u);
  std::vector<bool> seen(100, false);
  for (const std::size_t s : sample) {
    ASSERT_LT(s, 100u);
    EXPECT_FALSE(seen[s]);
    seen[s] = true;
  }
}

TEST(Rng, SampleWithoutReplacementFullSet) {
  Rng rng(23);
  const auto sample = rng.sample_without_replacement(5, 5);
  auto sorted = sample;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(sorted[i], i);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(24);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  auto sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, v);
}

TEST(ZipfDistribution, PmfSumsToOne) {
  ZipfDistribution dist(20, 0.9);
  double total = 0.0;
  for (std::size_t k = 0; k < dist.size(); ++k) {
    total += dist.pmf(k);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfDistribution, PmfDecreasing) {
  ZipfDistribution dist(15, 1.1);
  for (std::size_t k = 1; k < dist.size(); ++k) {
    EXPECT_LE(dist.pmf(k), dist.pmf(k - 1) + 1e-12);
  }
}

TEST(ZipfDistribution, SampleMatchesPmf) {
  ZipfDistribution dist(5, 1.0);
  Rng rng(25);
  std::vector<int> counts(5, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    ++counts[dist.sample(rng)];
  }
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_NEAR(counts[k] / static_cast<double>(n), dist.pmf(k), 0.01);
  }
}

// ------------------------------------------------------------------- Stats

TEST(RunningStats, MeanVarianceAgainstClosedForm) {
  RunningStats stats;
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (const double x : xs) {
    stats.add(x);
  }
  EXPECT_EQ(stats.count(), xs.size());
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStats, EmptyThrowsOnMean) {
  RunningStats stats;
  EXPECT_TRUE(stats.empty());
  EXPECT_THROW(stats.mean(), PreconditionError);
}

TEST(RunningStats, SingleSampleVarianceZero) {
  RunningStats stats;
  stats.add(3.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 0.0);
}

TEST(RunningStats, MergeEqualsCombinedStream) {
  Rng rng(31);
  RunningStats combined;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    combined.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), combined.count());
  EXPECT_NEAR(left.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), combined.variance(), 1e-7);
  EXPECT_DOUBLE_EQ(left.min(), combined.min());
  EXPECT_DOUBLE_EQ(left.max(), combined.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);   // clamps into bin 0
  h.add(0.5);    // bin 0
  h.add(5.0);    // bin 2
  h.add(9.99);   // bin 4
  h.add(10.0);   // clamps into bin 4
  h.add(99.0);   // clamps into bin 4
  EXPECT_EQ(h.total(), 6u);
  EXPECT_NEAR(h.density(0), 2.0 / 6.0, 1e-12);
  EXPECT_NEAR(h.density(1), 0.0, 1e-12);
  EXPECT_NEAR(h.density(2), 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(h.density(4), 0.5, 1e-12);
}

TEST(Histogram, DensitiesSumToOne) {
  Histogram h(0.0, 1.0, 8);
  Rng rng(32);
  for (int i = 0; i < 1000; ++i) {
    h.add(rng.uniform());
  }
  const auto d = h.densities();
  EXPECT_NEAR(std::accumulate(d.begin(), d.end(), 0.0), 1.0, 1e-9);
}

TEST(Histogram, EmptyDensitiesUniform) {
  Histogram h(0.0, 1.0, 4);
  const auto d = h.densities();
  for (const double v : d) {
    EXPECT_DOUBLE_EQ(v, 0.25);
  }
}

TEST(Ewma, FirstValueInitialises) {
  Ewma e(0.5);
  EXPECT_FALSE(e.has_value());
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(Ewma, SmoothingFollowsFormula) {
  Ewma e(0.25);
  e.add(0.0);
  e.add(4.0);
  EXPECT_DOUBLE_EQ(e.value(), 1.0);
  e.add(1.0);
  EXPECT_DOUBLE_EQ(e.value(), 1.0);
}

TEST(Ewma, RejectsBadAlpha) {
  EXPECT_THROW(Ewma(0.0), PreconditionError);
  EXPECT_THROW(Ewma(1.5), PreconditionError);
}

TEST(FreeStats, MeanVarianceStddev) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(variance(xs), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(stddev(xs), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(FreeStats, PercentileInterpolates) {
  std::vector<double> xs = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
}

TEST(FreeStats, PearsonPerfectCorrelation) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const std::vector<double> ys = {2.0, 4.0, 6.0};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  const std::vector<double> neg = {6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(FreeStats, PearsonZeroVariance) {
  const std::vector<double> xs = {1.0, 1.0, 1.0};
  const std::vector<double> ys = {2.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
}

TEST(FreeStats, MapeBasic) {
  const std::vector<double> actual = {100.0, 200.0};
  const std::vector<double> predicted = {90.0, 220.0};
  const auto err = mape(actual, predicted);
  ASSERT_TRUE(err.has_value());
  EXPECT_NEAR(*err, 0.1, 1e-12);
}

TEST(FreeStats, MapeSkipsZeroActuals) {
  const std::vector<double> actual = {0.0, 100.0};
  const std::vector<double> predicted = {5.0, 110.0};
  const auto err = mape(actual, predicted);
  ASSERT_TRUE(err.has_value());
  EXPECT_NEAR(*err, 0.1, 1e-12);
}

TEST(FreeStats, MapeAllZeroActualsIsNullopt) {
  const std::vector<double> actual = {0.0, 0.0};
  const std::vector<double> predicted = {1.0, 2.0};
  EXPECT_FALSE(mape(actual, predicted).has_value());
}

TEST(FreeStats, PredictionAccuracyClampsAtZero) {
  const std::vector<double> actual = {10.0};
  const std::vector<double> predicted = {100.0};
  const auto acc = prediction_accuracy(actual, predicted);
  ASSERT_TRUE(acc.has_value());
  EXPECT_DOUBLE_EQ(*acc, 0.0);
}

TEST(FreeStats, PredictionAccuracyPerfect) {
  const std::vector<double> actual = {10.0, 20.0};
  const auto acc = prediction_accuracy(actual, actual);
  ASSERT_TRUE(acc.has_value());
  EXPECT_DOUBLE_EQ(*acc, 1.0);
}

TEST(FreeStats, VolumeWeightedAccuracyBasic) {
  const std::vector<double> actual = {100.0, 0.0, 50.0};
  const std::vector<double> predicted = {90.0, 10.0, 55.0};
  // Σ|err| = 25, Σactual = 150 → accuracy = 1 - 1/6.
  const auto acc = volume_weighted_accuracy(actual, predicted);
  ASSERT_TRUE(acc.has_value());
  EXPECT_NEAR(*acc, 1.0 - 25.0 / 150.0, 1e-12);
}

TEST(FreeStats, VolumeWeightedAccuracyToleratesZeroActuals) {
  // MAPE is undefined here; the volume-weighted form is not.
  const std::vector<double> actual = {0.0, 0.0, 100.0};
  const std::vector<double> predicted = {5.0, 5.0, 100.0};
  const auto acc = volume_weighted_accuracy(actual, predicted);
  ASSERT_TRUE(acc.has_value());
  EXPECT_NEAR(*acc, 0.9, 1e-12);
}

TEST(FreeStats, VolumeWeightedAccuracyAllZeroIsNullopt) {
  const std::vector<double> actual = {0.0, 0.0};
  const std::vector<double> predicted = {1.0, 1.0};
  EXPECT_FALSE(volume_weighted_accuracy(actual, predicted).has_value());
}

TEST(FreeStats, VolumeWeightedAccuracyClampsAtZero) {
  const std::vector<double> actual = {10.0};
  const std::vector<double> predicted = {100.0};
  const auto acc = volume_weighted_accuracy(actual, predicted);
  ASSERT_TRUE(acc.has_value());
  EXPECT_DOUBLE_EQ(*acc, 0.0);
}

TEST(FreeStats, RmseKnownValue) {
  const std::vector<double> actual = {1.0, 2.0, 3.0};
  const std::vector<double> predicted = {2.0, 2.0, 5.0};
  EXPECT_NEAR(rmse(actual, predicted), std::sqrt(5.0 / 3.0), 1e-12);
}

// --------------------------------------------------------------------- CSV

TEST(Csv, QuotesOnlyCellsThatNeedIt) {
  CsvWriter writer;
  writer.set_header({"a", "b", "c"});
  writer.add_row({"1", "hello", "2.5"});
  writer.add_row({"2", "with,comma", "3.5"});
  writer.add_row({"3", "with \"quotes\"", "4.5"});
  EXPECT_EQ(writer.row_count(), 3u);
  EXPECT_EQ(writer.to_string(),
            "a,b,c\n"
            "1,hello,2.5\n"
            "2,\"with,comma\",3.5\n"
            "3,\"with \"\"quotes\"\"\",4.5\n");
}

TEST(Csv, DoubleRowsRoundTripPrecision) {
  const double values[] = {1.0 / 3.0, 2.718281828459045, -1e-300, 6.02214076e23};
  for (const double v : values) {
    EXPECT_EQ(std::strtod(format_double(v).c_str(), nullptr), v) << format_double(v);
  }
  CsvWriter writer;
  writer.set_header({"x", "y"});
  writer.add_row(std::vector<double>{1.0 / 3.0, 0.5});
  EXPECT_EQ(writer.to_string(), "x,y\n" + format_double(1.0 / 3.0) + ",0.5\n");
}

TEST(Csv, RowWidthMismatchThrows) {
  CsvWriter writer;
  writer.set_header({"a", "b"});
  EXPECT_THROW(writer.add_row({"only-one"}), PreconditionError);
}

// -------------------------------------------------------------------- Table

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| name "), std::string::npos);
  EXPECT_NE(out.find("| longer-name "), std::string::npos);
  // All lines share the same width.
  std::size_t first_len = out.find('\n');
  std::size_t pos = 0;
  while (pos < out.size()) {
    const std::size_t next = out.find('\n', pos);
    if (next == std::string::npos) {
      break;
    }
    EXPECT_EQ(next - pos, first_len);
    pos = next + 1;
  }
}

TEST(Table, RejectsWrongRowWidth) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), PreconditionError);
}

TEST(Table, FixedAndPercentFormatting) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(percent(0.9504, 2), "95.04%");
  EXPECT_EQ(percent(1.0, 0), "100%");
}

// -------------------------------------------------------------------- Error

TEST(Error, ExpectsMacroThrowsWithContext) {
  try {
    DTMSV_EXPECTS_MSG(1 == 2, "math broke");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math broke"), std::string::npos);
  }
}

TEST(Error, ValidateInputKeepsOnlyTheCheckMessage) {
  const auto check = [](int value) {
    DTMSV_EXPECTS_MSG(value > 0, "Config: value must be positive");
    DTMSV_EXPECTS(value < 10);
  };
  dtmsv::util::validate_input([&] { check(5); });  // passes through
  try {
    dtmsv::util::validate_input([&] { check(-1); });
    FAIL() << "should have thrown";
  } catch (const dtmsv::util::RuntimeError& e) {
    EXPECT_STREQ(e.what(), "Config: value must be positive");
  }
  // A check without a message keeps its full description.
  try {
    check(12);
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    EXPECT_STREQ(e.message(), e.what());
  }
  // Other exceptions pass through unchanged.
  EXPECT_THROW(dtmsv::util::validate_input([] { throw std::out_of_range("x"); }),
               std::out_of_range);
}

TEST(Error, EnsuresMacroThrowsInvariant) {
  EXPECT_THROW(DTMSV_ENSURES(false), InvariantError);
}

// ------------------------------------------------------------ thread count

TEST(ThreadCount, EnvValueOutsideOneToTheCeilingFallsBackToTheDefault) {
  using dtmsv::util::kMaxThreads;
  using dtmsv::util::thread_count_from_env;
  EXPECT_EQ(thread_count_from_env(nullptr), 0u);
  EXPECT_EQ(thread_count_from_env(""), 0u);
  EXPECT_EQ(thread_count_from_env("abc"), 0u);
  EXPECT_EQ(thread_count_from_env("0"), 0u);
  EXPECT_EQ(thread_count_from_env("-3"), 0u);
  EXPECT_EQ(thread_count_from_env("1"), 1u);
  EXPECT_EQ(thread_count_from_env("4"), 4u);
  EXPECT_EQ(thread_count_from_env("4threads"), 4u);  // leading integer, as strtol
  EXPECT_EQ(thread_count_from_env("256"), kMaxThreads);
  EXPECT_EQ(thread_count_from_env("257"), 0u);
  EXPECT_EQ(thread_count_from_env("100000"), 0u);
  EXPECT_EQ(thread_count_from_env("99999999999999999999999"), 0u);  // overflow
}

TEST(ThreadCount, SetThreadCountRejectsCountsAboveTheCeiling) {
  // Rejected before it is stored, so no worker ever starts for it.
  const std::size_t before = dtmsv::util::thread_count();
  EXPECT_THROW(dtmsv::util::set_thread_count(dtmsv::util::kMaxThreads + 1),
               dtmsv::util::PreconditionError);
  EXPECT_EQ(dtmsv::util::thread_count(), before);
}

}  // namespace
