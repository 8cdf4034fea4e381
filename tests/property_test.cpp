// Property-based tests: parameterized sweeps over seeds and sizes asserting
// invariants that must hold for any configuration — distribution laws,
// demand-model monotonicity, swiping-CDF properties, and cross-module
// consistency of the multicast accounting.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/swiping.hpp"
#include "clustering/kmeans.hpp"
#include "clustering/metrics.hpp"
#include "mobility/random_waypoint.hpp"
#include "predict/demand.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "wireless/channel.hpp"
#include "wireless/multicast.hpp"

namespace {

using namespace dtmsv;
using util::Rng;

// ----------------------------------------------- RNG distribution laws

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformMomentsAndBounds) {
  Rng rng(GetParam());
  util::RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    stats.add(u);
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.01);
}

TEST_P(RngSeedSweep, DirichletAlwaysSimplex) {
  Rng rng(GetParam());
  const std::vector<double> alpha = {0.3, 0.3, 0.3, 0.3, 0.3, 0.3};
  for (int i = 0; i < 200; ++i) {
    const auto p = rng.dirichlet(alpha);
    double total = 0.0;
    for (const double v : p) {
      ASSERT_GE(v, 0.0);
      total += v;
    }
    ASSERT_NEAR(total, 1.0, 1e-9);
  }
}

TEST_P(RngSeedSweep, BetaInUnitInterval) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const double b = rng.beta(0.7, 2.3);
    ASSERT_GE(b, 0.0);
    ASSERT_LE(b, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(1, 17, 4242, 99991, 123456789));

// ----------------------------------------------- swiping CDF properties

struct SwipingParam {
  std::uint64_t seed;
  double beta_a;
  double beta_b;
};

class SwipingSweep : public ::testing::TestWithParam<SwipingParam> {};

TEST_P(SwipingSweep, CdfIsMonotoneZeroToOne) {
  const auto param = GetParam();
  Rng rng(param.seed);
  analysis::SwipingDistribution dist;
  for (int i = 0; i < 800; ++i) {
    dist.observe(video::Category::kMusic, rng.beta(param.beta_a, param.beta_b));
  }
  double prev = 0.0;
  EXPECT_NEAR(dist.cumulative_swipe_probability(video::Category::kMusic, 0.0), 0.0,
              1e-9);
  for (double t = 0.05; t <= 1.0; t += 0.05) {
    const double cdf = dist.cumulative_swipe_probability(video::Category::kMusic, t);
    ASSERT_GE(cdf, prev - 1e-12);
    prev = cdf;
  }
  // Evaluate the boundary explicitly: the loop's accumulated t drifts below 1.
  EXPECT_NEAR(dist.cumulative_swipe_probability(video::Category::kMusic, 1.0), 1.0,
              1e-9);
}

TEST_P(SwipingSweep, ExpectedMaxMonotoneInGroupSize) {
  const auto param = GetParam();
  Rng rng(param.seed);
  analysis::SwipingDistribution dist;
  for (int i = 0; i < 800; ++i) {
    dist.observe(video::Category::kGame, rng.beta(param.beta_a, param.beta_b));
  }
  double prev = 0.0;
  for (const std::size_t k : {1u, 2u, 4u, 8u, 16u, 64u}) {
    const double e = dist.expected_max_watch_fraction(video::Category::kGame, k);
    ASSERT_GE(e, prev - 1e-12);
    ASSERT_LE(e, 1.0);
    prev = e;
  }
}

TEST_P(SwipingSweep, ExpectedMaxOfOneEqualsMean) {
  const auto param = GetParam();
  Rng rng(param.seed);
  analysis::SwipingDistribution dist;
  for (int i = 0; i < 2000; ++i) {
    dist.observe(video::Category::kNews, rng.beta(param.beta_a, param.beta_b));
  }
  EXPECT_NEAR(dist.expected_max_watch_fraction(video::Category::kNews, 1),
              dist.expected_watch_fraction(video::Category::kNews), 0.03);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SwipingSweep,
                         ::testing::Values(SwipingParam{1, 2.0, 2.0},
                                           SwipingParam{2, 0.5, 3.0},
                                           SwipingParam{3, 5.0, 1.5},
                                           SwipingParam{4, 1.0, 1.0}));

// ----------------------------------------------- demand-model monotonicity

struct DemandParam {
  std::uint64_t seed;
  std::size_t members;
  double efficiency;
};

class DemandSweep : public ::testing::TestWithParam<DemandParam> {};

/// The reservation interval every demand sweep forecasts (the paper's 5 min).
constexpr double kIntervalS = 300.0;

predict::ContentStats flat_content() {
  predict::ContentStats content;
  content.mean_duration_s.fill(15.0);
  content.ladder_kbps = {750.0, 1200.0, 1850.0, 2850.0, 4300.0};
  return content;
}

TEST_P(DemandSweep, DemandNonNegativeAndConsistent) {
  const auto param = GetParam();
  Rng rng(param.seed);
  analysis::SwipingDistribution swiping;
  for (int i = 0; i < 500; ++i) {
    for (const auto c : video::all_categories()) {
      swiping.observe(c, rng.beta(1.5, 2.5));
    }
  }
  behavior::PreferenceVector mix{};
  mix.fill(1.0 / video::kCategoryCount);
  std::array<std::size_t, video::kCategoryCount> playlist{};
  playlist.fill(4);
  predict::DemandModelConfig config;

  const auto d = predict::predict_group_demand(param.members, mix, swiping,
                                               param.efficiency, playlist,
                                               flat_content(), kIntervalS, config);
  ASSERT_GE(d.radio_hz, 0.0);
  ASSERT_GE(d.compute_cycles, 0.0);
  ASSERT_GE(d.transmitted_bits, 0.0);
  // radio_hz must equal bits / efficiency / interval with the floored
  // efficiency.
  const double eff = std::max(param.efficiency, config.efficiency_floor);
  EXPECT_NEAR(d.radio_hz, d.transmitted_bits / eff / kIntervalS,
              1e-6 * std::max(1.0, d.radio_hz));
}

TEST_P(DemandSweep, BitsMonotoneInMembersAtFixedEfficiency) {
  const auto param = GetParam();
  Rng rng(param.seed);
  analysis::SwipingDistribution swiping;
  for (int i = 0; i < 500; ++i) {
    for (const auto c : video::all_categories()) {
      swiping.observe(c, rng.beta(2.0, 3.0));
    }
  }
  behavior::PreferenceVector mix{};
  mix.fill(1.0 / video::kCategoryCount);
  std::array<std::size_t, video::kCategoryCount> playlist{};
  playlist.fill(4);
  predict::DemandModelConfig config;
  const auto content = flat_content();

  double prev_on_air_share = 0.0;
  for (const std::size_t m : {1u, 2u, 4u, 16u, 64u}) {
    const auto d = predict::predict_group_demand(m, mix, swiping, param.efficiency,
                                                 playlist, content, kIntervalS, config);
    // Per-video on-air time (bits / bitrate / videos) grows with group size.
    const double per_video_s =
        d.transmitted_bits /
        (content.ladder_kbps[d.rung] * 1e3 * std::max(d.distinct_videos, 1e-9));
    ASSERT_GE(per_video_s, prev_on_air_share - 1e-9);
    prev_on_air_share = per_video_s;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, DemandSweep,
                         ::testing::Values(DemandParam{1, 1, 0.2},
                                           DemandParam{2, 5, 1.0},
                                           DemandParam{3, 20, 2.5},
                                           DemandParam{4, 50, 5.0},
                                           DemandParam{5, 8, 0.05}));

// ----------------------------------------------- multicast PHY properties

class PhySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PhySweep, GroupEfficiencyNeverExceedsAnyMember) {
  Rng rng(GetParam());
  wireless::MulticastPhy phy;
  for (int trial = 0; trial < 100; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 30));
    std::vector<double> effs;
    for (std::size_t i = 0; i < n; ++i) {
      effs.push_back(rng.uniform(0.0, 6.0));
    }
    const double g = phy.group_efficiency(effs);
    for (const double e : effs) {
      ASSERT_LE(g, std::max(e, phy.min_efficiency_floor()) + 1e-12);
    }
  }
}

TEST_P(PhySweep, BandwidthScalesLinearlyWithBitrate) {
  Rng rng(GetParam());
  wireless::MulticastPhy phy;
  for (int trial = 0; trial < 50; ++trial) {
    const double eff = rng.uniform(0.1, 6.0);
    const double rate = rng.uniform(100.0, 5000.0);
    const double one = phy.required_bandwidth_hz(rate, eff);
    const double two = phy.required_bandwidth_hz(2.0 * rate, eff);
    ASSERT_NEAR(two, 2.0 * one, 1e-6 * two);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PhySweep, ::testing::Values(11, 22, 33));

// ----------------------------------------------- channel model invariants

class ChannelSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChannelSweep, EfficiencyAlwaysLawful) {
  const auto map = mobility::CampusMap::waterloo_campus();
  Rng rng(GetParam());
  wireless::RadioConfig cfg;
  wireless::ChannelModel channel(map, cfg, 10, 1.0, rng);
  mobility::MobilityConfig mob_cfg;
  Rng mob_rng(GetParam() + 1);
  mobility::MobilityField field(map, mob_cfg, 10, mob_rng);

  for (int t = 0; t < 120; ++t) {
    field.advance(1.0);
    channel.step(field.snapshot());
    for (std::size_t u = 0; u < 10; ++u) {
      const auto& s = channel.sample_of(u);
      ASSERT_TRUE(std::isfinite(s.snr_db));
      ASSERT_GE(s.efficiency_bps_hz, 0.0);
      ASSERT_LE(s.efficiency_bps_hz, 5.5547 + 1e-9);  // CQI-15 cap
      ASSERT_LT(s.serving_bs, map.base_stations().size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelSweep, ::testing::Values(7, 77, 777));

// ----------------------------------------------- clustering + metrics glue

class SilhouetteSweepProp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SilhouetteSweepProp, BetterSeparationBetterSilhouette) {
  Rng rng(GetParam());
  const auto make_blobs = [&](double sep) {
    clustering::Points points;
    for (int b = 0; b < 3; ++b) {
      for (int i = 0; i < 15; ++i) {
        points.push_back({sep * b + rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)});
      }
    }
    return points;
  };
  const auto tight = make_blobs(30.0);
  const auto loose = make_blobs(3.0);
  const auto rt = clustering::k_means(tight, 3, rng);
  const auto rl = clustering::k_means(loose, 3, rng);
  EXPECT_GT(clustering::silhouette(tight, rt.assignment),
            clustering::silhouette(loose, rl.assignment));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SilhouetteSweepProp, ::testing::Values(3, 33, 333));

}  // namespace
