// Unit tests for dtmsv::wireless — path-loss analytics, shadowing/fading
// statistics, CQI table monotonicity, channel-model behaviour with distance,
// and multicast PHY accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "mobility/campus_map.hpp"
#include "stats_check.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "wireless/channel.hpp"
#include "wireless/cqi.hpp"
#include "wireless/fading.hpp"
#include "wireless/multicast.hpp"
#include "wireless/pathloss.hpp"

namespace {

using namespace dtmsv::wireless;
using dtmsv::util::PreconditionError;
using dtmsv::util::Rng;
using dtmsv::util::RunningStats;

// ---------------------------------------------------------------- path loss

TEST(PathLoss, ReferenceValue) {
  PathLossModel model;
  EXPECT_DOUBLE_EQ(model.loss_db(model.reference_m), model.pl_ref_db);
}

TEST(PathLoss, TenXDistanceAddsTenNdB) {
  PathLossModel model;
  const double at_10 = model.loss_db(10.0);
  const double at_100 = model.loss_db(100.0);
  EXPECT_NEAR(at_100 - at_10, 10.0 * model.exponent, 1e-9);
}

TEST(PathLoss, ClampsBelowReference) {
  PathLossModel model;
  EXPECT_DOUBLE_EQ(model.loss_db(0.1), model.pl_ref_db);
  EXPECT_DOUBLE_EQ(model.loss_db(0.0), model.pl_ref_db);
}

TEST(PathLoss, MonotoneInDistance) {
  PathLossModel model;
  double prev = model.loss_db(1.0);
  for (double d = 2.0; d < 1000.0; d *= 1.5) {
    const double loss = model.loss_db(d);
    EXPECT_GT(loss, prev);
    prev = loss;
  }
}

TEST(PathLoss, NegativeDistanceRejected) {
  PathLossModel model;
  EXPECT_THROW(model.loss_db(-1.0), PreconditionError);
}

// ---------------------------------------------------------------- shadowing

TEST(Shadowing, StationaryVariance) {
  ShadowingProcess proc(6.0, 50.0, Rng(1));
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.add(proc.step(5.0));
  }
  // Samples are strongly autocorrelated (rho ≈ 0.9), so the effective
  // sample count is ~1000 → generous mean tolerance.
  EXPECT_NEAR(stats.mean(), 0.0, 0.6);
  EXPECT_NEAR(stats.stddev(), 6.0, 0.5);
}

TEST(Shadowing, DecorrelatedMarginalIsNormal) {
  // Steps of 20 decorrelation lengths leave rho = e^-20: the samples are
  // independent draws of the stationary marginal N(0, sigma²).
  ShadowingProcess proc(6.0, 50.0, Rng(21));
  std::vector<double> xs(200'000);
  for (double& x : xs) {
    x = proc.step(1000.0);
  }
  const auto ks = dtmsv::testing::ks::one_sample(
      xs, [](double x) { return dtmsv::testing::normal_cdf(x / 6.0); });
  EXPECT_GT(ks.p, 1e-3) << "sqrt(n)·D = " << ks.scaled_d;
}

TEST(Shadowing, ZeroMovementFreezesValue) {
  ShadowingProcess proc(6.0, 50.0, Rng(2));
  const double v0 = proc.current_db();
  const double v1 = proc.step(0.0);
  // rho = exp(0) = 1: no innovation.
  EXPECT_DOUBLE_EQ(v0, v1);
}

TEST(Shadowing, LargeMovementDecorrelates) {
  // Correlation between consecutive values for tiny steps >> for huge steps.
  const auto correlation_for_step = [](double step_m) {
    ShadowingProcess proc(6.0, 50.0, Rng(3));
    std::vector<double> xs;
    std::vector<double> ys;
    double prev = proc.current_db();
    for (int i = 0; i < 5000; ++i) {
      const double next = proc.step(step_m);
      xs.push_back(prev);
      ys.push_back(next);
      prev = next;
    }
    return dtmsv::util::pearson(xs, ys);
  };
  EXPECT_GT(correlation_for_step(1.0), 0.9);
  EXPECT_LT(correlation_for_step(500.0), 0.1);
}

// ------------------------------------------------------------------- fading

TEST(Fading, UnitMeanPower) {
  RayleighFading fading(10.0, 1.0, Rng(4));
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.add(fading.step());
  }
  EXPECT_NEAR(stats.mean(), 1.0, 0.05);
}

TEST(Fading, PowerNonNegative) {
  RayleighFading fading(10.0, 1.0, Rng(5));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(fading.step(), 0.0);
  }
}

TEST(Fading, ExponentialPowerDistribution) {
  // |h|² ~ Exp(1): P(X > 1) = e^-1 ≈ 0.3679.
  RayleighFading fading(100.0, 1.0, Rng(6));  // fast fading → near-iid samples
  int above = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (fading.step() > 1.0) {
      ++above;
    }
  }
  EXPECT_NEAR(above / static_cast<double>(n), std::exp(-1.0), 0.02);
}

TEST(Fading, PowerMatchesExponentialCdf) {
  // The whole |h|² distribution, not one quantile: K-S against Exp(1).
  RayleighFading fading(100.0, 1.0, Rng(22));
  std::vector<double> xs(200'000);
  for (double& x : xs) {
    x = fading.step();
  }
  const auto ks = dtmsv::testing::ks::one_sample(
      xs, [](double x) { return -std::expm1(-x); });
  EXPECT_GT(ks.p, 1e-3) << "sqrt(n)·D = " << ks.scaled_d;
}

TEST(Fading, DbConversionConsistent) {
  RayleighFading fading(10.0, 1.0, Rng(7));
  fading.step();
  EXPECT_NEAR(fading.current_db(),
              10.0 * std::log10(fading.current_power()), 1e-9);
}

// ---------------------------------------------------------------------- CQI

TEST(Cqi, FifteenLevels) {
  CqiTable table;
  EXPECT_EQ(table.level_count(), 15u);
}

TEST(Cqi, OutOfRangeGivesZero) {
  CqiTable table;
  EXPECT_EQ(table.cqi_for_snr(-30.0), 0u);
  EXPECT_DOUBLE_EQ(table.efficiency(-30.0), 0.0);
}

TEST(Cqi, HighSnrGivesTopLevel) {
  CqiTable table;
  EXPECT_EQ(table.cqi_for_snr(40.0), 15u);
  EXPECT_NEAR(table.efficiency(40.0), 5.5547, 1e-4);
}

TEST(Cqi, EfficiencyMonotoneInSnr) {
  CqiTable table;
  double prev = -1.0;
  for (double snr = -10.0; snr <= 30.0; snr += 0.5) {
    const double eff = table.efficiency(snr);
    EXPECT_GE(eff, prev);
    prev = eff;
  }
}

TEST(Cqi, ThresholdBoundaries) {
  CqiTable table;
  // Just below CQI-1 threshold: nothing; just above: CQI 1.
  EXPECT_EQ(table.cqi_for_snr(-6.71), 0u);
  EXPECT_EQ(table.cqi_for_snr(-6.69), 1u);
  EXPECT_NEAR(table.entry(1).efficiency, 0.1523, 1e-4);
}

TEST(Cqi, EntryRangeChecked) {
  CqiTable table;
  EXPECT_THROW(table.entry(0), PreconditionError);
  EXPECT_THROW(table.entry(16), PreconditionError);
}

TEST(DbLinear, RoundTrip) {
  EXPECT_NEAR(db_to_linear(10.0), 10.0, 1e-12);
  EXPECT_NEAR(db_to_linear(0.0), 1.0, 1e-12);
  EXPECT_NEAR(linear_to_db(100.0), 20.0, 1e-12);
  EXPECT_NEAR(linear_to_db(db_to_linear(-7.3)), -7.3, 1e-9);
}

TEST(Noise, ThermalFloor) {
  // -174 dBm/Hz + 10log10(20 MHz) + 7 dB ≈ -94 dBm.
  EXPECT_NEAR(noise_power_dbm(20e6, 7.0), -93.99, 0.05);
}

// ------------------------------------------------------------ channel model

RadioConfig quiet_radio() {
  RadioConfig cfg;
  cfg.shadowing_sigma_db = 0.0;  // deterministic large-scale for assertions
  cfg.doppler_hz = 0.0;          // frozen fading
  return cfg;
}

TEST(ChannelModel, SnrDecreasesWithDistance) {
  const auto map = dtmsv::mobility::CampusMap::grid(10, 2, 100.0);
  // grid() puts one BS at the centre.
  Rng rng(8);
  ChannelModel channel(map, quiet_radio(), 2, 1.0, rng);
  const dtmsv::mobility::Position bs = map.base_stations()[0];
  channel.step({{bs.x + 10.0, bs.y}, {bs.x + 400.0, bs.y}});
  EXPECT_GT(channel.sample_of(0).snr_db, channel.sample_of(1).snr_db);
}

TEST(ChannelModel, AttachesToNearestBsWithoutShadowing) {
  const auto map = dtmsv::mobility::CampusMap::waterloo_campus();
  Rng rng(9);
  ChannelModel channel(map, quiet_radio(), 1, 1.0, rng);
  const auto& sites = map.base_stations();
  // Stand right next to BS 2.
  channel.step({{sites[2].x + 5.0, sites[2].y}});
  EXPECT_EQ(channel.sample_of(0).serving_bs, 2u);
}

TEST(ChannelModel, EfficiencyConsistentWithCqi) {
  const auto map = dtmsv::mobility::CampusMap::waterloo_campus();
  Rng rng(10);
  RadioConfig cfg = quiet_radio();
  ChannelModel channel(map, cfg, 1, 1.0, rng);
  channel.step({{600.0, 500.0}});
  const auto& s = channel.sample_of(0);
  CqiTable table;
  EXPECT_DOUBLE_EQ(s.efficiency_bps_hz, table.efficiency(s.snr_db));
}

TEST(ChannelModel, SampleBeforeStepRejected) {
  const auto map = dtmsv::mobility::CampusMap::waterloo_campus();
  Rng rng(11);
  ChannelModel channel(map, quiet_radio(), 1, 1.0, rng);
  EXPECT_THROW(channel.sample_of(0), PreconditionError);
}

TEST(ChannelModel, PositionCountMismatchRejected) {
  const auto map = dtmsv::mobility::CampusMap::waterloo_campus();
  Rng rng(12);
  ChannelModel channel(map, quiet_radio(), 2, 1.0, rng);
  std::vector<dtmsv::mobility::Position> wrong = {{0.0, 0.0}};
  EXPECT_THROW(channel.step(wrong), PreconditionError);
}

TEST(ChannelModel, FadingVariesOverTime) {
  const auto map = dtmsv::mobility::CampusMap::waterloo_campus();
  Rng rng(13);
  RadioConfig cfg;
  cfg.shadowing_sigma_db = 0.0;
  cfg.doppler_hz = 10.0;
  ChannelModel channel(map, cfg, 1, 1.0, rng);
  const std::vector<dtmsv::mobility::Position> pos = {{600.0, 500.0}};
  RunningStats snr;
  for (int i = 0; i < 200; ++i) {
    channel.step(pos);
    snr.add(channel.sample_of(0).snr_db);
  }
  EXPECT_GT(snr.stddev(), 0.5) << "fading should move the SNR";
}

TEST(ChannelModel, MatchesPerLinkReference) {
  // The model's definition, spelled out link by link: each (user, BS)
  // link is its own ShadowingProcess stepped by the user's displacement,
  // each user has its own RayleighFading, the strongest large-scale link
  // serves, and reset_user re-forks both from the caller's generator. The
  // channel's loop must reproduce every sample bit for bit.
  const auto map = dtmsv::mobility::CampusMap::waterloo_campus();
  const RadioConfig cfg;
  const std::size_t users = 12;
  const std::size_t sites = map.base_stations().size();
  const double tick_s = 0.5;
  Rng channel_rng(14);
  Rng reference_rng = channel_rng;
  ChannelModel channel(map, cfg, users, tick_s, channel_rng);

  std::vector<ShadowingProcess> shadowing;
  std::vector<RayleighFading> fading;
  const auto seat = [&](std::size_t u, Rng& rng) {
    for (std::size_t b = 0; b < sites; ++b) {
      shadowing[u * sites + b] = ShadowingProcess(
          cfg.shadowing_sigma_db, cfg.shadowing_decorrelation_m, rng.fork(u * 131 + b));
    }
    fading[u] = RayleighFading(cfg.doppler_hz, tick_s, rng.fork(0xFAD0 + u));
  };
  for (std::size_t u = 0; u < users; ++u) {
    for (std::size_t b = 0; b < sites; ++b) {
      shadowing.emplace_back(cfg.shadowing_sigma_db, cfg.shadowing_decorrelation_m,
                             reference_rng.fork(u * 131 + b));
    }
    fading.emplace_back(cfg.doppler_hz, tick_s, reference_rng.fork(0xFAD0 + u));
  }
  const CqiTable cqi;
  const double noise_dbm = noise_power_dbm(cfg.bandwidth_hz, cfg.noise_figure_db);

  Rng walk(15);
  std::vector<dtmsv::mobility::Position> positions(users);
  for (auto& p : positions) {
    p = map.random_position(walk);
  }
  std::vector<dtmsv::mobility::Position> last = positions;
  for (int tick = 0; tick < 200; ++tick) {
    if (tick == 100) {
      Rng handover(16);
      Rng handover_copy = handover;
      channel.reset_user(5, handover);
      seat(5, handover_copy);
    }
    for (std::size_t u = 0; u < users; ++u) {
      if (u % 4 != 0) {  // every fourth user stands still (moved = 0)
        positions[u].x += walk.uniform(-2.0, 2.0);
        positions[u].y += walk.uniform(-2.0, 2.0);
      }
    }
    channel.step(positions);
    for (std::size_t u = 0; u < users; ++u) {
      const double moved =
          tick == 0 ? 0.0 : dtmsv::mobility::distance(positions[u], last[u]);
      double best_rx_dbm = -std::numeric_limits<double>::infinity();
      std::size_t best_bs = 0;
      for (std::size_t b = 0; b < sites; ++b) {
        const double d = dtmsv::mobility::distance(positions[u], map.base_stations()[b]);
        const double rx_dbm = cfg.tx_power_dbm + cfg.antenna_gain_db -
                              cfg.path_loss.loss_db(d) -
                              shadowing[u * sites + b].step(moved);
        if (rx_dbm > best_rx_dbm) {
          best_rx_dbm = rx_dbm;
          best_bs = b;
        }
      }
      const double snr_db = best_rx_dbm + linear_to_db(fading[u].step()) - noise_dbm;
      const ChannelSample& s = channel.sample_of(u);
      ASSERT_EQ(s.serving_bs, best_bs) << "user " << u << " tick " << tick;
      ASSERT_EQ(s.snr_db, snr_db) << "user " << u << " tick " << tick;
      ASSERT_EQ(s.efficiency_bps_hz, cqi.efficiency(snr_db)) << "user " << u;
    }
    last = positions;
  }
}

TEST(ChannelModel, MatchesPerLinkReferenceAcrossBlocks) {
  // The loop steps users in blocks of 64 and 8-user packs: at 150 users the
  // last block and its last pack are partial. Every user, a handover in the
  // third block and the CQI link adaptation must still match the per-link
  // definitions bit for bit.
  const auto map = dtmsv::mobility::CampusMap::waterloo_campus();
  const RadioConfig cfg;
  const CqiTable cqi;
  const std::size_t users = 150;
  const std::size_t sites = map.base_stations().size();
  const double tick_s = 1.0;
  Rng channel_rng(24);
  Rng reference_rng = channel_rng;
  ChannelModel channel(map, cfg, users, tick_s, channel_rng);
  std::vector<ShadowingProcess> shadowing;
  std::vector<RayleighFading> fading;
  for (std::size_t u = 0; u < users; ++u) {
    for (std::size_t b = 0; b < sites; ++b) {
      shadowing.emplace_back(cfg.shadowing_sigma_db, cfg.shadowing_decorrelation_m,
                             reference_rng.fork(u * 131 + b));
    }
    fading.emplace_back(cfg.doppler_hz, tick_s, reference_rng.fork(0xFAD0 + u));
  }
  const double noise_dbm = noise_power_dbm(cfg.bandwidth_hz, cfg.noise_figure_db);

  Rng walk(25);
  std::vector<dtmsv::mobility::Position> positions(users);
  for (auto& p : positions) {
    p = map.random_position(walk);
  }
  std::vector<dtmsv::mobility::Position> last = positions;
  for (int tick = 0; tick < 40; ++tick) {
    if (tick == 20) {
      const std::size_t u = 130;
      Rng handover(26);
      channel.reset_user(u, handover);
      Rng reseat(26);
      for (std::size_t b = 0; b < sites; ++b) {
        shadowing[u * sites + b] = ShadowingProcess(
            cfg.shadowing_sigma_db, cfg.shadowing_decorrelation_m, reseat.fork(u * 131 + b));
      }
      fading[u] = RayleighFading(cfg.doppler_hz, tick_s, reseat.fork(0xFAD0 + u));
    }
    for (std::size_t u = 0; u < users; ++u) {
      if (u % 3 != 0) {
        positions[u].x += walk.uniform(-3.0, 3.0);
        positions[u].y += walk.uniform(-3.0, 3.0);
      }
    }
    channel.step(positions);
    for (std::size_t u = 0; u < users; ++u) {
      const double moved =
          tick == 0 ? 0.0 : dtmsv::mobility::distance(positions[u], last[u]);
      double best_rx_dbm = -std::numeric_limits<double>::infinity();
      std::size_t best_bs = 0;
      for (std::size_t b = 0; b < sites; ++b) {
        const double d = dtmsv::mobility::distance(positions[u], map.base_stations()[b]);
        const double rx_dbm = cfg.tx_power_dbm + cfg.antenna_gain_db -
                              cfg.path_loss.loss_db(d) -
                              shadowing[u * sites + b].step(moved);
        if (rx_dbm > best_rx_dbm) {
          best_rx_dbm = rx_dbm;
          best_bs = b;
        }
      }
      const double snr_db = best_rx_dbm + linear_to_db(fading[u].step()) - noise_dbm;
      const ChannelSample& s = channel.sample_of(u);
      ASSERT_EQ(s.serving_bs, best_bs) << "user " << u << " tick " << tick;
      ASSERT_EQ(s.snr_db, snr_db) << "user " << u << " tick " << tick;
      ASSERT_EQ(s.efficiency_bps_hz, cqi.efficiency(snr_db)) << "user " << u;
    }
    last = positions;
  }
}

// ---------------------------------------------------------------- multicast

TEST(MulticastPhy, GroupEfficiencyIsWorstMember) {
  MulticastPhy phy;
  const std::vector<double> effs = {2.0, 0.5, 3.0};
  EXPECT_DOUBLE_EQ(phy.group_efficiency(effs), 0.5);
}

TEST(MulticastPhy, FloorGuardsOutage) {
  MulticastPhy phy(0.1);
  const std::vector<double> effs = {2.0, 0.0};
  EXPECT_DOUBLE_EQ(phy.group_efficiency(effs), 0.1);
}

TEST(MulticastPhy, EmptyGroupRejected) {
  MulticastPhy phy;
  EXPECT_THROW(phy.group_efficiency({}), PreconditionError);
}

TEST(MulticastPhy, BandwidthFormula) {
  MulticastPhy phy;
  // 2 Mbps at 2 b/s/Hz → 1 MHz.
  EXPECT_DOUBLE_EQ(phy.required_bandwidth_hz(2000.0, 2.0), 1e6);
}

TEST(MulticastPhy, SustainableRungSelection) {
  MulticastPhy phy;
  const std::vector<double> ladder = {750.0, 1200.0, 1850.0, 2850.0, 4300.0};
  // 2 b/s/Hz on 1 MHz → 2000 kbps budget → rung 2 (1850).
  EXPECT_EQ(phy.sustainable_rung(ladder, 2.0, 1e6), 2u);
  // Tiny budget → lowest rung.
  EXPECT_EQ(phy.sustainable_rung(ladder, 0.1, 1e5), 0u);
  // Huge budget → top rung.
  EXPECT_EQ(phy.sustainable_rung(ladder, 5.0, 10e6), 4u);
}

// -------------------------------------------- parameterized CQI properties

class CqiSweep : public ::testing::TestWithParam<double> {};

TEST_P(CqiSweep, EfficiencyBelowShannonBound) {
  const double snr_db = GetParam();
  CqiTable table;
  const double eff = table.efficiency(snr_db);
  // Real MCS efficiency can never exceed the Shannon capacity.
  const double shannon = std::log2(1.0 + db_to_linear(snr_db));
  EXPECT_LE(eff, shannon + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(SnrGrid, CqiSweep,
                         ::testing::Values(-6.0, -3.0, 0.0, 3.0, 6.0, 9.0, 12.0,
                                           15.0, 18.0, 21.0, 24.0));

}  // namespace
