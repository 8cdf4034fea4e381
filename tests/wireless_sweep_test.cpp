// Parameterized sweeps over the radio substrate: analytic path-loss grid,
// per-entry CQI table verification against 3GPP efficiencies, noise-floor
// arithmetic across bandwidths, and end-to-end SNR plausibility.
#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"
#include "wireless/channel.hpp"
#include "wireless/cqi.hpp"
#include "wireless/pathloss.hpp"

namespace {

using namespace dtmsv::wireless;
using dtmsv::util::Rng;

// --------------------------------------------- path loss analytic grid

struct PathLossCase {
  double distance_m;
  double exponent;
};

class PathLossGrid : public ::testing::TestWithParam<PathLossCase> {};

TEST_P(PathLossGrid, MatchesClosedForm) {
  const auto c = GetParam();
  PathLossModel model;
  model.pl_ref_db = 38.0;
  model.reference_m = 1.0;
  model.exponent = c.exponent;
  const double expected = 38.0 + 10.0 * c.exponent * std::log10(c.distance_m);
  EXPECT_NEAR(model.loss_db(c.distance_m), expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PathLossGrid,
    ::testing::Values(PathLossCase{10.0, 2.0}, PathLossCase{10.0, 3.5},
                      PathLossCase{100.0, 2.0}, PathLossCase{100.0, 3.2},
                      PathLossCase{550.0, 3.2}, PathLossCase{1000.0, 4.0}));

// --------------------------------------------- CQI table per entry

struct CqiEntryCase {
  std::size_t cqi;
  double efficiency;  // 3GPP 36.213 Table 7.2.3-1
};

class CqiEntrySweep : public ::testing::TestWithParam<CqiEntryCase> {};

TEST_P(CqiEntrySweep, EfficiencyMatches3gppTable) {
  const auto c = GetParam();
  CqiTable table;
  EXPECT_NEAR(table.entry(c.cqi).efficiency, c.efficiency, 1e-4);
  // Evaluating exactly at the threshold returns at least this CQI.
  const double snr = table.entry(c.cqi).min_snr_db;
  EXPECT_GE(table.cqi_for_snr(snr), c.cqi);
}

INSTANTIATE_TEST_SUITE_P(Entries, CqiEntrySweep,
                         ::testing::Values(CqiEntryCase{1, 0.1523},
                                           CqiEntryCase{4, 0.6016},
                                           CqiEntryCase{7, 1.4766},
                                           CqiEntryCase{10, 2.7305},
                                           CqiEntryCase{13, 4.5234},
                                           CqiEntryCase{15, 5.5547}));

// --------------------------------------------- noise floor sweep

class NoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(NoiseSweep, ScalesWithLogBandwidth) {
  const double bw = GetParam();
  const double nf = 7.0;
  EXPECT_NEAR(noise_power_dbm(bw, nf), -174.0 + 10.0 * std::log10(bw) + nf, 1e-9);
  // Doubling the bandwidth adds exactly 3.0103 dB.
  EXPECT_NEAR(noise_power_dbm(2.0 * bw, nf) - noise_power_dbm(bw, nf),
              10.0 * std::log10(2.0), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, NoiseSweep,
                         ::testing::Values(180e3, 1.4e6, 5e6, 10e6, 20e6));

// --------------------------------------------- end-to-end SNR plausibility

struct SnrCase {
  double distance_m;
  double min_snr_db;
  double max_snr_db;
};

class SnrPlausibility : public ::testing::TestWithParam<SnrCase> {};

TEST_P(SnrPlausibility, MedianSnrInPlausibleBand) {
  // Deterministic large-scale check: no shadowing, frozen fading; the SNR
  // at a given distance must sit in the engineering-plausible band for a
  // 43 dBm macro cell.
  const auto c = GetParam();
  const auto map = dtmsv::mobility::CampusMap::grid(40, 2, 100.0);
  RadioConfig cfg;
  cfg.shadowing_sigma_db = 0.0;
  cfg.doppler_hz = 0.0;
  Rng rng(13);
  ChannelModel channel(map, cfg, 1, 1.0, rng);
  const auto bs = map.base_stations()[0];
  // Average the frozen fading out by sampling several independent channels.
  double total = 0.0;
  const int trials = 32;
  for (int i = 0; i < trials; ++i) {
    Rng trial_rng(static_cast<std::uint64_t>(i) + 100);
    ChannelModel trial(map, cfg, 1, 1.0, trial_rng);
    trial.step({{bs.x + c.distance_m, bs.y}});
    total += trial.sample_of(0).snr_db;
  }
  const double mean_snr = total / trials;
  EXPECT_GE(mean_snr, c.min_snr_db) << "at " << c.distance_m << " m";
  EXPECT_LE(mean_snr, c.max_snr_db) << "at " << c.distance_m << " m";
}

INSTANTIATE_TEST_SUITE_P(Distances, SnrPlausibility,
                         ::testing::Values(SnrCase{30.0, 25.0, 75.0},
                                           SnrCase{150.0, 10.0, 55.0},
                                           SnrCase{600.0, -10.0, 35.0}));

}  // namespace
