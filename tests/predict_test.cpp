// Unit tests for dtmsv::predict — per-user efficiency predictors, group
// minimum composition, the structural demand model (monotonicity and
// closed-form checks), and the series baselines.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "predict/baselines.hpp"
#include "predict/channel_predictor.hpp"
#include "predict/demand.hpp"
#include "util/error.hpp"

namespace {

using namespace dtmsv::predict;
using dtmsv::behavior::PreferenceVector;
using dtmsv::util::PreconditionError;
using dtmsv::util::Rng;
using dtmsv::video::Category;
using dtmsv::video::kCategoryCount;

using dtmsv::twin::ChannelColumn;
using dtmsv::twin::TwinColumnStore;
using dtmsv::twin::UserDigitalTwin;

/// A one-user twin store whose channel efficiency ramps from `start` by
/// `step` per second.
TwinColumnStore twin_with_efficiency_ramp(double start, double step, int samples) {
  TwinColumnStore twin(1, 2048);
  for (int t = 0; t < samples; ++t) {
    dtmsv::twin::ChannelObservation obs;
    obs.efficiency_bps_hz = start + step * t;
    obs.snr_db = 10.0;
    twin.record_channel(0, static_cast<double>(t), obs);
  }
  return twin;
}

double predict_one(const EfficiencyPredictor& pred, const TwinColumnStore& twin,
                   double now, double window_s, double fallback) {
  return pred.predict(twin.channel_column(), 0, now, window_s, fallback);
}

// -------------------------------------------------------- channel predictors

TEST(LastValuePredictor, ReturnsNewestSample) {
  const auto twin = twin_with_efficiency_ramp(1.0, 0.1, 10);
  LastValuePredictor pred;
  EXPECT_NEAR(predict_one(pred, twin, 10.0, 10.0, 0.5), 1.9, 1e-9);
}

TEST(LastValuePredictor, FallbackWhenEmpty) {
  const TwinColumnStore twin(1, 2048);
  LastValuePredictor pred;
  EXPECT_DOUBLE_EQ(predict_one(pred, twin, 10.0, 10.0, 0.7), 0.7);
}

TEST(EwmaPredictor, WeighsRecentMore) {
  const auto twin = twin_with_efficiency_ramp(1.0, 0.1, 10);
  EwmaPredictor pred(0.5);
  const double p = predict_one(pred, twin, 10.0, 10.0, 0.5);
  // Between the window mean (1.45) and the last value (1.9), nearer the last.
  EXPECT_GT(p, 1.45);
  EXPECT_LT(p, 1.9);
}

TEST(EwmaPredictor, ConstantSeriesExact) {
  const auto twin = twin_with_efficiency_ramp(2.5, 0.0, 20);
  EwmaPredictor pred(0.3);
  EXPECT_NEAR(predict_one(pred, twin, 20.0, 20.0, 0.5), 2.5, 1e-9);
}

TEST(LinearTrendPredictor, ExtrapolatesRamp) {
  // efficiency(t) = 1 + 0.1 t; horizon is measured from `now` = 10, so the
  // forecast lands at t = 15 → 1 + 0.1·15 = 2.5.
  const auto twin = twin_with_efficiency_ramp(1.0, 0.1, 10);
  LinearTrendPredictor pred(5.0);
  EXPECT_NEAR(predict_one(pred, twin, 10.0, 10.0, 0.5), 2.5, 0.05);
}

TEST(LinearTrendPredictor, ClampsNegativeForecast) {
  const auto twin = twin_with_efficiency_ramp(1.0, -0.2, 10);
  LinearTrendPredictor pred(100.0);
  EXPECT_GE(predict_one(pred, twin, 10.0, 10.0, 0.5), 0.0);
}

TEST(MeanPredictor, WindowAverage) {
  const auto twin = twin_with_efficiency_ramp(1.0, 0.1, 10);
  MeanPredictor pred;
  EXPECT_NEAR(predict_one(pred, twin, 10.0, 10.0, 0.5), 1.45, 1e-9);
}

TEST(MeanPredictor, WindowRestriction) {
  const auto twin = twin_with_efficiency_ramp(1.0, 0.1, 10);
  MeanPredictor pred;
  // Only samples t in [7, 10): 1.7, 1.8, 1.9.
  EXPECT_NEAR(predict_one(pred, twin, 10.0, 3.0, 0.5), 1.8, 1e-9);
}

// Verbatim copies of the per-member predictors as they read a materialised
// window (oldest first) before they walked the channel column, as
// bit-identity oracles for the column walk.
//
// The oracles read the window from a std::deque, which the compiler does
// not vectorise, just as it does not vectorise the ring walk. Over a
// contiguous vector, GCC vectorises the trend's sums on AVX-512: the vector
// body rounds each product before adding it, and only the scalar tail fuses
// the multiply-add. The trend's last bits then depend on the window length,
// and the column walk, which fuses every product alike, differs from that
// in the last ulps (TrendOverAVectorDiffersOnlyInTheLastBits).

struct WindowSample {
  double time;
  dtmsv::twin::ChannelObservation value;
};

/// User `u`'s retained samples with time in [from, to), oldest first, by a
/// walk over the whole ring.
template <typename Window = std::deque<WindowSample>>
Window window_of(const ChannelColumn& column, std::size_t u, double from, double to) {
  Window out;
  for (std::size_t i = 0; i < column.size(u); ++i) {
    const double t = column.time(u, i);
    if (t >= from && t < to) {
      out.push_back({t, column.get(u, i)});
    }
  }
  return out;
}

template <typename Window>
double oracle_last_value(const Window& window, double fallback) {
  if (window.empty()) {
    return fallback;
  }
  return std::max(0.0, window.back().value.efficiency_bps_hz);
}

template <typename Window>
double oracle_ewma(const Window& window, double alpha,
                   double fallback) {
  if (window.empty()) {
    return fallback;
  }
  double value = window.front().value.efficiency_bps_hz;
  for (std::size_t i = 1; i < window.size(); ++i) {
    value = alpha * window[i].value.efficiency_bps_hz + (1.0 - alpha) * value;
  }
  return std::max(0.0, value);
}

template <typename Window>
double oracle_linear_trend(const Window& window, double now,
                           double horizon_s, double fallback) {
  if (window.empty()) {
    return fallback;
  }
  if (window.size() < 3) {
    return std::max(0.0, window.back().value.efficiency_bps_hz);
  }
  double sx = 0.0;
  double sy = 0.0;
  double sxx = 0.0;
  double sxy = 0.0;
  const auto n = static_cast<double>(window.size());
  for (const auto& s : window) {
    const double x = s.time - now;
    const double y = s.value.efficiency_bps_hz;
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double denom = n * sxx - sx * sx;
  if (std::abs(denom) < 1e-12) {
    return std::max(0.0, sy / n);
  }
  const double slope = (n * sxy - sx * sy) / denom;
  const double intercept = (sy - slope * sx) / n;
  return std::max(0.0, intercept + slope * horizon_s);
}

template <typename Window>
double oracle_mean(const Window& window, double fallback) {
  if (window.empty()) {
    return fallback;
  }
  double total = 0.0;
  for (const auto& s : window) {
    total += s.value.efficiency_bps_hz;
  }
  return std::max(0.0, total / static_cast<double>(window.size()));
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

/// Every predictor against its oracle on user 1 of `column`, over windows
/// ending at, between and past each retained sample time, from empty (a
/// zero-length window) to one covering the whole ring. Returns how many
/// windows held 0, 1-2 and >= 3 samples.
std::array<std::size_t, 3> expect_predictors_match_oracles(const ChannelColumn& column) {
  const LastValuePredictor last_value;
  const EwmaPredictor ewma_default;
  const EwmaPredictor ewma_half(0.5);
  const LinearTrendPredictor trend_default;
  const LinearTrendPredictor trend_short(5.0);
  const MeanPredictor mean;
  constexpr double kFallback = 0.625;
  std::array<std::size_t, 3> shapes{};
  std::vector<double> nows;
  for (std::size_t i = 0; i < column.size(1); ++i) {
    const double t = column.time(1, i);
    nows.insert(nows.end(), {t, t + 0.25, t + 1.0});
  }
  nows.push_back(1e6);
  for (const double now : nows) {
    for (const double window_s : {0.0, 0.5, 1.0, 2.5, 7.0, 40.0, 1e7}) {
      SCOPED_TRACE("now " + std::to_string(now) + " window " + std::to_string(window_s));
      const auto window = window_of(column, 1, now - window_s, now);
      ++shapes[window.empty() ? 0 : window.size() < 3 ? 1 : 2];
      const auto predict = [&](const EfficiencyPredictor& p) {
        return p.predict(column, 1, now, window_s, kFallback);
      };
      EXPECT_TRUE(same_bits(predict(last_value), oracle_last_value(window, kFallback)));
      EXPECT_TRUE(same_bits(predict(ewma_default), oracle_ewma(window, 0.3, kFallback)));
      EXPECT_TRUE(same_bits(predict(ewma_half), oracle_ewma(window, 0.5, kFallback)));
      EXPECT_TRUE(same_bits(predict(trend_default),
                            oracle_linear_trend(window, now, 150.0, kFallback)));
      EXPECT_TRUE(same_bits(predict(trend_short),
                            oracle_linear_trend(window, now, 5.0, kFallback)));
      EXPECT_TRUE(same_bits(predict(mean), oracle_mean(window, kFallback)));
    }
  }
  return shapes;
}

/// Records `times` for user 1, with efficiencies that wander, and one
/// sample each for users 0 and 2 so a walk that leaves its stride shows.
void record_channel_stream(ChannelColumn& column, const std::vector<double>& times) {
  Rng rng(77);
  column.record(0, 0.5, {1.0, 9.0, 0});
  for (const double t : times) {
    column.record(1, t, {rng.uniform(-10.0, 30.0), rng.uniform(0.0, 6.0), 1});
  }
  column.record(2, 0.5, {1.0, 9.0, 0});
}

TEST(PerMemberPredictors, ColumnWalkMatchesWindowVectorOnEveryRingShape) {
  // Duplicate times (bursts), gaps and one run of equal times long enough
  // to make the trend's denominator vanish.
  std::vector<double> times;
  for (int i = 0; i < 40; ++i) {
    times.push_back(0.5 * i - (i % 4 == 1 ? 0.5 : 0.0));
  }
  times.insert(times.end(), {20.0, 20.0, 20.0, 20.0, 23.0, 31.5, 31.5});
  std::array<std::size_t, 3> shapes{};
  const auto tally = [&](const std::array<std::size_t, 3>& s) {
    for (std::size_t k = 0; k < 3; ++k) {
      shapes[k] += s[k];
    }
  };
  {
    SCOPED_TRACE("fixed ring, partly filled");
    ChannelColumn column(3, 64);
    record_channel_stream(column, times);
    ASSERT_FALSE(column.truncated_before(1, -1e9));
    tally(expect_predictors_match_oracles(column));
  }
  {
    SCOPED_TRACE("fixed ring, wrapped and evicting");
    ChannelColumn column(3, 13);
    record_channel_stream(column, times);
    ASSERT_TRUE(column.truncated_before(1, 0.0));
    tally(expect_predictors_match_oracles(column));
  }
  {
    SCOPED_TRACE("ring retaining 6 s, grown and evicting");
    ChannelColumn column(3, 4, 6.0);
    record_channel_stream(column, times);
    ASSERT_GT(column.capacity(), 4u);
    ASSERT_TRUE(column.truncated_before(1, 0.0));
    tally(expect_predictors_match_oracles(column));
  }
  {
    SCOPED_TRACE("empty ring");
    ChannelColumn column(3, 8);
    record_channel_stream(column, {});
    tally(expect_predictors_match_oracles(column));
  }
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_GT(shapes[k], 10u) << "window shape " << k << " barely probed";
  }
}

TEST(PerMemberPredictors, TrendOverAVectorDiffersOnlyInTheLastBits) {
  ChannelColumn column(3, 64);
  std::vector<double> times;
  for (int i = 0; i < 60; ++i) {
    times.push_back(0.5 * i);
  }
  record_channel_stream(column, times);
  const LinearTrendPredictor trend;
  for (const double now : {3.0, 7.25, 12.5, 30.0}) {
    for (const double window_s : {2.0, 5.5, 9.0, 30.0}) {
      const auto window =
          window_of<std::vector<WindowSample>>(column, 1, now - window_s, now);
      const double want = oracle_linear_trend(window, now, 150.0, 0.625);
      EXPECT_NEAR(trend.predict(column, 1, now, window_s, 0.625), want,
                  1e-12 * std::max(1.0, std::abs(want)))
          << "now " << now << " window " << window_s;
    }
  }
}

TEST(PerMemberPredictors, RejectNegativeWindowAndForeignUser) {
  const auto twin = twin_with_efficiency_ramp(1.0, 0.1, 10);
  const MeanPredictor pred;
  EXPECT_THROW(predict_one(pred, twin, 10.0, -1.0, 0.5), PreconditionError);
  EXPECT_THROW(pred.predict(twin.channel_column(), 1, 10.0, 5.0, 0.5), PreconditionError);
}

TEST(GroupEfficiency, TakesWorstMember) {
  const auto strong = twin_with_efficiency_ramp(4.0, 0.0, 5);
  const auto weak = twin_with_efficiency_ramp(0.8, 0.0, 5);
  const UserDigitalTwin strong_twin(&strong, 0);
  const UserDigitalTwin weak_twin(&weak, 0);
  MeanPredictor pred;
  const double eff =
      predict_group_efficiency({&strong_twin, &weak_twin}, pred, 5.0, 5.0, 0.05);
  EXPECT_NEAR(eff, 0.8, 1e-9);
}

TEST(GroupEfficiency, FloorApplied) {
  const auto outage = twin_with_efficiency_ramp(0.0, 0.0, 5);
  const UserDigitalTwin outage_twin(&outage, 0);
  MeanPredictor pred;
  const double eff = predict_group_efficiency({&outage_twin}, pred, 5.0, 5.0, 0.05);
  EXPECT_DOUBLE_EQ(eff, 0.05);
}

TEST(GroupEfficiency, EmptyGroupRejected) {
  MeanPredictor pred;
  EXPECT_THROW(predict_group_efficiency({}, pred, 5.0, 5.0, 0.05),
               PreconditionError);
}

TEST(GroupEfficiencyJoint, ConstantMembersGiveMin) {
  const auto a = twin_with_efficiency_ramp(3.0, 0.0, 10);
  const auto b = twin_with_efficiency_ramp(1.5, 0.0, 10);
  const UserDigitalTwin a_twin(&a, 0);
  const UserDigitalTwin b_twin(&b, 0);
  const double eff = forecast_group_channel({&a_twin, &b_twin}, 10.0, 10.0, 0.05).efficiency;
  EXPECT_NEAR(eff, 1.5, 1e-9);
}

TEST(GroupEfficiencyJoint, HarmonicMeanOfAlternatingSeries) {
  // One member alternates 1 and 3 each second: harmonic mean = 2/(1+1/3) = 1.5.
  TwinColumnStore store(1, 2048);
  for (int t = 0; t < 10; ++t) {
    dtmsv::twin::ChannelObservation obs;
    obs.efficiency_bps_hz = (t % 2 == 0) ? 1.0 : 3.0;
    store.record_channel(0, static_cast<double>(t), obs);
  }
  const UserDigitalTwin twin(&store, 0);
  const double eff = forecast_group_channel({&twin}, 10.0, 10.0, 0.05).efficiency;
  EXPECT_NEAR(eff, 1.5, 1e-9);
}

TEST(GroupEfficiencyJoint, BelowMinOfMeansForFluctuatingMembers) {
  // Two members fade out of phase: min-series is 1 everywhere, while each
  // member's own mean is 2 — the joint estimate must catch the min bias.
  TwinColumnStore store(2, 2048);
  for (int t = 0; t < 10; ++t) {
    dtmsv::twin::ChannelObservation oa;
    dtmsv::twin::ChannelObservation ob;
    oa.efficiency_bps_hz = (t % 2 == 0) ? 1.0 : 3.0;
    ob.efficiency_bps_hz = (t % 2 == 0) ? 3.0 : 1.0;
    store.record_channel(0, static_cast<double>(t), oa);
    store.record_channel(1, static_cast<double>(t), ob);
  }
  const UserDigitalTwin a(&store, 0);
  const UserDigitalTwin b(&store, 1);
  const double joint = forecast_group_channel({&a, &b}, 10.0, 10.0, 0.05).efficiency;
  EXPECT_NEAR(joint, 1.0, 1e-9);
  MeanPredictor pred;
  const double naive = predict_group_efficiency({&a, &b}, pred, 10.0, 10.0, 0.05);
  EXPECT_NEAR(naive, 2.0, 1e-9);
  EXPECT_LT(joint, naive);
}

TEST(GroupEfficiencyJoint, HoldsThroughMissingSamples) {
  // Sparse reports (loss): gaps are held from the last sample.
  TwinColumnStore store(1, 2048);
  dtmsv::twin::ChannelObservation obs;
  obs.efficiency_bps_hz = 2.0;
  store.record_channel(0, 1.0, obs);  // only one report in a 10-s window
  const UserDigitalTwin twin(&store, 0);
  const double eff = forecast_group_channel({&twin}, 10.0, 10.0, 0.05).efficiency;
  EXPECT_NEAR(eff, 2.0, 1e-9);
}

TEST(GroupEfficiencyJoint, EmptyHistoryFallsToFloor) {
  const TwinColumnStore store(1, 2048);
  const UserDigitalTwin twin(&store, 0);
  const double eff = forecast_group_channel({&twin}, 10.0, 10.0, 0.05).efficiency;
  EXPECT_DOUBLE_EQ(eff, 0.05);
}

// ------------------------------------------------------------- ContentStats

TEST(ContentStats, FromCatalogMeans) {
  Rng rng(1);
  dtmsv::video::CatalogConfig cfg;
  cfg.videos_per_category = 100;
  cfg.min_duration_s = 10.0;
  cfg.max_duration_s = 10.0;  // degenerate: every clip exactly 10 s
  const auto catalog = dtmsv::video::Catalog::generate(cfg, rng);
  const ContentStats stats = ContentStats::from_catalog(catalog);
  for (const double d : stats.mean_duration_s) {
    EXPECT_NEAR(d, 10.0, 1e-9);
  }
  EXPECT_EQ(stats.ladder_kbps.size(), 5u);
}

// ------------------------------------------------------ predict_group_demand

struct DemandFixture {
  dtmsv::analysis::SwipingDistribution swiping;
  ContentStats content;
  DemandModelConfig config;
  PreferenceVector mix{};
  std::array<std::size_t, kCategoryCount> playlist{};

  DemandFixture() {
    // Uniform mid-watch behaviour.
    Rng rng(2);
    for (int i = 0; i < 2000; ++i) {
      for (const Category c : dtmsv::video::all_categories()) {
        swiping.observe(c, rng.beta(2.0, 2.0));
      }
    }
    content.mean_duration_s.fill(15.0);
    content.ladder_kbps = {750.0, 1200.0, 1850.0, 2850.0, 4300.0};
    mix.fill(1.0 / kCategoryCount);
    playlist.fill(5);
  }
};

TEST(PredictGroupDemand, PositiveAndFinite) {
  DemandFixture fx;
  const ResourceDemand d = predict_group_demand(10, fx.mix, fx.swiping, 2.0,
                                                fx.playlist, fx.content, fx.config);
  EXPECT_GT(d.radio_hz, 0.0);
  EXPECT_TRUE(std::isfinite(d.radio_hz));
  EXPECT_GT(d.transmitted_bits, 0.0);
  EXPECT_GT(d.distinct_videos, 0.0);
  EXPECT_GT(d.expected_views, d.distinct_videos);  // views = videos × members
}

TEST(PredictGroupDemand, RadioDemandDecreasesWithEfficiency) {
  DemandFixture fx;
  const ResourceDemand lo = predict_group_demand(10, fx.mix, fx.swiping, 0.5,
                                                 fx.playlist, fx.content, fx.config);
  const ResourceDemand hi = predict_group_demand(10, fx.mix, fx.swiping, 4.0,
                                                 fx.playlist, fx.content, fx.config);
  // Higher efficiency → either same bits over more capacity, or a higher
  // rung; per-Hz demand must not increase.
  EXPECT_LT(hi.radio_hz, lo.radio_hz * 1.5);
  EXPECT_GE(hi.rung, lo.rung);
}

TEST(PredictGroupDemand, RungSelectionFollowsBudget) {
  DemandFixture fx;
  fx.config.group_bandwidth_budget_hz = 1e6;
  // 0.5 b/s/Hz on 1 MHz → 500 kbps budget → rung 0.
  const ResourceDemand low = predict_group_demand(5, fx.mix, fx.swiping, 0.5,
                                                  fx.playlist, fx.content, fx.config);
  EXPECT_EQ(low.rung, 0u);
  // 5 b/s/Hz on 1 MHz → 5000 kbps → top rung.
  const ResourceDemand high = predict_group_demand(5, fx.mix, fx.swiping, 5.0,
                                                   fx.playlist, fx.content, fx.config);
  EXPECT_EQ(high.rung, 4u);
}

TEST(PredictGroupDemand, TopRungNeedsNoTranscode) {
  DemandFixture fx;
  fx.config.group_bandwidth_budget_hz = 100e6;
  const ResourceDemand d = predict_group_demand(5, fx.mix, fx.swiping, 5.0,
                                                fx.playlist, fx.content, fx.config);
  EXPECT_EQ(d.rung, 4u);
  EXPECT_DOUBLE_EQ(d.compute_cycles, 0.0);

  fx.config.group_bandwidth_budget_hz = 1e6;
  const ResourceDemand low = predict_group_demand(5, fx.mix, fx.swiping, 0.5,
                                                  fx.playlist, fx.content, fx.config);
  EXPECT_GT(low.compute_cycles, 0.0);
}

TEST(PredictGroupDemand, OnAirTimeGrowsWithGroupSize) {
  DemandFixture fx;
  const ResourceDemand small = predict_group_demand(2, fx.mix, fx.swiping, 2.0,
                                                    fx.playlist, fx.content, fx.config);
  const ResourceDemand large = predict_group_demand(50, fx.mix, fx.swiping, 2.0,
                                                    fx.playlist, fx.content, fx.config);
  // Larger groups keep clips on air longer (E[max watch] grows), so fewer
  // clips play but each transmits longer; total bits must grow.
  EXPECT_GT(large.transmitted_bits, small.transmitted_bits * 0.99);
  EXPECT_LE(large.distinct_videos, small.distinct_videos + 1e-9);
}

TEST(PredictGroupDemand, MixFallsBackToPreferenceWhenPlaylistEmpty) {
  DemandFixture fx;
  fx.playlist.fill(0);
  PreferenceVector news{};
  news[static_cast<std::size_t>(Category::kNews)] = 1.0;
  const ResourceDemand d = predict_group_demand(5, news, fx.swiping, 2.0,
                                                fx.playlist, fx.content, fx.config);
  EXPECT_GT(d.radio_hz, 0.0);
}

TEST(PredictGroupDemand, InvalidInputsRejected) {
  DemandFixture fx;
  EXPECT_THROW(predict_group_demand(0, fx.mix, fx.swiping, 2.0, fx.playlist,
                                    fx.content, fx.config),
               PreconditionError);
}

TEST(PredictGroupDemand, ForecastOverloadMatchesScalarForSingleBin) {
  DemandFixture fx;
  GroupChannelForecast forecast;
  forecast.efficiency = 2.0;
  forecast.min_series = {2.0};
  const ResourceDemand via_forecast = predict_group_demand(
      10, fx.mix, fx.swiping, forecast, fx.playlist, fx.content, fx.config);
  const ResourceDemand via_scalar = predict_group_demand(
      10, fx.mix, fx.swiping, 2.0, fx.playlist, fx.content, fx.config);
  EXPECT_DOUBLE_EQ(via_forecast.radio_hz, via_scalar.radio_hz);
  EXPECT_DOUBLE_EQ(via_forecast.compute_cycles, via_scalar.compute_cycles);
  EXPECT_EQ(via_forecast.rung, via_scalar.rung);
}

TEST(PredictGroupDemand, RungMixturePredictsPartialTranscode) {
  DemandFixture fx;
  fx.content.ladder_scale_quantiles = {1.0};
  fx.config.group_bandwidth_budget_hz = 1e6;
  // Half the bins at the top rung (eff 5 → 5000 kbps budget), half at a
  // lower rung (eff 2 → 2000 kbps): compute demand is the lower-rung share.
  GroupChannelForecast mixed;
  mixed.min_series = {5.0, 5.0, 2.0, 2.0};
  mixed.efficiency = 4.0 / (1.0 / 5.0 + 1.0 / 5.0 + 1.0 / 2.0 + 1.0 / 2.0);
  const ResourceDemand d = predict_group_demand(10, fx.mix, fx.swiping, mixed,
                                                fx.playlist, fx.content, fx.config);
  EXPECT_GT(d.compute_cycles, 0.0);
  // Pure top-rung forecast has zero compute; pure low has full. Mixed sits
  // strictly between.
  GroupChannelForecast top;
  top.min_series = {5.0, 5.0};
  top.efficiency = 5.0;
  GroupChannelForecast low;
  low.min_series = {2.0, 2.0};
  low.efficiency = 2.0;
  const ResourceDemand d_top = predict_group_demand(10, fx.mix, fx.swiping, top,
                                                    fx.playlist, fx.content, fx.config);
  const ResourceDemand d_low = predict_group_demand(10, fx.mix, fx.swiping, low,
                                                    fx.playlist, fx.content, fx.config);
  EXPECT_DOUBLE_EQ(d_top.compute_cycles, 0.0);
  EXPECT_GT(d_low.compute_cycles, d.compute_cycles);
}

TEST(PredictGroupDemand, LadderScaleQuantilesSoftenRungBoundaries) {
  DemandFixture fx;
  fx.config.group_bandwidth_budget_hz = 1e6;
  GroupChannelForecast forecast;
  // Budget sits exactly at the top rung (4300 kbps at eff 4.3): without
  // jitter everything lands on the top rung; with the catalog's scale
  // spread some videos need transcoding.
  forecast.min_series = {4.3};
  forecast.efficiency = 4.3;
  fx.content.ladder_scale_quantiles = {1.0};
  const ResourceDemand sharp = predict_group_demand(10, fx.mix, fx.swiping, forecast,
                                                    fx.playlist, fx.content, fx.config);
  fx.content.ladder_scale_quantiles = {0.9, 1.0, 1.1};
  const ResourceDemand soft = predict_group_demand(10, fx.mix, fx.swiping, forecast,
                                                   fx.playlist, fx.content, fx.config);
  EXPECT_DOUBLE_EQ(sharp.compute_cycles, 0.0);
  EXPECT_GT(soft.compute_cycles, 0.0);
}

TEST(PredictGroupDemand, EmptyForecastRejected) {
  DemandFixture fx;
  GroupChannelForecast empty;
  empty.min_series.clear();
  EXPECT_THROW(predict_group_demand(10, fx.mix, fx.swiping, empty, fx.playlist,
                                    fx.content, fx.config),
               PreconditionError);
}

TEST(ResourceDemand, AccumulationOperator) {
  ResourceDemand a;
  a.radio_hz = 1.0;
  a.compute_cycles = 10.0;
  a.rung = 2;
  ResourceDemand b;
  b.radio_hz = 2.0;
  b.compute_cycles = 5.0;
  b.rung = 1;
  a += b;
  EXPECT_DOUBLE_EQ(a.radio_hz, 3.0);
  EXPECT_DOUBLE_EQ(a.compute_cycles, 15.0);
  EXPECT_EQ(a.rung, 2u);
}

// ----------------------------------------------------------- series baselines

TEST(LastValueSeries, ForecastsPrevious) {
  LastValueSeries s;
  EXPECT_DOUBLE_EQ(s.forecast(3.0), 3.0);
  s.observe(10.0);
  EXPECT_DOUBLE_EQ(s.forecast(0.0), 10.0);
  s.observe(20.0);
  EXPECT_DOUBLE_EQ(s.forecast(0.0), 20.0);
}

TEST(EwmaSeries, Smooths) {
  EwmaSeries s(0.5);
  s.observe(0.0);
  s.observe(10.0);
  EXPECT_DOUBLE_EQ(s.forecast(0.0), 5.0);
}

TEST(MovingAverageSeries, SlidingWindow) {
  MovingAverageSeries s(3);
  s.observe(1.0);
  s.observe(2.0);
  s.observe(3.0);
  EXPECT_DOUBLE_EQ(s.forecast(0.0), 2.0);
  s.observe(7.0);  // window now {2,3,7}
  EXPECT_DOUBLE_EQ(s.forecast(0.0), 4.0);
}

TEST(Ar1Series, LearnsLinearRecursion) {
  // x_{t+1} = 0.8 x_t + 2; fixed point 10.
  Ar1Series s(12);
  double x = 0.0;
  for (int i = 0; i < 12; ++i) {
    s.observe(x);
    x = 0.8 * x + 2.0;
  }
  const double forecast = s.forecast(0.0);
  EXPECT_NEAR(forecast, x, 0.2);
}

TEST(Ar1Series, ShortHistoryFallsBackToLast) {
  Ar1Series s(10);
  s.observe(5.0);
  EXPECT_DOUBLE_EQ(s.forecast(0.0), 5.0);
  s.observe(6.0);
  EXPECT_DOUBLE_EQ(s.forecast(0.0), 6.0);
}

TEST(SeriesBaselines, NamesDistinct) {
  LastValueSeries a;
  EwmaSeries b;
  MovingAverageSeries c;
  Ar1Series d;
  EXPECT_NE(a.name(), b.name());
  EXPECT_NE(b.name(), c.name());
  EXPECT_NE(c.name(), d.name());
}

}  // namespace
