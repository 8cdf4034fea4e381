// Tests for the scenario library: all four named workloads run end-to-end
// at smoke size under ctest, with the kind-specific dynamics observable in
// the results.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/scenarios.hpp"

namespace {

using namespace dtmsv;
using core::ScenarioConfig;
using core::ScenarioKind;
using core::ScenarioResult;

/// Shrinks a canonical scenario to ctest smoke size.
ScenarioConfig smoke(ScenarioKind kind, std::uint64_t seed = 42) {
  ScenarioConfig cfg = core::make_scenario(kind, /*total_users=*/36,
                                           /*cell_count=*/2, seed);
  cfg.intervals = 4;
  cfg.base.interval_s = 30.0;
  cfg.base.feature_window_s = 60.0;
  cfg.base.session.engagement.catalog.videos_per_category = 30;
  cfg.base.grouping.k_max = 4;
  cfg.base.grouping.ddqn.hidden = {16};
  cfg.surge_interval = 2;
  return cfg;
}

TEST(Scenarios, NamesAreDistinct) {
  std::set<std::string> names;
  for (const ScenarioKind kind : core::all_scenarios()) {
    names.insert(core::to_string(kind));
  }
  EXPECT_EQ(names.size(), core::kScenarioKindCount);
}

TEST(Scenarios, AllKindsRunAtSmokeSize) {
  for (const ScenarioKind kind : core::all_scenarios()) {
    const ScenarioResult result = run_scenario(smoke(kind));
    ASSERT_EQ(result.reports.size(), 4u) << core::to_string(kind);
    // Warm-up over, every interval afterwards predicts and plays.
    const auto& last = result.reports.back();
    EXPECT_GT(last.grouped_shards, 0u) << core::to_string(kind);
    EXPECT_GT(last.actual_radio_hz_total, 0.0) << core::to_string(kind);
    EXPECT_TRUE(std::isfinite(last.predicted_radio_hz_total));
    EXPECT_GE(result.radio_accuracy, 0.0);
    EXPECT_LE(result.radio_accuracy, 1.0);
    EXPECT_GE(result.compute_accuracy, 0.0);
    EXPECT_LE(result.compute_accuracy, 1.0);
  }
}

TEST(Scenarios, FlashCrowdGrowsThePopulation) {
  const ScenarioConfig cfg = smoke(ScenarioKind::kFlashCrowd);
  const ScenarioResult result = run_scenario(cfg);
  const std::size_t surge = static_cast<std::size_t>(
      std::llround(cfg.surge_fraction * static_cast<double>(cfg.total_users)));
  EXPECT_EQ(result.peak_users, cfg.total_users + surge);
  // Before the surge: the base population only.
  EXPECT_EQ(result.reports[cfg.surge_interval - 1].user_count, cfg.total_users);
  // From the surge interval on: the crowd is present, attached to its cell.
  const auto& surged = result.reports[cfg.surge_interval];
  EXPECT_EQ(surged.user_count, cfg.total_users + surge);
  EXPECT_EQ(surged.shards.back().cell, cfg.surge_cell);
  // The surge demand becomes visible once the new shard finishes warm-up.
  EXPECT_GT(result.reports.back().grouped_shards,
            result.reports[cfg.surge_interval].grouped_shards);
}

TEST(Scenarios, MobilityChurnHandsUsersOver) {
  const ScenarioResult result = run_scenario(smoke(ScenarioKind::kMobilityChurn));
  EXPECT_GT(result.handovers, 0u);
  EXPECT_EQ(result.peak_users, 36u);  // churn moves users, never adds them
}

TEST(Scenarios, CatalogDriftConfiguresNonStationarity) {
  const ScenarioConfig cfg = smoke(ScenarioKind::kCatalogDrift);
  EXPECT_GT(cfg.base.affinity_drift_rate, 0.0);
  EXPECT_LT(cfg.base.popularity_forgetting, 0.8);
  const ScenarioResult result = run_scenario(cfg);
  EXPECT_GT(result.reports.back().actual_radio_hz_total, 0.0);
}

TEST(Scenarios, StreamsToReportSink) {
  // The scenario runner forwards the full report stream: one on_interval
  // per shard per interval, on_group for every scored group, and
  // on_handover for every churn swap.
  const ScenarioConfig cfg = smoke(ScenarioKind::kMobilityChurn);
  core::CollectingSink sink;
  const ScenarioResult result = core::run_scenario(cfg, &sink);

  std::size_t shard_intervals = 0;
  for (const auto& r : result.reports) {
    shard_intervals += r.shards.size();
  }
  EXPECT_EQ(sink.reports.size(), shard_intervals);
  EXPECT_GT(sink.groups.size(), 0u);
  EXPECT_EQ(sink.handovers.size(), result.handovers / 2);  // one event per swap

  // The streamed per-shard totals reproduce the aggregated fleet totals.
  double streamed_actual = 0.0;
  for (const auto& r : sink.reports) {
    streamed_actual += r.actual_radio_hz_total;
  }
  double fleet_actual = 0.0;
  for (const auto& r : result.reports) {
    fleet_actual += r.actual_radio_hz_total;
  }
  EXPECT_DOUBLE_EQ(streamed_actual, fleet_actual);
}

TEST(Scenarios, DeterministicPerSeed) {
  for (const ScenarioKind kind :
       {ScenarioKind::kFlashCrowd, ScenarioKind::kMobilityChurn}) {
    const ScenarioResult a = run_scenario(smoke(kind, 9));
    const ScenarioResult b = run_scenario(smoke(kind, 9));
    ASSERT_EQ(a.reports.size(), b.reports.size());
    for (std::size_t i = 0; i < a.reports.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.reports[i].actual_radio_hz_total,
                       b.reports[i].actual_radio_hz_total);
      EXPECT_DOUBLE_EQ(a.reports[i].predicted_radio_hz_total,
                       b.reports[i].predicted_radio_hz_total);
    }
    EXPECT_EQ(a.handovers, b.handovers);
  }
}

}  // namespace
