// Second-wave edge-case tests across modules: boundary geometries, extreme
// configurations, and behaviours the first-wave unit tests did not pin down.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "analysis/recommend.hpp"
#include "analysis/swiping.hpp"
#include "behavior/session.hpp"
#include "clustering/kmeans.hpp"
#include "core/feature_compressor.hpp"
#include "core/fleet.hpp"
#include "core/group_constructor.hpp"
#include "core/scenarios.hpp"
#include "core/serve_workload.hpp"
#include "core/simulation.hpp"
#include "twin/arena.hpp"
#include "twin/column_store.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "video/catalog.hpp"
#include "wireless/channel.hpp"
#include "wireless/fading.hpp"
#include "wireless/multicast.hpp"

namespace {

using namespace dtmsv;
using util::PreconditionError;
using util::Rng;

// ------------------------------------------------------- fading dynamics

TEST(FadingDynamics, HighDopplerDecorrelatesFaster) {
  const auto lag1_corr = [](double doppler) {
    wireless::RayleighFading fading(doppler, 1.0, Rng(4));
    std::vector<double> xs;
    std::vector<double> ys;
    double prev = fading.step();
    for (int i = 0; i < 20000; ++i) {
      const double next = fading.step();
      xs.push_back(prev);
      ys.push_back(next);
      prev = next;
    }
    return util::pearson(xs, ys);
  };
  EXPECT_GT(lag1_corr(0.5), lag1_corr(50.0) + 0.2);
}

TEST(FadingDynamics, ZeroDopplerFreezesChannel) {
  wireless::RayleighFading fading(0.0, 1.0, Rng(5));
  const double first = fading.step();
  for (int i = 0; i < 10; ++i) {
    EXPECT_NEAR(fading.step(), first, 1e-12);
  }
}

// ----------------------------------------------- multicast rung boundaries

TEST(MulticastBoundary, ExactBudgetSelectsRung) {
  wireless::MulticastPhy phy;
  const std::vector<double> ladder = {750.0, 1200.0, 1850.0};
  // Budget exactly equals a rung: that rung is sustainable.
  EXPECT_EQ(phy.sustainable_rung(ladder, 1.0, 1200e3), 1u);
  // One hertz less: drops to the rung below.
  EXPECT_EQ(phy.sustainable_rung(ladder, 1.0, 1200e3 - 1.0), 0u);
}

// ------------------------------------------------------ clustering corners

TEST(ClusteringCorners, TwoIdenticalPointsTwoClusters) {
  Rng rng(6);
  clustering::Points points = {{1.0, 1.0}, {1.0, 1.0}};
  const auto result = clustering::k_means(points, 2, rng);
  EXPECT_EQ(result.assignment.size(), 2u);
  EXPECT_NEAR(result.inertia, 0.0, 1e-12);
}

TEST(ClusteringCorners, OneDimensionalData) {
  Rng rng(7);
  clustering::Points points;
  for (int i = 0; i < 10; ++i) {
    points.push_back({static_cast<double>(i)});
  }
  for (int i = 0; i < 10; ++i) {
    points.push_back({100.0 + static_cast<double>(i)});
  }
  const auto result = clustering::k_means(points, 2, rng);
  // The two runs of consecutive integers are split exactly at the gap.
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(result.assignment[i], result.assignment[0]);
    EXPECT_EQ(result.assignment[10 + i], result.assignment[10]);
  }
  EXPECT_NE(result.assignment[0], result.assignment[10]);
}

TEST(ClusteringCorners, HighDimensionalSparseData) {
  Rng rng(8);
  clustering::Points points;
  for (int i = 0; i < 12; ++i) {
    std::vector<double> p(64, 0.0);
    p[static_cast<std::size_t>(i % 4) * 16] = 1.0;  // 4 orthogonal directions
    points.push_back(std::move(p));
  }
  const auto result = clustering::k_means(points, 4, rng);
  EXPECT_NEAR(result.inertia, 0.0, 1e-9);
}

// ----------------------------------------------------- compressor corners

TEST(CompressorCorners, SingleWindowBatch) {
  core::CompressorConfig cfg;
  cfg.channels = 2;
  cfg.timesteps = 8;
  cfg.embedding_dim = 3;
  core::FeatureCompressor comp(cfg, 9);
  const std::vector<float> row(cfg.channels * cfg.timesteps, 0.5f);
  const twin::WindowBatch one(row.data(), 1, row.size());
  const auto points = comp.embed(one);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].size(), 3u);
  EXPECT_NO_THROW(comp.fit(one));
}

TEST(CompressorCorners, ConstantWindowsEmbedIdentically) {
  core::CompressorConfig cfg;
  cfg.channels = 2;
  cfg.timesteps = 8;
  core::FeatureCompressor comp(cfg, 10);
  const std::vector<float> rows(3 * cfg.channels * cfg.timesteps, 0.25f);
  const auto points =
      comp.embed(twin::WindowBatch(rows.data(), 3, cfg.channels * cfg.timesteps));
  for (std::size_t d = 0; d < points[0].size(); ++d) {
    EXPECT_DOUBLE_EQ(points[0][d], points[1][d]);
    EXPECT_DOUBLE_EQ(points[1][d], points[2][d]);
  }
}

// ------------------------------------------------- group constructor edge

TEST(GroupConstructorEdge, IdenticalEmbeddingsStillCluster) {
  core::GroupConstructorConfig cfg;
  cfg.k_min = 2;
  cfg.k_max = 4;
  cfg.ddqn.hidden = {8};
  core::GroupConstructor ctor(cfg, 11);
  Rng rng(11);
  const clustering::Points identical(10, std::vector<double>{0.5, 0.5});
  const auto decision = ctor.construct(identical, rng);
  EXPECT_GE(decision.k, 2u);
  EXPECT_EQ(decision.assignment.size(), 10u);
  // Degenerate geometry: silhouette defined as 0.
  EXPECT_GE(decision.silhouette, -1.0);
  EXPECT_LE(decision.silhouette, 1.0);
}

TEST(GroupConstructorEdge, TwoPointCloud) {
  core::GroupConstructorConfig cfg;
  cfg.k_min = 2;
  cfg.k_max = 8;
  cfg.ddqn.hidden = {8};
  core::GroupConstructor ctor(cfg, 12);
  Rng rng(12);
  const clustering::Points two = {{0.0}, {1.0}};
  const auto decision = ctor.construct(two, rng);
  EXPECT_EQ(decision.k, 2u);
}

// ----------------------------------------------------- recommender corners

TEST(RecommenderCorners, SingleVideoCatalogStillFillsQuota) {
  Rng rng(13);
  video::CatalogConfig ccfg;
  ccfg.videos_per_category = 1;
  const auto catalog = video::Catalog::generate(ccfg, rng);
  analysis::PopularityAnalyzer pop;
  behavior::PreferenceVector uniform{};
  uniform.fill(1.0 / video::kCategoryCount);
  analysis::RecommenderConfig rcfg;
  rcfg.playlist_size = 12;
  const auto rec = analysis::recommend(catalog, pop, uniform, rcfg);
  // Only 6 distinct videos exist (one per category); the playlist cannot
  // exceed them but must include each chosen category's video exactly once.
  EXPECT_LE(rec.playlist.size(), 6u);
  std::set<std::uint64_t> unique(rec.playlist.begin(), rec.playlist.end());
  EXPECT_EQ(unique.size(), rec.playlist.size());
}

TEST(RecommenderCorners, ExtremePreferenceConcentratesPlaylist) {
  Rng rng(14);
  video::CatalogConfig ccfg;
  ccfg.videos_per_category = 50;
  const auto catalog = video::Catalog::generate(ccfg, rng);
  analysis::PopularityAnalyzer pop;
  behavior::PreferenceVector extreme{};
  extreme[static_cast<std::size_t>(video::Category::kMusic)] = 1.0;
  analysis::RecommenderConfig rcfg;
  rcfg.playlist_size = 20;
  const auto rec = analysis::recommend(catalog, pop, extreme, rcfg);
  ASSERT_EQ(rec.playlist.size(), 20u);
  for (const auto id : rec.playlist) {
    EXPECT_EQ(catalog.video(id).category, video::Category::kMusic);
  }
}

// ----------------------------------------------------- UDT window corners

TEST(UdtCorners, WindowLargerThanHistory) {
  twin::TwinColumnStore twin(1, 2048);
  const twin::FeatureScaling scaling{100.0, 100.0, 10.0, 40.0};
  twin.record_channel(0, 5.0, {10.0, 2.0, 0});
  // Ask for a 1000-second window at t=10: only one sample exists.
  std::vector<float> window(twin::TwinColumnStore::kFeatureChannels * 8, -1.0f);
  twin.extract_window_row(0, {10.0, 1000.0, 8, scaling}, window.data());
  // The sample lands in the last bin region and holds forward; bins before
  // it are zero.
  EXPECT_EQ(window[0], 0.0f);
  EXPECT_GT(window[7], 0.0f);
}

TEST(UdtCorners, SummaryWithOnlyWatchData) {
  twin::TwinColumnStore twin(1, 2048);
  const twin::FeatureScaling scaling{100.0, 100.0, 10.0, 40.0};
  twin::WatchObservation w;
  w.category = video::Category::kComedy;
  w.watch_fraction = 0.4;
  w.watch_seconds = 4.0;
  w.duration_s = 10.0;
  twin.record_watch(0, 1.0, w);
  std::vector<double> features(twin::TwinColumnStore::kSummaryDim);
  EXPECT_EQ(features.size(), 6u + video::kCategoryCount);
  twin.extract_summary_row(0, {2.0, 2.0, scaling}, features.data());
  EXPECT_DOUBLE_EQ(features[0], 0.0);  // no channel data
  EXPECT_DOUBLE_EQ(features[4], 0.4);  // mean watch fraction
}

// -------------------------------------------------- swiping distributions

TEST(SwipingCorners, SingleObservationCdfStep) {
  analysis::SwipingDistribution dist(10, 1.0);
  dist.observe(video::Category::kNews, 0.55);
  // All mass in bin 5 ([0.5, 0.6)): CDF 0 before, 1 after.
  EXPECT_NEAR(dist.cumulative_swipe_probability(video::Category::kNews, 0.5), 0.0,
              1e-9);
  EXPECT_NEAR(dist.cumulative_swipe_probability(video::Category::kNews, 0.6), 1.0,
              1e-9);
}

TEST(SwipingCorners, ExpectedMaxHugeGroupSaturates) {
  analysis::SwipingDistribution dist;
  Rng rng(15);
  for (int i = 0; i < 500; ++i) {
    dist.observe(video::Category::kGame, rng.beta(2.0, 2.0));
  }
  const double e = dist.expected_max_watch_fraction(video::Category::kGame, 100000);
  EXPECT_GT(e, 0.9);
  EXPECT_LE(e, 1.0);
}

// -------------------------------------------------- sub-second clip corner

TEST(GroupPlaybackCorners, SubPointTwoSecondClipsPlayCleanly) {
  // Regression: the group on-air window was clamped into [0.2, duration],
  // which is UB (clamp with lo > hi) whenever a clip runs shorter than
  // 0.2 s. A catalog made entirely of such clips must play through the
  // grouped pipeline with every window bounded by its clip length.
  core::SchemeConfig cfg;
  cfg.seed = 77;
  cfg.user_count = 12;
  cfg.interval_s = 30.0;
  cfg.warmup_intervals = 1;
  cfg.feature_window_s = 60.0;
  cfg.feature_timesteps = 16;
  cfg.session.engagement.catalog.videos_per_category = 12;
  cfg.session.engagement.catalog.min_duration_s = 0.05;
  cfg.session.engagement.catalog.max_duration_s = 0.15;
  cfg.compressor.epochs_per_fit = 1;
  cfg.grouping.k_min = 2;
  cfg.grouping.k_max = 4;
  cfg.grouping.ddqn.hidden = {16};
  cfg.grouping.kmeans.restarts = 2;
  cfg.recommender.playlist_size = 16;

  core::Simulation sim(cfg);
  core::CollectingSink sink;
  sim.run(3, sink);
  for (const auto& r : sink.reports) {
    EXPECT_TRUE(std::isfinite(r.actual_radio_hz_total));
    EXPECT_TRUE(std::isfinite(r.predicted_radio_hz_total));
    if (!r.grouped) {
      continue;
    }
    EXPECT_GT(r.actual_radio_hz_total, 0.0);
  }
  // Groups report only in grouped intervals. Sub-0.2 s clips + swipe gaps:
  // a 30 s interval burns through many.
  for (const auto& g : sink.groups) {
    EXPECT_GT(g.videos_played, 10u);
  }
}

// ------------------------------------------- group accessor bounds guards

/// Shared fixture state: one tiny simulation before grouping (no groups
/// yet) and one after (some groups active).
core::SchemeConfig tiny_sim_config(std::uint64_t seed) {
  core::SchemeConfig cfg;
  cfg.seed = seed;
  cfg.user_count = 10;
  cfg.interval_s = 20.0;
  cfg.warmup_intervals = 1;
  cfg.feature_window_s = 40.0;
  cfg.feature_timesteps = 8;
  cfg.session.engagement.catalog.videos_per_category = 10;
  cfg.compressor.epochs_per_fit = 1;
  cfg.grouping.k_min = 2;
  cfg.grouping.k_max = 3;
  cfg.grouping.ddqn.hidden = {8};
  cfg.grouping.kmeans.restarts = 1;
  cfg.recommender.playlist_size = 8;
  return cfg;
}

TEST(GroupAccessorBounds, GroupMembersOutOfRangeThrows) {
  core::Simulation fresh(tiny_sim_config(71));
  EXPECT_THROW(fresh.group_members(0), util::RuntimeError);  // no groups yet
  core::Simulation sim(tiny_sim_config(71));
  core::ReportSink discard;
  sim.run(2, discard);
  ASSERT_GT(sim.group_count(), 0u);
  EXPECT_NO_THROW(sim.group_members(sim.group_count() - 1));
  EXPECT_THROW(sim.group_members(sim.group_count()), util::RuntimeError);
}

TEST(GroupAccessorBounds, GroupSwipingOutOfRangeThrows) {
  core::Simulation sim(tiny_sim_config(72));
  EXPECT_THROW(sim.group_swiping(0), util::RuntimeError);
  core::ReportSink discard;
  sim.run(2, discard);
  EXPECT_THROW(sim.group_swiping(sim.group_count()), util::RuntimeError);
}

TEST(GroupAccessorBounds, GroupPreferenceOutOfRangeThrows) {
  core::Simulation sim(tiny_sim_config(73));
  EXPECT_THROW(sim.group_preference(0), util::RuntimeError);
  core::ReportSink discard;
  sim.run(2, discard);
  EXPECT_THROW(sim.group_preference(sim.group_count()), util::RuntimeError);
}

TEST(GroupAccessorBounds, GroupRecommendationOutOfRangeThrows) {
  core::Simulation sim(tiny_sim_config(74));
  EXPECT_THROW(sim.group_recommendation(0), util::RuntimeError);
  core::ReportSink discard;
  sim.run(2, discard);
  EXPECT_THROW(sim.group_recommendation(sim.group_count()), util::RuntimeError);
}

TEST(GroupAccessorBounds, MostPreferringGroupWithoutGroupsThrows) {
  core::Simulation sim(tiny_sim_config(75));
  EXPECT_THROW(sim.most_preferring_group(video::Category::kNews),
               util::RuntimeError);
  core::ReportSink discard;
  sim.run(2, discard);
  EXPECT_NO_THROW(sim.most_preferring_group(video::Category::kNews));
}

// --------------------------------------------- configuration validation

TEST(ConfigValidation, SchemeConfigRejectsDegenerateValues) {
  const core::SchemeConfig good = tiny_sim_config(76);
  EXPECT_NO_THROW(core::validate(good));

  core::SchemeConfig cfg = good;
  cfg.user_count = 0;
  EXPECT_THROW(core::Simulation{cfg}, PreconditionError);

  cfg = good;
  cfg.tick_s = 0.0;  // would otherwise divide by zero in the tick schedule
  EXPECT_THROW(core::Simulation{cfg}, PreconditionError);

  cfg = good;
  cfg.tick_s = -1.0;
  EXPECT_THROW(core::Simulation{cfg}, PreconditionError);

  cfg = good;
  cfg.interval_s = 0.5 * cfg.tick_s;  // interval shorter than one tick
  EXPECT_THROW(core::Simulation{cfg}, PreconditionError);

  cfg = good;
  cfg.interval_s = 0.0;
  EXPECT_THROW(core::Simulation{cfg}, PreconditionError);

  cfg = good;
  cfg.feature_window_s = 0.0;
  EXPECT_THROW(core::Simulation{cfg}, PreconditionError);

  // Non-finite timing: an infinite interval used to schedule an unbounded
  // tick count (the run spun forever), an infinite window an unbounded
  // retention span.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {inf, nan}) {
    cfg = good;
    cfg.interval_s = bad;
    EXPECT_THROW(core::validate(cfg), PreconditionError);
    cfg = good;
    cfg.tick_s = bad;
    EXPECT_THROW(core::validate(cfg), PreconditionError);
    cfg = good;
    cfg.feature_window_s = bad;
    EXPECT_THROW(core::validate(cfg), PreconditionError);
  }

  // A huge finite interval used to cast ceil(interval_s / tick_s) past
  // size_t (undefined behaviour; the run hung). 2^53 ticks is the limit.
  cfg = good;
  cfg.interval_s = 1e300;
  EXPECT_THROW(core::validate(cfg), PreconditionError);
  cfg = good;
  cfg.tick_s = 1.0;
  cfg.interval_s = 0x1p53;
  EXPECT_THROW(core::validate(cfg), PreconditionError);
  cfg.interval_s = 0x1p53 - 1.0;
  EXPECT_NO_THROW(core::validate(cfg));

  cfg = good;
  cfg.grouping.k_min = 5;
  cfg.grouping.k_max = 3;
  EXPECT_THROW(core::Simulation{cfg}, PreconditionError);

  cfg = good;
  cfg.popularity_forgetting = 0.0;
  EXPECT_THROW(core::Simulation{cfg}, PreconditionError);

  // The affinity sampler and the catalog generator reject these too, but
  // only once a Simulation is half built; validate names the field first.
  for (const double bad : {0.0, -1.0, inf, nan}) {
    cfg = good;
    cfg.affinity_concentration = bad;
    EXPECT_THROW(core::validate(cfg), PreconditionError);
  }
  cfg = good;
  cfg.session.engagement.catalog.videos_per_category = 0;
  EXPECT_THROW(core::validate(cfg), PreconditionError);
}

TEST(ConfigValidation, ServeWorkloadConfigRejectsDegenerateValues) {
  const core::ServeWorkloadConfig good;
  EXPECT_NO_THROW(core::validate(good));

  core::ServeWorkloadConfig cfg = good;
  cfg.user_count = 0;
  EXPECT_THROW(core::validate(cfg), PreconditionError);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {0.0, -1.0, nan}) {
    cfg = good;
    cfg.channel_period_s = bad;
    EXPECT_THROW(core::validate(cfg), PreconditionError);
    cfg = good;
    cfg.location_period_s = bad;
    EXPECT_THROW(core::validate(cfg), PreconditionError);
    cfg = good;
    cfg.watch_period_s = bad;
    EXPECT_THROW(core::validate(cfg), PreconditionError);
    cfg = good;
    cfg.extent_x = bad;
    EXPECT_THROW(core::validate(cfg), PreconditionError);
  }
  for (const double bad : {0.0, std::numeric_limits<double>::infinity(), nan}) {
    cfg = good;
    cfg.affinity_concentration = bad;
    EXPECT_THROW(core::validate(cfg), PreconditionError);
  }
}

TEST(ConfigValidation, FleetConfigRejectsDegenerateValues) {
  core::FleetConfig good;
  good.base = tiny_sim_config(77);
  good.cell_count = 2;
  good.total_users = 8;
  EXPECT_NO_THROW(core::validate(good));

  core::FleetConfig cfg = good;
  cfg.cell_count = 0;
  EXPECT_THROW(core::SimulationFleet{cfg}, PreconditionError);

  cfg = good;
  cfg.total_users = cfg.cell_count - 1;  // a cell would get zero users
  EXPECT_THROW(core::SimulationFleet{cfg}, PreconditionError);

  // The per-cell base scheme is validated up front too — a zero tick_s
  // must throw at fleet construction, not hang inside the first interval.
  cfg = good;
  cfg.base.tick_s = 0.0;
  EXPECT_THROW(core::SimulationFleet{cfg}, PreconditionError);
}

TEST(ConfigValidation, ScenarioConfigRejectsBadRunShapeBeforeRunning) {
  const core::ScenarioConfig good =
      core::make_scenario(core::ScenarioKind::kFlashCrowd, 8, 2, 78);
  EXPECT_NO_THROW(core::validate(good));

  // Each of these used to fail partway through a run, after records were
  // already written; run_scenario now rejects them before the first interval.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -1.0}) {
    core::ScenarioConfig cfg = good;
    cfg.surge_fraction = bad;
    EXPECT_THROW(core::validate(cfg), PreconditionError);
    EXPECT_THROW(core::run_scenario(cfg), PreconditionError);
  }
  for (const double bad : {nan, -0.1, 1.5}) {
    core::ScenarioConfig cfg = good;
    cfg.kind = core::ScenarioKind::kMobilityChurn;
    cfg.churn_fraction = bad;
    EXPECT_THROW(core::run_scenario(cfg), PreconditionError);
  }
  core::ScenarioConfig cfg = good;
  cfg.surge_cell = cfg.cell_count;
  EXPECT_THROW(core::run_scenario(cfg), PreconditionError);

  cfg = good;
  cfg.intervals = 0;
  EXPECT_THROW(core::validate(cfg), PreconditionError);

  // The fleet and its base scheme are validated through the scenario too.
  cfg = good;
  cfg.base.interval_s = inf;
  EXPECT_THROW(core::validate(cfg), PreconditionError);
}

// --------------------------------------------------------- session corners

TEST(SessionCorners, TinyTickGranularity) {
  Rng rng(16);
  video::CatalogConfig ccfg;
  ccfg.videos_per_category = 10;
  const auto catalog = video::Catalog::generate(ccfg, rng);
  behavior::PreferenceVector aff{};
  aff.fill(1.0);
  behavior::SessionConfig scfg;
  behavior::ViewingSession session(0, catalog, scfg, aff, Rng(17));
  std::vector<behavior::ViewEvent> events;
  // 0.1-second ticks for 2 simulated minutes.
  for (int t = 0; t < 1200; ++t) {
    session.advance(0.1 * t, 0.1, events);
  }
  EXPECT_GT(events.size(), 0u);
  for (const auto& ev : events) {
    EXPECT_LE(ev.watch_seconds, ev.duration_s + 1e-9);
  }
}

}  // namespace
