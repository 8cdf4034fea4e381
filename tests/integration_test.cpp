// Integration tests: the full DT-assisted pipeline (mobility -> channel ->
// group viewing -> UDT collection -> CNN compression -> DDQN+K-means++ ->
// abstraction -> demand prediction) run end-to-end on a reduced scenario.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "core/simulation.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace {

using namespace dtmsv;
using core::EpochReport;
using core::SchemeConfig;
using core::Simulation;

/// Reduced-size configuration so the integration suite stays fast.
SchemeConfig fast_config(std::uint64_t seed = 42) {
  SchemeConfig cfg;
  cfg.seed = seed;
  cfg.user_count = 40;
  cfg.interval_s = 60.0;
  cfg.tick_s = 1.0;
  cfg.warmup_intervals = 1;
  cfg.feature_window_s = 120.0;
  cfg.feature_timesteps = 16;
  cfg.session.engagement.catalog.videos_per_category = 40;
  cfg.compressor.epochs_per_fit = 1;
  cfg.grouping.k_min = 2;
  cfg.grouping.k_max = 6;
  cfg.grouping.ddqn.hidden = {32};
  cfg.grouping.kmeans.restarts = 2;
  cfg.demand.interval_s = cfg.interval_s;
  cfg.recommender.playlist_size = 24;
  return cfg;
}

TEST(Simulation, WarmupThenGroups) {
  Simulation sim(fast_config());
  core::CollectingSink sink;
  sim.run_interval(sink);
  const EpochReport r0 = sink.reports.back();
  EXPECT_EQ(r0.interval, 0);
  EXPECT_FALSE(r0.grouped);          // warm-up interval: individual sessions
  EXPECT_FALSE(r0.has_prediction);
  EXPECT_GT(r0.k, 0u);               // grouping decided at interval end
  EXPECT_GT(sim.group_count(), 0u);

  sim.run_interval(sink);
  const EpochReport r1 = sink.reports.back();
  EXPECT_TRUE(r1.grouped);
  EXPECT_TRUE(r1.has_prediction);
  EXPECT_GT(r1.actual_radio_hz_total, 0.0);
  EXPECT_GT(r1.predicted_radio_hz_total, 0.0);
}

TEST(Simulation, GroupsPartitionUsers) {
  Simulation sim(fast_config(7));
  core::ReportSink discard;
  sim.run(3, discard);
  std::set<std::size_t> seen;
  for (std::size_t g = 0; g < sim.group_count(); ++g) {
    for (const std::size_t u : sim.group_members(g)) {
      EXPECT_TRUE(seen.insert(u).second) << "user " << u << " in two groups";
    }
  }
  EXPECT_EQ(seen.size(), sim.config().user_count);
}

TEST(Simulation, DeterministicPerSeed) {
  Simulation a(fast_config(123));
  Simulation b(fast_config(123));
  core::CollectingSink sink_a;
  a.run(3, sink_a);
  core::CollectingSink sink_b;
  b.run(3, sink_b);
  const auto& ra = sink_a.reports;
  const auto& rb = sink_b.reports;
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].k, rb[i].k);
    EXPECT_DOUBLE_EQ(ra[i].actual_radio_hz_total, rb[i].actual_radio_hz_total);
    EXPECT_DOUBLE_EQ(ra[i].predicted_radio_hz_total, rb[i].predicted_radio_hz_total);
    EXPECT_DOUBLE_EQ(ra[i].silhouette, rb[i].silhouette);
  }
}

TEST(Simulation, DifferentSeedsDiverge) {
  Simulation a(fast_config(1));
  Simulation b(fast_config(2));
  core::CollectingSink sink_a;
  a.run(2, sink_a);
  core::CollectingSink sink_b;
  b.run(2, sink_b);
  const auto& ra = sink_a.reports;
  const auto& rb = sink_b.reports;
  EXPECT_NE(ra[1].actual_radio_hz_total, rb[1].actual_radio_hz_total);
}

TEST(Simulation, ReportInternalConsistency) {
  Simulation sim(fast_config(9));
  core::CollectingSink sink;
  sim.run(4, sink);
  for (const auto& r : sink.reports) {
    if (!r.grouped) {
      continue;
    }
    double pred_sum = 0.0;
    double act_sum = 0.0;
    std::size_t members = 0;
    for (std::size_t i = 0; i < sink.groups.size(); ++i) {
      if (sink.group_intervals[i] != r.interval) {
        continue;
      }
      const core::GroupReport& g = sink.groups[i];
      EXPECT_GT(g.size, 0u);
      EXPECT_GE(g.predicted_radio_hz, 0.0);
      EXPECT_GE(g.actual_radio_hz, 0.0);
      EXPECT_GE(g.predicted_efficiency, sim.config().demand.efficiency_floor - 1e-9);
      EXPECT_GT(g.videos_played, 0u);
      pred_sum += g.predicted_radio_hz;
      act_sum += g.actual_radio_hz;
      members += g.size;
    }
    EXPECT_EQ(members, sim.config().user_count);
    EXPECT_NEAR(pred_sum, r.predicted_radio_hz_total, 1e-9);
    EXPECT_NEAR(act_sum, r.actual_radio_hz_total, 1e-9);
    if (r.actual_radio_hz_total > 0.0) {
      const double err = std::abs(r.predicted_radio_hz_total - r.actual_radio_hz_total) /
                         r.actual_radio_hz_total;
      EXPECT_NEAR(r.radio_error, err, 1e-9);
    }
  }
}

TEST(Simulation, PredictionTracksActualAfterLearning) {
  SchemeConfig cfg = fast_config(11);
  Simulation sim(cfg);
  core::CollectingSink sink;
  sim.run(8, sink);
  // Average radio accuracy over the last 5 grouped intervals must beat a
  // loose floor (full calibration is validated in the bench harness).
  std::vector<double> pred;
  std::vector<double> act;
  for (std::size_t i = 3; i < sink.reports.size(); ++i) {
    if (sink.reports[i].has_prediction) {
      pred.push_back(sink.reports[i].predicted_radio_hz_total);
      act.push_back(sink.reports[i].actual_radio_hz_total);
    }
  }
  ASSERT_GE(pred.size(), 3u);
  const auto acc = util::prediction_accuracy(act, pred);
  ASSERT_TRUE(acc.has_value());
  EXPECT_GT(*acc, 0.5) << "end-to-end prediction grossly off";
}

TEST(Simulation, CollectorReceivesAllAttributeKinds) {
  Simulation sim(fast_config(13));
  core::ReportSink discard;
  sim.run(2, discard);
  const auto& stats = sim.collector_stats();
  EXPECT_GT(stats.channel_reports, 0u);
  EXPECT_GT(stats.location_reports, 0u);
  EXPECT_GT(stats.watch_reports, 0u);
  EXPECT_GT(stats.preference_reports, 0u);
}

TEST(Simulation, TwinsHoldFreshData) {
  Simulation sim(fast_config(15));
  core::ReportSink discard;
  sim.run(2, discard);
  const auto& twins = sim.twins();
  std::size_t with_channel = 0;
  std::size_t with_watch = 0;
  for (std::size_t u = 0; u < twins.user_count(); ++u) {
    if (twins.twin(u).channel().staleness(sim.now()) < 5.0) {
      ++with_channel;
    }
    if (!twins.twin(u).watch().empty()) {
      ++with_watch;
    }
  }
  EXPECT_EQ(with_channel, twins.user_count());
  EXPECT_GT(with_watch, twins.user_count() / 2);
}

TEST(Simulation, SwipingDistributionsAreProper) {
  Simulation sim(fast_config(17));
  core::ReportSink discard;
  sim.run(3, discard);
  ASSERT_GT(sim.group_count(), 0u);
  for (std::size_t g = 0; g < sim.group_count(); ++g) {
    const auto& dist = sim.group_swiping(g);
    double prev = -1.0;
    for (double t = 0.0; t <= 1.0; t += 0.1) {
      const double cdf =
          dist.cumulative_swipe_probability(video::Category::kNews, t);
      EXPECT_GE(cdf, prev - 1e-12);
      EXPECT_GE(cdf, 0.0);
      EXPECT_LE(cdf, 1.0);
      prev = cdf;
    }
  }
}

TEST(Simulation, GroupPreferencesNormalised) {
  Simulation sim(fast_config(19));
  core::ReportSink discard;
  sim.run(3, discard);
  for (std::size_t g = 0; g < sim.group_count(); ++g) {
    const auto& pref = sim.group_preference(g);
    double total = 0.0;
    for (const double p : pref) {
      EXPECT_GE(p, 0.0);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-6);
  }
}

TEST(Simulation, MostPreferringGroupIsArgmax) {
  Simulation sim(fast_config(21));
  core::ReportSink discard;
  sim.run(3, discard);
  const std::size_t g = sim.most_preferring_group(video::Category::kNews);
  const double w =
      sim.group_preference(g)[static_cast<std::size_t>(video::Category::kNews)];
  for (std::size_t other = 0; other < sim.group_count(); ++other) {
    EXPECT_GE(w + 1e-12,
              sim.group_preference(other)[static_cast<std::size_t>(
                  video::Category::kNews)]);
  }
}

TEST(Simulation, RecommendationsServeGroupTaste) {
  Simulation sim(fast_config(23));
  core::ReportSink discard;
  sim.run(4, discard);
  for (std::size_t g = 0; g < sim.group_count(); ++g) {
    const auto& rec = sim.group_recommendation(g);
    EXPECT_EQ(rec.playlist.size(), sim.config().recommender.playlist_size);
    // Top preferred category gets the largest quota.
    const auto& pref = sim.group_preference(g);
    const std::size_t top = behavior::top_category(pref);
    for (std::size_t c = 0; c < video::kCategoryCount; ++c) {
      EXPECT_GE(rec.per_category_counts[top], rec.per_category_counts[c]);
    }
  }
}

// -------------------------------------------- alternative pipeline variants

TEST(SimulationVariants, RawWindowFeatureStage) {
  SchemeConfig cfg = fast_config(25);
  cfg.feature_stage = "raw";
  Simulation sim(cfg);
  core::CollectingSink sink;
  sim.run(3, sink);
  EXPECT_TRUE(sink.reports[2].grouped);
  EXPECT_EQ(sink.reports[2].reconstruction_loss, 0.0f);  // no CNN in this mode
}

TEST(SimulationVariants, SummaryStatsFeatureStage) {
  SchemeConfig cfg = fast_config(27);
  cfg.feature_stage = "summary";
  Simulation sim(cfg);
  core::CollectingSink sink;
  sim.run(3, sink);
  EXPECT_TRUE(sink.reports[2].grouped);
}

TEST(SimulationVariants, FixedKMode) {
  SchemeConfig cfg = fast_config(29);
  cfg.grouping_stage = "fixed";
  cfg.fixed_k = 3;
  Simulation sim(cfg);
  core::CollectingSink sink;
  sim.run(3, sink);
  EXPECT_EQ(sink.reports[2].k, 3u);
  EXPECT_EQ(sim.group_count(), 3u);
}

TEST(SimulationVariants, RandomKStage) {
  SchemeConfig cfg = fast_config(31);
  cfg.grouping_stage = "random";
  Simulation sim(cfg);
  core::CollectingSink sink;
  sim.run(3, sink);
  EXPECT_GE(sink.reports[2].k, cfg.grouping.k_min);
  EXPECT_LE(sink.reports[2].k, cfg.grouping.k_max);
}

TEST(SimulationVariants, ElbowKStage) {
  SchemeConfig cfg = fast_config(33);
  cfg.grouping_stage = "elbow";
  cfg.user_count = 24;  // keep the elbow sweep cheap
  Simulation sim(cfg);
  core::CollectingSink sink;
  sim.run(3, sink);
  EXPECT_TRUE(sink.reports[2].grouped);
}

TEST(SimulationVariants, PerMemberDemandStages) {
  for (const std::string key : {"last_value", "ewma", "linear_trend", "mean"}) {
    SchemeConfig cfg = fast_config(35);
    cfg.user_count = 20;
    cfg.demand_stage = key;
    Simulation sim(cfg);
    core::CollectingSink sink;
    sim.run(2, sink);
    EXPECT_TRUE(sink.reports[1].grouped);
    EXPECT_GT(sink.reports[1].predicted_radio_hz_total, 0.0);
  }
}

// -------------------------------------------------------- failure injection

TEST(Simulation, ModelSaveLoadRoundTrip) {
  // Train one scheme, transplant its models into a fresh one: both must
  // produce identical grouping decisions on the same twin state.
  SchemeConfig cfg = fast_config(51);
  Simulation trained(cfg);
  core::ReportSink discard;
  trained.run(3, discard);

  std::stringstream models;
  trained.save_models(models);

  Simulation fresh(cfg);
  fresh.load_models(models);
  // Run both one more interval; identical seeds + identical models keep the
  // trajectories in lock-step.
  core::CollectingSink a;
  trained.run_interval(a);
  // The fresh sim lags three intervals of environment state, so we cannot
  // compare report values — instead verify the loaded models are usable and
  // the pipeline runs.
  core::CollectingSink b;
  fresh.run_interval(b);
  EXPECT_GE(a.reports.back().k, cfg.grouping.k_min);
  EXPECT_GE(b.reports.back().k, 0u);
}

TEST(Simulation, ModelLoadRejectsWrongConfiguration) {
  SchemeConfig cnn_cfg = fast_config(53);
  Simulation with_cnn(cnn_cfg);
  std::stringstream models;
  with_cnn.save_models(models);

  SchemeConfig raw_cfg = fast_config(53);
  raw_cfg.feature_stage = "raw";  // no CNN
  Simulation without_cnn(raw_cfg);
  EXPECT_THROW(without_cnn.load_models(models), util::RuntimeError);
}

TEST(Simulation, ModelLoadRejectsGarbage) {
  Simulation sim(fast_config(55));
  std::stringstream garbage("not a model file");
  EXPECT_THROW(sim.load_models(garbage), util::RuntimeError);
}

TEST(FailureInjection, CollectionLossStillRuns) {
  SchemeConfig cfg = fast_config(37);
  cfg.collection.report_loss_prob = 0.5;
  Simulation sim(cfg);
  core::CollectingSink sink;
  sim.run(3, sink);
  EXPECT_TRUE(sink.reports[2].grouped);
  EXPECT_GT(sim.collector_stats().dropped_reports, 0u);
  EXPECT_GT(sink.reports[2].actual_radio_hz_total, 0.0);
}

TEST(FailureInjection, CollectionLatencyStillRuns) {
  SchemeConfig cfg = fast_config(39);
  cfg.collection.latency_s = 10.0;
  Simulation sim(cfg);
  core::CollectingSink sink;
  sim.run(3, sink);
  EXPECT_TRUE(sink.reports[2].grouped);
}

TEST(FailureInjection, SingleUserPopulation) {
  SchemeConfig cfg = fast_config(41);
  cfg.user_count = 1;
  cfg.grouping.k_min = 1;
  cfg.grouping.k_max = 2;
  Simulation sim(cfg);
  core::CollectingSink sink;
  sim.run(3, sink);
  EXPECT_TRUE(sink.reports[2].grouped);
  EXPECT_EQ(sim.group_count(), 1u);
  ASSERT_EQ(sim.group_members(0).size(), 1u);
}

TEST(Simulation, UnicastCounterfactualExceedsMulticast) {
  Simulation sim(fast_config(43));
  core::CollectingSink sink;
  sim.run(4, sink);
  for (const auto& r : sink.reports) {
    if (!r.has_prediction) {
      continue;
    }
    EXPECT_GT(r.unicast_radio_hz_total, 0.0);
    // Serving every member a private stream can never be cheaper than one
    // shared multicast stream of the same content.
    EXPECT_GE(r.unicast_radio_hz_total, r.actual_radio_hz_total * 0.99);
  }
  for (const auto& g : sink.groups) {
    if (g.size > 1) {
      EXPECT_GE(g.unicast_radio_hz, 0.0);
    }
  }
}

TEST(Simulation, AffinityDriftChangesGroundTruth) {
  SchemeConfig cfg = fast_config(45);
  cfg.affinity_drift_rate = 0.5;
  Simulation sim(cfg);
  const auto before = sim.true_affinities();
  core::ReportSink discard;
  sim.run(3, discard);
  const auto& after = sim.true_affinities();
  double moved = 0.0;
  for (std::size_t u = 0; u < before.size(); ++u) {
    for (std::size_t c = 0; c < before[u].size(); ++c) {
      moved += std::abs(before[u][c] - after[u][c]);
    }
  }
  EXPECT_GT(moved, 1.0) << "drift rate 0.5 over 3 intervals must move tastes";
  // Affinities remain probability vectors.
  for (const auto& a : after) {
    double total = 0.0;
    for (const double v : a) {
      EXPECT_GE(v, 0.0);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(Simulation, ZeroDriftKeepsAffinitiesFixed) {
  SchemeConfig cfg = fast_config(47);
  cfg.affinity_drift_rate = 0.0;
  Simulation sim(cfg);
  const auto before = sim.true_affinities();
  core::ReportSink discard;
  sim.run(3, discard);
  const auto& after = sim.true_affinities();
  for (std::size_t u = 0; u < before.size(); ++u) {
    for (std::size_t c = 0; c < before[u].size(); ++c) {
      EXPECT_DOUBLE_EQ(before[u][c], after[u][c]);
    }
  }
}

TEST(Simulation, PipelineSurvivesTasteDrift) {
  SchemeConfig cfg = fast_config(49);
  cfg.affinity_drift_rate = 0.2;
  Simulation sim(cfg);
  core::CollectingSink sink;
  sim.run(6, sink);
  std::vector<double> pred;
  std::vector<double> act;
  for (const auto& r : sink.reports) {
    if (r.has_prediction) {
      pred.push_back(r.predicted_radio_hz_total);
      act.push_back(r.actual_radio_hz_total);
    }
  }
  ASSERT_GE(pred.size(), 3u);
  const auto acc = util::prediction_accuracy(act, pred);
  ASSERT_TRUE(acc.has_value());
  EXPECT_GT(*acc, 0.4) << "drifting tastes should degrade gracefully, not break";
}

TEST(Simulation, TickCountsExactOverLongHorizon) {
  // Regression: ticks used to be scheduled by accumulating now_ += tick_s
  // in floating point against an epsilon-guarded boundary, so tick counts
  // drifted after thousands of intervals at sub-second tick_s. Ticks are
  // now indexed within the interval and boundaries are exact.
  SchemeConfig cfg = fast_config(61);
  cfg.user_count = 2;
  cfg.interval_s = 5.0;
  cfg.tick_s = 0.1;
  cfg.warmup_intervals = 1000000;  // stay in warm-up: no clustering cost
  cfg.session.engagement.catalog.videos_per_category = 8;
  Simulation sim(cfg);
  const std::size_t intervals = 200;
  core::ReportSink discard;
  sim.run(intervals, discard);
  EXPECT_EQ(sim.tick_count(), intervals * 50u);
  // Interval boundaries land exactly on their nominal times — bitwise.
  EXPECT_EQ(sim.now(), static_cast<double>(intervals) * cfg.interval_s);
}

TEST(Simulation, FadingCorrelationFollowsTickSpacing) {
  // Regression: the channel's fading assumed a fixed 1 s step, so at
  // tick_s = 0.5 it decorrelated twice as fast in simulated time. The
  // Gauss–Markov tap's power has lag-one autocorrelation rho² with
  // rho = exp(-0.2π·f_d·tick_s): 0.533 at f_d = 1 Hz and 0.5 s ticks,
  // against 0.284 under the old fixed step.
  SchemeConfig cfg = fast_config(65);
  cfg.tick_s = 0.5;
  cfg.warmup_intervals = 1000000;  // stay in warm-up: no clustering cost
  cfg.radio.doppler_hz = 1.0;
  cfg.radio.shadowing_sigma_db = 0.0;
  cfg.mobility.min_speed_mps = 1e-3;  // all but stationary: the path loss
  cfg.mobility.max_speed_mps = 1e-3;  // is constant, only fading moves
  cfg.collection.channel_period_s = cfg.tick_s;
  Simulation sim(cfg);
  core::ReportSink discard;
  sim.run(1, discard);

  const double rho = std::exp(-0.2 * M_PI * cfg.radio.doppler_hz * cfg.tick_s);
  util::RunningStats lag1;
  for (std::size_t u = 0; u < cfg.user_count; ++u) {
    const auto series = sim.twins().twin(u).channel();
    ASSERT_EQ(series.size(), 120u);  // one report per tick
    std::vector<double> now;
    std::vector<double> next;
    for (std::size_t i = 0; i + 1 < series.size(); ++i) {
      now.push_back(std::pow(10.0, series[i].value.snr_db / 10.0));
      next.push_back(std::pow(10.0, series[i + 1].value.snr_db / 10.0));
    }
    lag1.add(util::pearson(now, next));
  }
  EXPECT_NEAR(lag1.mean(), rho * rho, 0.08);
}

TEST(Simulation, DriftToggleLeavesOtherStreamsUntouched) {
  // Regression: drift targets used to be drawn from the playback stream,
  // so merely enabling affinity_drift_rate perturbed group playback and
  // broke A/B comparability across scenarios. With a vanishing drift rate
  // (every nudge is absorbed by double rounding) the trajectories must now
  // be bit-identical to drift disabled — through grouping and playback.
  SchemeConfig off = fast_config(63);
  SchemeConfig on = off;
  on.affinity_drift_rate = 1e-300;  // draws drift targets, moves nothing
  Simulation a(off);
  Simulation b(on);
  core::CollectingSink sink_a;
  a.run(4, sink_a);
  core::CollectingSink sink_b;
  b.run(4, sink_b);
  const auto& ra = sink_a.reports;
  const auto& rb = sink_b.reports;
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].k, rb[i].k);
    EXPECT_DOUBLE_EQ(ra[i].silhouette, rb[i].silhouette);
    EXPECT_DOUBLE_EQ(ra[i].actual_radio_hz_total, rb[i].actual_radio_hz_total);
    EXPECT_DOUBLE_EQ(ra[i].predicted_radio_hz_total,
                     rb[i].predicted_radio_hz_total);
    EXPECT_DOUBLE_EQ(ra[i].actual_compute_total, rb[i].actual_compute_total);
  }
}

TEST(FailureInjection, DegradedCollectionHurtsAccuracy) {
  // The DT premise: fresher twins → better predictions. Compare mean radio
  // error with pristine vs. heavily degraded collection over several seeds
  // (aggregated to damp variance).
  double err_good = 0.0;
  double err_bad = 0.0;
  for (const std::uint64_t seed : {101ULL, 202ULL, 303ULL}) {
    SchemeConfig good = fast_config(seed);
    good.user_count = 24;
    SchemeConfig bad = good;
    bad.collection.report_loss_prob = 0.9;
    bad.collection.channel_period_s = 20.0;
    bad.collection.latency_s = 30.0;

    Simulation sg(good);
    Simulation sb(bad);
    core::CollectingSink sink_good;
    sg.run(6, sink_good);
    core::CollectingSink sink_bad;
    sb.run(6, sink_bad);
    for (const auto& r : sink_good.reports) {
      if (r.has_prediction) {
        err_good += r.radio_error;
      }
    }
    for (const auto& r : sink_bad.reports) {
      if (r.has_prediction) {
        err_bad += r.radio_error;
      }
    }
  }
  EXPECT_LT(err_good, err_bad)
      << "degrading twin freshness should not improve prediction";
}

}  // namespace
