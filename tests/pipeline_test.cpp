// Tests for the pluggable interval pipeline (core/pipeline.hpp): the
// string-keyed StageRegistry, enum-alias/key equivalence, the streaming
// ReportSink contract, an out-of-tree stage registered from this binary,
// per-stage wall-time accounting, and the bit-identity regression locking
// the refactored pipeline to the pre-refactor report stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "core/fleet.hpp"
#include "core/pipeline.hpp"
#include "core/simulation.hpp"
#include "util/error.hpp"

namespace {

using namespace dtmsv;
using core::EpochReport;
using core::SchemeConfig;
using core::Simulation;
using core::StageRegistry;

/// The exact configuration the pre-refactor golden reports were captured
/// with (seed path: monolithic run_interval, enums, vector reports).
SchemeConfig golden_config(std::uint64_t seed = 42) {
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
  cfg.recommender.playlist_size = 24;
  return cfg;
}

// ----------------------------------------------------------- registry keys

TEST(StageRegistry, BuiltinKeysRegistered) {
  const StageRegistry& reg = StageRegistry::instance();
  for (const char* key : {"cnn", "raw", "summary"}) {
    EXPECT_TRUE(reg.has_feature(key)) << key;
  }
  for (const char* key : {"ddqn", "fixed", "elbow", "random", "silhouette"}) {
    EXPECT_TRUE(reg.has_grouping(key)) << key;
  }
  for (const char* key : {"joint", "last_value", "ewma", "linear_trend", "mean"}) {
    EXPECT_TRUE(reg.has_demand(key)) << key;
  }
  // Sorted key listings include the builtins.
  const auto features = reg.feature_keys();
  EXPECT_TRUE(std::is_sorted(features.begin(), features.end()));
  EXPECT_GE(features.size(), 3u);
}

TEST(StageRegistry, UnknownKeyThrowsListingKnownKeys) {
  SchemeConfig cfg = golden_config();
  util::Rng rng(1);
  try {
    StageRegistry::instance().make_feature("no_such_stage", cfg, rng);
    FAIL() << "unknown key must throw";
  } catch (const util::RuntimeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no_such_stage"), std::string::npos);
    EXPECT_NE(what.find("cnn"), std::string::npos);  // known keys listed
  }
}

TEST(StageRegistry, UnknownKeyOnConfigThrowsAtConstruction) {
  SchemeConfig cfg = golden_config();
  cfg.grouping_stage = "definitely_not_registered";
  EXPECT_THROW(Simulation{cfg}, util::RuntimeError);
}

TEST(StageRegistry, DuplicateRegistrationThrows) {
  EXPECT_THROW(StageRegistry::instance().register_grouping(
                   "ddqn",
                   [](const SchemeConfig&, util::Rng&)
                       -> std::unique_ptr<core::GroupingStage> { return nullptr; }),
               util::RuntimeError);
}

TEST(StageRegistry, DefaultKeysArePaperWiring) {
  SchemeConfig cfg;
  EXPECT_EQ(core::feature_stage_key(cfg), "cnn");
  EXPECT_EQ(core::grouping_stage_key(cfg), "ddqn");
  EXPECT_EQ(core::demand_stage_key(cfg), "joint");

  cfg.feature_stage = "raw";
  cfg.grouping_stage = "random";
  cfg.demand_stage = "mean";
  EXPECT_EQ(core::feature_stage_key(cfg), "raw");
  EXPECT_EQ(core::grouping_stage_key(cfg), "random");
  EXPECT_EQ(core::demand_stage_key(cfg), "mean");

  // Keys are registry-only now: an emptied key is a precondition error,
  // not a fallback to some implicit default.
  cfg.feature_stage.clear();
  EXPECT_THROW(core::feature_stage_key(cfg), util::PreconditionError);
}

// ------------------------------------------------ default/key bit-equivalence

void expect_reports_identical(const std::vector<EpochReport>& a,
                              const std::vector<EpochReport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].k, b[i].k) << "interval " << i;
    EXPECT_DOUBLE_EQ(a[i].silhouette, b[i].silhouette);
    EXPECT_DOUBLE_EQ(a[i].predicted_radio_hz_total, b[i].predicted_radio_hz_total);
    EXPECT_DOUBLE_EQ(a[i].actual_radio_hz_total, b[i].actual_radio_hz_total);
    EXPECT_DOUBLE_EQ(a[i].predicted_compute_total, b[i].predicted_compute_total);
    EXPECT_DOUBLE_EQ(a[i].actual_compute_total, b[i].actual_compute_total);
    EXPECT_DOUBLE_EQ(a[i].unicast_radio_hz_total, b[i].unicast_radio_hz_total);
    EXPECT_DOUBLE_EQ(a[i].radio_error, b[i].radio_error);
    EXPECT_EQ(a[i].reconstruction_loss, b[i].reconstruction_loss);
  }
}

TEST(PipelineEquivalence, ExplicitKeysMatchDefaultsPaperCombo) {
  SchemeConfig via_defaults = golden_config();
  SchemeConfig via_keys = golden_config();
  via_keys.feature_stage = "cnn";
  via_keys.grouping_stage = "ddqn";
  via_keys.demand_stage = "joint";
  Simulation a(via_defaults);
  Simulation b(via_keys);
  core::CollectingSink sink_a;
  a.run(6, sink_a);
  core::CollectingSink sink_b;
  b.run(6, sink_b);
  expect_reports_identical(sink_a.reports, sink_b.reports);
}

// --------------------------------------------------- seed-path regression

/// Golden values captured from the pre-refactor monolithic
/// Simulation::run_interval (seed path) on this machine, max-precision.
/// {interval, k, silhouette, predicted_radio, actual_radio,
///  predicted_compute, actual_compute}. Note: exact doubles are sensitive
/// to the FP-contraction regime (-march=native); regenerate on a different
/// host with tools mirroring golden_config() if this ever moves machines.
struct GoldenInterval {
  std::size_t interval;
  std::size_t k;
  double silhouette;
  double predicted_radio;
  double actual_radio;
  double predicted_compute;
  double actual_compute;
};

/// The pinned doubles assume the optimized FP regime they were captured in
/// (-O3 with default -ffp-contract=fast FMA contraction; -march=native).
/// Unoptimized builds (the ASan Debug job) skip the pin — the FP stream
/// legitimately differs without contraction — and rely on the equivalence
/// tests above, which are regime-independent. A host whose codegen
/// diverges from the capture machine can export DTMSV_SKIP_GOLDEN=1 and
/// regenerate the values from a pre-refactor checkout.
bool golden_regime() {
#if defined(__OPTIMIZE__)
  return std::getenv("DTMSV_SKIP_GOLDEN") == nullptr;
#else
  return false;
#endif
}

void expect_matches_golden(const std::vector<EpochReport>& reports,
                           const std::vector<GoldenInterval>& golden) {
  ASSERT_EQ(reports.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const EpochReport& r = reports[i];
    const GoldenInterval& g = golden[i];
    EXPECT_EQ(static_cast<std::size_t>(r.interval), g.interval);
    EXPECT_EQ(r.k, g.k) << "interval " << i;
    EXPECT_DOUBLE_EQ(r.silhouette, g.silhouette) << "interval " << i;
    EXPECT_DOUBLE_EQ(r.predicted_radio_hz_total, g.predicted_radio) << i;
    EXPECT_DOUBLE_EQ(r.actual_radio_hz_total, g.actual_radio) << i;
    EXPECT_DOUBLE_EQ(r.predicted_compute_total, g.predicted_compute) << i;
    EXPECT_DOUBLE_EQ(r.actual_compute_total, g.actual_compute) << i;
  }
}

TEST(PipelineRegression, DefaultRegistryReproducesSeedPathPaperCombo) {
  if (!golden_regime()) {
    GTEST_SKIP() << "golden stream pinned for optimized FP regime only";
  }
  // cnn + ddqn + joint: the paper's default wiring, 6 intervals (1 warm-up
  // + 5 scored) pinned bit-identically against the pre-refactor stream.
  const std::vector<GoldenInterval> golden = {
      {0, 5, 0.33776511983010982, 0, 0, 0, 0},
      {1, 6, 0.24040271225950693, 2676609.9246087894, 2710309.0007919138,
       36819622448.865997, 43285789784.181618},
      {2, 2, 0.4108246645033744, 3238929.1658626003, 3239311.7103384468,
       52605656435.984917, 53337825551.561684},
      {3, 2, 0.4010549872905429, 1072468.2837067693, 1145274.2976515761,
       16766334980.586586, 17739013765.44426},
      {4, 2, 0.39531189665247063, 1089118.6340076849, 1415758.3045694171,
       16450526380.406111, 16186510594.342958},
      {5, 3, 0.38852212665284541, 1231836.8974602127, 1169427.1014183019,
       15819682635.770405, 16377847321.645916},
  };
  Simulation sim(golden_config(42));
  core::CollectingSink sink;
  sim.run(6, sink);
  expect_matches_golden(sink.reports, golden);
}

TEST(PipelineRegression, DefaultRegistryReproducesSeedPathAblationCombo) {
  if (!golden_regime()) {
    GTEST_SKIP() << "golden stream pinned for optimized FP regime only";
  }
  // summary + elbow + per-member mean: one ablation combo pinned the same
  // way, proving the adapters (not just the default stages) are faithful.
  const std::vector<GoldenInterval> golden = {
      {0, 5, 0.26328061953050758, 0, 0, 0, 0},
      {1, 4, 0.28830710891816558, 2568519.7553150305, 2775167.6291769925,
       41678493862.725533, 44278330025.44548},
      {2, 4, 0.16739594034985064, 2197311.0999623709, 2172454.187067362,
       35412581890.697945, 35559605098.019958},
      {3, 3, 0.18820898847990908, 2167011.5362718878, 2233531.4775549276,
       32888352251.600792, 35843267640.598976},
      {4, 3, 0.17838274836989923, 1617762.9687008751, 1930117.2490420309,
       25528162860.891388, 24772894963.577942},
      {5, 4, 0.18705411499567412, 1686685.6366059086, 1765397.152416741,
       24859805855.749863, 26216412155.206589},
  };
  SchemeConfig cfg = golden_config(42);
  cfg.feature_stage = "summary";
  cfg.grouping_stage = "elbow";
  cfg.demand_stage = "mean";
  Simulation sim(cfg);
  core::CollectingSink sink;
  sim.run(6, sink);
  expect_matches_golden(sink.reports, golden);
}

// ------------------------------------------------------- streaming contract

TEST(ReportStreaming, FleetSinkMatchesAggregates) {
  core::FleetConfig cfg;
  cfg.base = golden_config(11);
  cfg.base.interval_s = 30.0;
  cfg.base.feature_window_s = 60.0;
  cfg.cell_count = 3;
  cfg.total_users = 36;
  cfg.seed = 11;
  core::SimulationFleet fleet(cfg);

  core::CollectingSink sink;
  for (int i = 0; i < 3; ++i) {
    const core::FleetReport report = fleet.run_interval(&sink);
    // One streamed interval report per shard, in fixed shard order, whose
    // totals reproduce the aggregate exactly.
    ASSERT_EQ(sink.reports.size(), report.shards.size());
    double streamed_pred = 0.0;
    double streamed_act = 0.0;
    for (std::size_t s = 0; s < sink.reports.size(); ++s) {
      streamed_pred += sink.reports[s].predicted_radio_hz_total;
      streamed_act += sink.reports[s].actual_radio_hz_total;
      EXPECT_EQ(sink.reports[s].k, report.shards[s].k);
    }
    EXPECT_DOUBLE_EQ(streamed_pred, report.predicted_radio_hz_total);
    EXPECT_DOUBLE_EQ(streamed_act, report.actual_radio_hz_total);
    sink.reports.clear();
    sink.groups.clear();
  }
}

// ------------------------------------------------- out-of-tree stage proof

/// A stub grouping stage defined in this test binary — outside src/core —
/// to prove the registry extension point: round-robin into a fixed number
/// of groups, no learning, no RNG.
class RoundRobinGroupingStage final : public core::GroupingStage {
 public:
  explicit RoundRobinGroupingStage(std::size_t k) : k_(k) {}

  core::GroupingOutcome group(const clustering::Points& features,
                              util::Rng&) override {
    core::GroupingOutcome out;
    out.k = std::min<std::size_t>(k_, features.size());
    out.assignment.resize(features.size());
    for (std::size_t u = 0; u < features.size(); ++u) {
      out.assignment[u] = u % out.k;
    }
    return out;
  }
  void report_outcome(double prediction_error) override {
    last_error = prediction_error;
    ++outcomes_reported;
  }

  double last_error = -1.0;
  std::size_t outcomes_reported = 0;

 private:
  std::size_t k_;
};

/// The most recently constructed stub (the registry factory outlives any
/// one test body, so the handle must too — e.g. under --gtest_repeat).
RoundRobinGroupingStage*& live_round_robin_stage() {
  static RoundRobinGroupingStage* stage = nullptr;
  return stage;
}

TEST(CustomStage, OutOfTreeGroupingStageRunsFullInterval) {
  // Register from the test binary, exactly once per process; the factory
  // publishes the live stage so the feedback path is observable too.
  [[maybe_unused]] static const bool registered = [] {
    StageRegistry::instance().register_grouping(
        "test_round_robin", [](const SchemeConfig& config, util::Rng&) {
          auto stage = std::make_unique<RoundRobinGroupingStage>(config.fixed_k);
          live_round_robin_stage() = stage.get();
          return stage;
        });
    return true;
  }();
  RoundRobinGroupingStage*& live_stage = live_round_robin_stage();
  live_stage = nullptr;

  SchemeConfig cfg = golden_config(19);
  cfg.grouping_stage = "test_round_robin";
  cfg.fixed_k = 3;
  Simulation sim(cfg);

  core::CollectingSink sink;
  sim.run(3, sink);
  ASSERT_NE(live_stage, nullptr);

  // The stub's decisions drive the real pipeline end-to-end: K groups,
  // round-robin membership, demand predicted and scored.
  EXPECT_EQ(sink.reports[1].k, 3u);
  EXPECT_TRUE(sink.reports[1].grouped);
  EXPECT_TRUE(sink.reports[2].has_prediction);
  EXPECT_GT(sink.reports[2].actual_radio_hz_total, 0.0);
  ASSERT_EQ(sim.group_count(), 3u);
  for (std::size_t g = 0; g < sim.group_count(); ++g) {
    for (const std::size_t u : sim.group_members(g)) {
      EXPECT_EQ(u % 3, g);  // round-robin membership preserved
    }
  }
  // The delayed-reward feedback reaches custom stages as well.
  EXPECT_GT(live_stage->outcomes_reported, 0u);
  EXPECT_GE(live_stage->last_error, 0.0);
}

// ----------------------------------------------------- per-stage timings

TEST(StageTimings, AccumulateAndReset) {
  Simulation sim(golden_config(23));
  core::ReportSink discard;
  sim.run(3, discard);
  const core::StageTimings& t = sim.stage_timings();
  EXPECT_EQ(t.intervals, 3u);
  EXPECT_GT(t.simulate_s, 0.0);
  EXPECT_GT(t.feature_s, 0.0);   // CNN fit+embed every post-warmup interval
  EXPECT_GT(t.grouping_s, 0.0);  // DDQN + K-means
  EXPECT_GT(t.demand_s, 0.0);    // abstraction + demand model
  EXPECT_DOUBLE_EQ(t.total_s(), t.simulate_s + t.pipeline_s());

  sim.reset_stage_timings();
  EXPECT_EQ(sim.stage_timings().intervals, 0u);
  EXPECT_DOUBLE_EQ(sim.stage_timings().total_s(), 0.0);
}

// ------------------------------------------------------ model persistence

TEST(StagePersistence, SaveLoadRoundTripsThroughStageHooks) {
  // cnn+ddqn: both stages carry learned state through the stage hooks.
  SchemeConfig cfg = golden_config(29);
  Simulation trained(cfg);
  core::ReportSink discard;
  trained.run(2, discard);
  std::stringstream models;
  trained.save_models(models);

  Simulation fresh(cfg);
  EXPECT_NO_THROW(fresh.load_models(models));

  // raw+fixed: no learned state anywhere -> save_models must refuse.
  SchemeConfig stateless = golden_config(29);
  stateless.feature_stage = "raw";
  stateless.grouping_stage = "fixed";
  Simulation plain(stateless);
  std::stringstream out;
  EXPECT_THROW(plain.save_models(out), util::PreconditionError);
}

}  // namespace
