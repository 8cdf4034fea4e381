// Tests for core::SimulationFleet: user sharding, aggregate consistency
// against per-shard reports, thread-count bit-identity of the fleet report,
// flash-crowd surge shards, and inter-cell handover churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "core/fleet.hpp"
#include "core/scenarios.hpp"
#include "twin/column_store.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace {

using namespace dtmsv;
using core::FleetConfig;
using core::FleetReport;
using core::SimulationFleet;

/// Reduced fleet so the suite stays fast.
FleetConfig fast_fleet(std::size_t users = 48, std::size_t cells = 3,
                       std::uint64_t seed = 42) {
  FleetConfig cfg;
  cfg.cell_count = cells;
  cfg.total_users = users;
  cfg.seed = seed;
  core::SchemeConfig& base = cfg.base;
  base.interval_s = 30.0;
  base.tick_s = 1.0;
  base.warmup_intervals = 1;
  base.feature_window_s = 60.0;
  base.feature_timesteps = 16;
  base.session.engagement.catalog.videos_per_category = 30;
  base.compressor.epochs_per_fit = 1;
  base.grouping.k_min = 2;
  base.grouping.k_max = 4;
  base.grouping.ddqn.hidden = {16};
  base.grouping.kmeans.restarts = 2;
  base.recommender.playlist_size = 16;
  return cfg;
}

TEST(SimulationFleet, ShardsUsersNearEvenly) {
  SimulationFleet fleet(fast_fleet(10, 3));
  ASSERT_EQ(fleet.shard_count(), 3u);
  EXPECT_EQ(fleet.shard(0).config().user_count, 4u);
  EXPECT_EQ(fleet.shard(1).config().user_count, 3u);
  EXPECT_EQ(fleet.shard(2).config().user_count, 3u);
  EXPECT_EQ(fleet.user_count(), 10u);
  for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
    EXPECT_EQ(fleet.shard_cell(s), s);
  }
}

TEST(SimulationFleet, ShardSeedsDiffer) {
  SimulationFleet fleet(fast_fleet(30, 3));
  EXPECT_NE(fleet.shard(0).config().seed, fleet.shard(1).config().seed);
  EXPECT_NE(fleet.shard(1).config().seed, fleet.shard(2).config().seed);
}

TEST(SimulationFleet, AggregatesMatchShardReports) {
  SimulationFleet fleet(fast_fleet());
  std::vector<FleetReport> reports;
  for (int i = 0; i < 3; ++i) {
    reports.push_back(fleet.run_interval());
  }
  for (const FleetReport& r : reports) {
    ASSERT_EQ(r.shards.size(), fleet.shard_count());
    double pred = 0.0;
    double act = 0.0;
    std::size_t grouped = 0;
    for (const auto& shard : r.shards) {
      pred += shard.predicted_radio_hz_total;
      act += shard.actual_radio_hz_total;
      if (shard.grouped) {
        ++grouped;
      }
    }
    EXPECT_DOUBLE_EQ(r.predicted_radio_hz_total, pred);
    EXPECT_DOUBLE_EQ(r.actual_radio_hz_total, act);
    EXPECT_EQ(r.grouped_shards, grouped);
    EXPECT_EQ(r.user_count, fleet.config().total_users);
  }
  // After warm-up every shard has predictions and the error distribution
  // covers all of them.
  const FleetReport& last = reports.back();
  EXPECT_EQ(last.grouped_shards, fleet.shard_count());
  EXPECT_EQ(last.shard_radio_error.count(), fleet.shard_count());
  EXPECT_GT(last.group_radio_error.count(), 0u);
  EXPECT_GT(last.actual_radio_hz_total, 0.0);
  if (last.actual_radio_hz_total > 0.0) {
    const double err =
        std::abs(last.predicted_radio_hz_total - last.actual_radio_hz_total) /
        last.actual_radio_hz_total;
    EXPECT_NEAR(last.radio_error, err, 1e-12);
  }
}

/// The scale-out acceptance criterion: the fleet report is bit-identical
/// for any thread-pool size (same seed -> same aggregate report).
TEST(SimulationFleet, BitIdenticalAcrossThreadCounts) {
  std::vector<std::vector<FleetReport>> runs;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    util::set_thread_count(threads);
    SimulationFleet fleet(fast_fleet(36, 3, 7));
    std::vector<FleetReport>& reports = runs.emplace_back();
    for (int i = 0; i < 3; ++i) {
      reports.push_back(fleet.run_interval());
    }
  }
  util::set_thread_count(0);  // restore env/hardware default

  const auto& ref = runs.front();
  for (std::size_t run = 1; run < runs.size(); ++run) {
    ASSERT_EQ(runs[run].size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const FleetReport& a = ref[i];
      const FleetReport& b = runs[run][i];
      EXPECT_DOUBLE_EQ(a.predicted_radio_hz_total, b.predicted_radio_hz_total);
      EXPECT_DOUBLE_EQ(a.actual_radio_hz_total, b.actual_radio_hz_total);
      EXPECT_DOUBLE_EQ(a.predicted_compute_total, b.predicted_compute_total);
      EXPECT_DOUBLE_EQ(a.actual_compute_total, b.actual_compute_total);
      EXPECT_DOUBLE_EQ(a.radio_error, b.radio_error);
      ASSERT_EQ(a.shards.size(), b.shards.size());
      for (std::size_t s = 0; s < a.shards.size(); ++s) {
        EXPECT_EQ(a.shards[s].k, b.shards[s].k);
        EXPECT_DOUBLE_EQ(a.shards[s].silhouette, b.shards[s].silhouette);
        EXPECT_DOUBLE_EQ(a.shards[s].actual_radio_hz_total,
                         b.shards[s].actual_radio_hz_total);
        EXPECT_DOUBLE_EQ(a.shards[s].predicted_radio_hz_total,
                         b.shards[s].predicted_radio_hz_total);
      }
      if (!a.shard_radio_error.empty()) {
        EXPECT_DOUBLE_EQ(a.shard_radio_error.mean(), b.shard_radio_error.mean());
        EXPECT_DOUBLE_EQ(a.group_radio_error.mean(), b.group_radio_error.mean());
      }
    }
  }
}

TEST(SimulationFleet, SurgeShardJoinsItsCell) {
  SimulationFleet fleet(fast_fleet(30, 3));
  for (int i = 0; i < 2; ++i) {
    fleet.run_interval();
  }
  const std::size_t before = fleet.user_count();
  fleet.add_surge_shard(/*cell=*/1, /*users=*/15);
  EXPECT_EQ(fleet.shard_count(), 4u);
  EXPECT_EQ(fleet.shard_cell(3), 1u);
  EXPECT_EQ(fleet.user_count(), before + 15);

  // The surge shard starts cold: it warms up while the veterans keep
  // predicting, then joins the grouped population.
  const FleetReport first = fleet.run_interval();
  EXPECT_FALSE(first.shards.back().grouped);
  EXPECT_EQ(first.grouped_shards, 3u);
  EXPECT_EQ(first.user_count, before + 15);
  const FleetReport second = fleet.run_interval();
  EXPECT_TRUE(second.shards.back().grouped);
  EXPECT_EQ(second.grouped_shards, 4u);
}

TEST(SimulationFleet, ChurnSwapsAffinitiesAndResetsTwins) {
  SimulationFleet fleet(fast_fleet(24, 2, 11));
  for (int i = 0; i < 2; ++i) {  // build twin history first
    fleet.run_interval();
  }

  // Collect the multiset of affinity vectors before the handovers.
  std::vector<double> before;
  for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
    for (const auto& aff : fleet.shard(s).true_affinities()) {
      before.insert(before.end(), aff.begin(), aff.end());
    }
  }

  const std::size_t handed = fleet.churn(0.5);
  EXPECT_GT(handed, 0u);
  EXPECT_EQ(handed % 2, 0u);  // handovers are pairwise swaps
  EXPECT_EQ(fleet.user_count(), 24u);

  // Handover permutes users across cells but conserves the population:
  // the sorted concatenation of all affinity components is unchanged.
  std::vector<double> after;
  std::size_t reset_twins = 0;
  for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
    const auto& sim = fleet.shard(s);
    for (const auto& aff : sim.true_affinities()) {
      after.insert(after.end(), aff.begin(), aff.end());
    }
    for (std::size_t u = 0; u < sim.config().user_count; ++u) {
      if (sim.twins().columns().channel_column().empty(u)) {
        ++reset_twins;  // newcomer: twin history wiped by the handover
      }
    }
  }
  std::sort(before.begin(), before.end());
  std::sort(after.begin(), after.end());
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_DOUBLE_EQ(before[i], after[i]);
  }
  EXPECT_GT(reset_twins, 0u);
  EXPECT_LE(reset_twins, handed);  // a slot can be handed over twice
}

TEST(SimulationFleet, ChurnRecyclingNeverLeaksHistoryIntoSnapshots) {
  // A mobility_churn handover recycles the twin slot in place (columnar
  // ring reset). The next snapshot of each shard, through the same arena,
  // must give the recycled slots all-zero windows and every untouched user
  // the same bytes as before.
  SimulationFleet fleet(fast_fleet(24, 2, 11));
  for (int i = 0; i < 2; ++i) {  // build twin history first
    fleet.run_interval();
  }

  const dtmsv::twin::FeatureScaling scaling{1200.0, 1000.0, 10.0, 40.0};
  std::vector<dtmsv::twin::FeatureArena> arenas(fleet.shard_count());
  std::vector<std::vector<float>> before(fleet.shard_count());
  for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
    const dtmsv::twin::WindowSpec spec{fleet.shard(s).now(), 60.0, 16, scaling};
    const auto batch =
        fleet.shard(s).twins().columns().feature_windows(spec, arenas[s]);
    before[s].assign(batch.data(),
                     batch.data() + batch.size() * batch.window_size());
  }

  core::CollectingSink sink;
  const std::size_t handed = fleet.churn(0.5, &sink);
  ASSERT_GT(handed, 0u);
  ASSERT_EQ(sink.handovers.size() * 2, handed);

  std::vector<std::set<std::size_t>> recycled(fleet.shard_count());
  for (const core::HandoverEvent& ev : sink.handovers) {
    recycled[ev.shard_a].insert(ev.slot_a);
    recycled[ev.shard_b].insert(ev.slot_b);
  }
  for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
    const auto& sim = fleet.shard(s);
    const dtmsv::twin::WindowSpec spec{sim.now(), 60.0, 16, scaling};
    const auto batch = sim.twins().columns().feature_windows(spec, arenas[s]);
    for (std::size_t u = 0; u < batch.size(); ++u) {
      const auto row = batch.row(u);
      if (recycled[s].count(u) > 0) {
        for (const float v : row) {
          EXPECT_EQ(v, 0.0f) << "shard " << s << " slot " << u
                             << " leaked history through a handover";
        }
        EXPECT_TRUE(sim.twins().columns().channel_column().empty(u));
      } else {
        for (std::size_t i = 0; i < row.size(); ++i) {
          EXPECT_EQ(row[i], before[s][u * batch.window_size() + i]);
        }
      }
    }
  }
}

TEST(SimulationFleet, ChurnIsStrictlyInterCell) {
  // A surge shard shares its cell with the base shard it joined: churn
  // must never pair them (a same-cell "handover" would wipe twin state
  // for users that never left the cell). With one cell there is nowhere
  // to hand over to at all, surge shards or not.
  SimulationFleet fleet(fast_fleet(12, 1, 17));
  fleet.add_surge_shard(0, 6);
  ASSERT_EQ(fleet.shard_count(), 2u);
  EXPECT_EQ(fleet.churn(1.0), 0u);
}

TEST(SimulationFleet, ChurnDeterministicPerSeed) {
  const auto run_churned = [] {
    SimulationFleet fleet(fast_fleet(24, 3, 13));
    std::vector<FleetReport> reports;
    for (int i = 0; i < 3; ++i) {
      if (i > 0) {
        fleet.churn(0.2);
      }
      reports.push_back(fleet.run_interval());
    }
    return reports;
  };
  const auto a = run_churned();
  const auto b = run_churned();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].actual_radio_hz_total, b[i].actual_radio_hz_total);
    EXPECT_DOUBLE_EQ(a[i].predicted_radio_hz_total, b[i].predicted_radio_hz_total);
  }
}

TEST(SimulationFleet, SteadyStateTwinsKeepOnlyWhatTheWindowReads) {
  // The canonical steady-state cell: 120 s feature window, 1 Hz channel,
  // 5 s location and 60 s preference reports. Rings that retain by time
  // settle near 128/32/32/8 slots; the fixed 2048/512/256/128 rings held
  // 85.6 KiB per user.
  const core::ScenarioConfig scenario =
      core::make_scenario(core::ScenarioKind::kSteadyState, 240, 4, 7);
  FleetConfig cfg;
  cfg.base = scenario.base;
  cfg.cell_count = scenario.cell_count;
  cfg.total_users = scenario.total_users;
  cfg.seed = scenario.seed;
  SimulationFleet fleet(cfg);
  for (int i = 0; i < 4; ++i) {  // past warm-up, with windows full of history
    fleet.run_interval();
  }
  for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
    const core::Simulation& sim = fleet.shard(s);
    const twin::TwinColumnStore& columns = sim.twins().columns();
    EXPECT_LT(columns.bytes() / sim.config().user_count, 8u * 1024u) << "shard " << s;
    EXPECT_GE(columns.channel_column().capacity(), 120u) << "shard " << s;
  }
}

TEST(SimulationFleet, InvalidConfigRejected) {
  FleetConfig cfg = fast_fleet();
  cfg.cell_count = 0;
  EXPECT_THROW(SimulationFleet{cfg}, util::PreconditionError);
  cfg = fast_fleet();
  cfg.total_users = cfg.cell_count - 1;
  EXPECT_THROW(SimulationFleet{cfg}, util::PreconditionError);
}

}  // namespace
