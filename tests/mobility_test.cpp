// Unit tests for dtmsv::mobility — campus graph invariants, shortest paths,
// walker kinematics and leg speeds, and the lock-step mobility field.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "mobility/campus_map.hpp"
#include "mobility/random_waypoint.hpp"
#include "stats_check.hpp"
#include "util/error.hpp"

namespace {

using namespace dtmsv::mobility;
using dtmsv::util::PreconditionError;
using dtmsv::util::Rng;

TEST(Position, Distance) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
}

// ---------------------------------------------------------------- CampusMap

TEST(CampusMap, WaterlooCampusIsValid) {
  const CampusMap map = CampusMap::waterloo_campus();
  EXPECT_GT(map.waypoint_count(), 20u);
  EXPECT_GE(map.base_stations().size(), 3u);
  EXPECT_DOUBLE_EQ(map.width(), 1200.0);
  EXPECT_DOUBLE_EQ(map.height(), 1000.0);
  map.validate();  // must not throw
}

TEST(CampusMap, WaypointsInsideBoundingBox) {
  const CampusMap map = CampusMap::waterloo_campus();
  for (const auto& wp : map.waypoints()) {
    EXPECT_GE(wp.position.x, 0.0);
    EXPECT_LE(wp.position.x, map.width());
    EXPECT_GE(wp.position.y, 0.0);
    EXPECT_LE(wp.position.y, map.height());
  }
}

TEST(CampusMap, GridConstruction) {
  const CampusMap map = CampusMap::grid(4, 3, 100.0);
  EXPECT_EQ(map.waypoint_count(), 12u);
  EXPECT_DOUBLE_EQ(map.width(), 400.0);
  EXPECT_DOUBLE_EQ(map.height(), 300.0);
  // Corner has exactly 2 neighbours; interior node has 4.
  EXPECT_EQ(map.waypoint(0).neighbors.size(), 2u);
  EXPECT_EQ(map.waypoint(5).neighbors.size(), 4u);
}

TEST(CampusMap, GridRejectsDegenerate) {
  EXPECT_THROW(CampusMap::grid(1, 3, 10.0), PreconditionError);
  EXPECT_THROW(CampusMap::grid(3, 3, 0.0), PreconditionError);
}

TEST(CampusMap, ShortestPathOnGrid) {
  const CampusMap map = CampusMap::grid(3, 3, 100.0);
  // 0 -> 8 needs 4 hops (Manhattan), path has 5 nodes.
  const auto path = map.shortest_path(0, 8);
  ASSERT_EQ(path.size(), 5u);
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 8u);
  // Consecutive nodes are neighbours.
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const auto& nbrs = map.waypoint(path[i]).neighbors;
    EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), path[i + 1]), nbrs.end());
  }
}

TEST(CampusMap, ShortestPathToSelf) {
  const CampusMap map = CampusMap::grid(3, 3, 100.0);
  const auto path = map.shortest_path(4, 4);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], 4u);
}

TEST(CampusMap, AllWaterlooPairsReachable) {
  const CampusMap map = CampusMap::waterloo_campus();
  for (std::size_t to = 1; to < map.waypoint_count(); ++to) {
    EXPECT_FALSE(map.shortest_path(0, to).empty())
        << "waypoint " << to << " unreachable from 0";
  }
}

TEST(CampusMap, RandomPositionInBounds) {
  const CampusMap map = CampusMap::waterloo_campus();
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const Position p = map.random_position(rng);
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, map.width());
    EXPECT_GE(p.y, 0.0);
    EXPECT_LT(p.y, map.height());
  }
}

// ------------------------------------------------------------------- Walker

MobilityConfig walker_config() {
  MobilityConfig cfg;
  cfg.min_speed_mps = 1.0;
  cfg.max_speed_mps = 1.5;
  cfg.min_pause_s = 0.0;
  cfg.max_pause_s = 5.0;
  return cfg;
}

TEST(Walker, SpeedBoundsMovement) {
  const CampusMap map = CampusMap::waterloo_campus();
  const MobilityConfig cfg = walker_config();
  Walker w(map, cfg, Rng(7));
  Position prev = w.position();
  for (int i = 0; i < 500; ++i) {
    w.advance(1.0);
    const double moved = distance(prev, w.position());
    // Movement per second can never exceed max speed.
    EXPECT_LE(moved, cfg.max_speed_mps + 1e-6);
    prev = w.position();
  }
}

TEST(Walker, EventuallyMoves) {
  const CampusMap map = CampusMap::waterloo_campus();
  Walker w(map, walker_config(), Rng(8));
  const Position start = w.position();
  double total_moved = 0.0;
  Position prev = start;
  for (int i = 0; i < 600; ++i) {
    w.advance(1.0);
    total_moved += distance(prev, w.position());
    prev = w.position();
  }
  EXPECT_GT(total_moved, 100.0) << "walker barely moved in 10 minutes";
}

TEST(Walker, AdvanceRejectsNonPositiveDt) {
  const CampusMap map = CampusMap::waterloo_campus();
  Walker w(map, walker_config(), Rng(9));
  EXPECT_THROW(w.advance(0.0), PreconditionError);
  EXPECT_THROW(w.advance(-1.0), PreconditionError);
}

TEST(Walker, DeterministicGivenSeed) {
  const CampusMap map = CampusMap::waterloo_campus();
  Walker a(map, walker_config(), Rng(10));
  Walker b(map, walker_config(), Rng(10));
  for (int i = 0; i < 100; ++i) {
    a.advance(1.0);
    b.advance(1.0);
  }
  EXPECT_DOUBLE_EQ(a.position().x, b.position().x);
  EXPECT_DOUBLE_EQ(a.position().y, b.position().y);
}

TEST(Walker, LargeTimestepEquivalentDistance) {
  // Total distance walked is conserved regardless of tick granularity
  // (same seed → same waypoint/speed stream; no pauses for comparability).
  const CampusMap map = CampusMap::waterloo_campus();
  MobilityConfig cfg = walker_config();
  cfg.max_pause_s = 0.0;
  cfg.min_pause_s = 0.0;
  Walker fine(map, cfg, Rng(11));
  Walker coarse(map, cfg, Rng(11));
  for (int i = 0; i < 300; ++i) {
    fine.advance(1.0);
  }
  for (int i = 0; i < 30; ++i) {
    coarse.advance(10.0);
  }
  EXPECT_NEAR(fine.position().x, coarse.position().x, 1e-6);
  EXPECT_NEAR(fine.position().y, coarse.position().y, 1e-6);
}

/// The speed of every leg that `walkers` walkers (independent seeds) start
/// within `seconds` of walking: one at spawn, one per new destination.
std::vector<double> leg_speeds(const MobilityConfig& cfg, std::size_t walkers, int seconds) {
  const CampusMap map = CampusMap::waterloo_campus();
  Rng seeds(2024);
  std::vector<double> speeds;
  for (std::size_t i = 0; i < walkers; ++i) {
    Walker w(map, cfg, seeds.fork(i));
    speeds.push_back(w.speed_mps());
    for (int t = 0; t < seconds; t += 10) {
      w.advance(10.0);
      if (w.speed_mps() != speeds.back()) {  // a continuous draw repeats with p = 0
        speeds.push_back(w.speed_mps());
      }
    }
  }
  return speeds;
}

/// CDF of U(lo, hi).
auto uniform_cdf(double lo, double hi) {
  return [lo, hi](double x) { return std::clamp((x - lo) / (hi - lo), 0.0, 1.0); };
}

TEST(Walker, LegSpeedsAreUniformOverTheConfiguredRange) {
  // Each leg's speed is drawn from U(min_speed_mps, max_speed_mps). Only
  // the speeds are tested: positions on the campus graph follow shortest
  // paths between random waypoints and have no closed-form stationary
  // distribution to test them against.
  MobilityConfig cfg;
  cfg.max_pause_s = 5.0;
  const std::vector<double> speeds = leg_speeds(cfg, 1500, 3000);
  ASSERT_GT(speeds.size(), 10'000u);
  const auto ks = dtmsv::testing::ks::one_sample(
      speeds, uniform_cdf(cfg.min_speed_mps, cfg.max_speed_mps));
  EXPECT_GT(ks.p, 1e-3) << "sqrt(n)·D = " << ks.scaled_d;
  // Negative control: the test has the power to reject a range shifted by
  // 4% of its width.
  const double shift = 0.04 * (cfg.max_speed_mps - cfg.min_speed_mps);
  EXPECT_LT(dtmsv::testing::ks::one_sample(
                speeds, uniform_cdf(cfg.min_speed_mps + shift, cfg.max_speed_mps + shift))
                .p,
            1e-6);
}

// ------------------------------------------------------------ MobilityField

TEST(MobilityField, PopulationSnapshot) {
  const CampusMap map = CampusMap::waterloo_campus();
  Rng rng(12);
  MobilityField field(map, walker_config(), 25, rng);
  EXPECT_EQ(field.user_count(), 25u);
  const auto snap = field.snapshot();
  ASSERT_EQ(snap.size(), 25u);
  field.advance(5.0);
  for (const auto& p : field.snapshot()) {
    EXPECT_TRUE(std::isfinite(p.x));
    EXPECT_TRUE(std::isfinite(p.y));
  }
}

TEST(MobilityField, UsersSpreadOut) {
  const CampusMap map = CampusMap::waterloo_campus();
  Rng rng(13);
  MobilityField field(map, walker_config(), 40, rng);
  const auto snap = field.snapshot();
  double max_pairwise = 0.0;
  for (std::size_t i = 0; i < snap.size(); ++i) {
    for (std::size_t j = i + 1; j < snap.size(); ++j) {
      max_pairwise = std::max(max_pairwise, distance(snap[i], snap[j]));
    }
  }
  EXPECT_GT(max_pairwise, 200.0);
}

TEST(MobilityField, OutOfRangeUserRejected) {
  const CampusMap map = CampusMap::waterloo_campus();
  Rng rng(14);
  MobilityField field(map, walker_config(), 3, rng);
  EXPECT_THROW(field.position_of(3), PreconditionError);
}

TEST(MobilityField, ZeroUsersRejected) {
  const CampusMap map = CampusMap::waterloo_campus();
  Rng rng(15);
  EXPECT_THROW(MobilityField(map, walker_config(), 0, rng), PreconditionError);
}

}  // namespace
