// Multi-seed accuracy gate: the paper's headline metric, radio and compute
// demand-prediction accuracy, averaged over 16 seeds of steady_state at two
// population sizes and of mobility_churn (handovers redraw channel state
// every interval) at 240 users. A model change that shifts any
// distribution the simulator draws from (channel, mobility, behaviour) must
// keep each mean above its floor: a reference 16-seed mean minus 4
// standard errors of that mean.
//
// Each run is single-threaded; the 48 runs share the thread pool (nested
// parallel_for calls run inline, so every run is bit-identical to a
// DTMSV_THREADS=1 run of the same seed).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/scenarios.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace {

using namespace dtmsv;

constexpr std::size_t kSeeds = 16;
constexpr std::size_t kIntervals = 8;
constexpr std::size_t kCells = 4;

struct Gate {
  core::ScenarioKind kind;
  std::size_t users;
  double radio_floor;    // percent
  double compute_floor;  // percent
};

struct Accuracy {
  double radio = 0.0;
  double compute = 0.0;
  bool ok = false;
};

std::vector<Accuracy> run_seeds(core::ScenarioKind kind, std::size_t users) {
  std::vector<Accuracy> out(kSeeds);
  util::parallel_for(0, kSeeds, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      try {
        core::ScenarioConfig cfg = core::make_scenario(kind, users, kCells, /*seed=*/i + 1);
        cfg.intervals = kIntervals;
        const core::ScenarioResult result = core::run_scenario(cfg);
        out[i] = {100.0 * result.radio_accuracy, 100.0 * result.compute_accuracy, true};
      } catch (...) {
        out[i].ok = false;  // reported by the caller; a worker must not throw
      }
    }
  });
  return out;
}

void expect_mean_above(const std::vector<Accuracy>& runs, double Accuracy::*metric,
                       double floor, const char* name, std::size_t users) {
  util::RunningStats stats;
  for (const Accuracy& a : runs) {
    stats.add(a.*metric);
  }
  const double se = stats.stddev() / std::sqrt(static_cast<double>(stats.count()));
  std::printf("%zu users: %s accuracy %.3f%% ± %.3f SE over %zu seeds (floor %.2f%%)\n",
              users, name, stats.mean(), se, stats.count(), floor);
  EXPECT_GE(stats.mean(), floor) << users << " users, " << name << " accuracy";
}

class AccuracyGate : public ::testing::TestWithParam<Gate> {};

TEST_P(AccuracyGate, SixteenSeedMeanAboveFloor) {
  const Gate gate = GetParam();
  const std::vector<Accuracy> runs = run_seeds(gate.kind, gate.users);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    ASSERT_TRUE(runs[i].ok) << "seed " << i + 1 << " failed to run";
  }
  expect_mean_above(runs, &Accuracy::radio, gate.radio_floor, "radio", gate.users);
  expect_mean_above(runs, &Accuracy::compute, gate.compute_floor, "compute", gate.users);
}

std::string gate_name(const ::testing::TestParamInfo<Gate>& info) {
  return std::to_string(info.param.users) + "Users";
}

INSTANTIATE_TEST_SUITE_P(SteadyState, AccuracyGate,
                         // Box–Muller reference (seeds 1..16): 240 users radio
                         // 95.308 ± 0.394, compute 94.859 ± 1.107; 1200 users
                         // radio 89.480 ± 0.701, compute 92.685 ± 1.881.
                         ::testing::Values(Gate{core::ScenarioKind::kSteadyState, 240,
                                                93.73, 90.43},
                                           Gate{core::ScenarioKind::kSteadyState, 1200,
                                                86.67, 85.16}),
                         gate_name);

INSTANTIATE_TEST_SUITE_P(MobilityChurn, AccuracyGate,
                         // Reference: the libm log10/exp channel tick (seeds
                         // 1..16): radio 94.792 ± 0.468, compute 94.923 ± 0.590.
                         ::testing::Values(Gate{core::ScenarioKind::kMobilityChurn, 240,
                                                92.92, 92.56}),
                         gate_name);

}  // namespace
