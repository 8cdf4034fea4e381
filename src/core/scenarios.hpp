// Scenario library: named multi-cell workloads over core::SimulationFleet.
// Each scenario is a deterministic schedule of fleet events layered on a
// shared smoke-friendly base configuration, so the same workload runs as a
// ctest smoke case (dozens of users) or a macro-bench (10k users/16 cells)
// purely by scaling total_users/cell_count.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/fleet.hpp"

namespace dtmsv::core {

/// The four canonical workloads.
enum class ScenarioKind {
  kSteadyState,    // stationary population, tastes and catalog
  kFlashCrowd,     // mid-run user surge into one cell
  kMobilityChurn,  // users handed over between cells every interval
  kCatalogDrift,   // per-interval taste drift + popularity decay stress
};

inline constexpr std::size_t kScenarioKindCount = 4;

/// All scenario kinds, in enum order.
const std::array<ScenarioKind, kScenarioKindCount>& all_scenarios();

/// Scenario name ("steady_state", "flash_crowd", ...).
std::string to_string(ScenarioKind kind);

/// A fully specified scenario run.
struct ScenarioConfig {
  ScenarioKind kind = ScenarioKind::kSteadyState;
  std::size_t total_users = 480;
  std::size_t cell_count = 4;
  std::size_t intervals = 6;
  std::uint64_t seed = 42;

  // Flash crowd: `surge_fraction` of total_users arrive in `surge_cell`
  // at the start of interval `surge_interval`.
  std::size_t surge_interval = 2;
  std::size_t surge_cell = 0;
  double surge_fraction = 0.5;

  // Mobility churn: fraction of users handed over before each interval
  // (after the first, so cold twins exist to disturb).
  double churn_fraction = 0.08;

  /// Per-cell scheme; make_scenario() fills a smoke-friendly base and the
  /// kind-specific knobs, callers may tweak afterwards.
  SchemeConfig base{};
};

/// Validates a scenario (the fleet it builds, see validate(FleetConfig);
/// then intervals > 0, finite surge_fraction >= 0, surge_cell <
/// cell_count, churn_fraction in [0, 1]), throwing util::PreconditionError
/// with the offending field. Called by run_scenario; the scenario loader
/// calls it too, so a bad grid fails before its first job.
void validate(const ScenarioConfig& config);

/// Builds the canonical configuration of `kind` at the requested scale.
ScenarioConfig make_scenario(ScenarioKind kind, std::size_t total_users,
                             std::size_t cell_count, std::uint64_t seed = 42);

/// Outcome of a scenario run.
struct ScenarioResult {
  ScenarioKind kind = ScenarioKind::kSteadyState;
  std::vector<FleetReport> reports;
  std::size_t peak_users = 0;
  std::size_t handovers = 0;  // mobility churn only
  /// Paper metric (1 − MAPE, floored at 0) on fleet radio totals over the
  /// intervals that had predictions; 0 when none did.
  double radio_accuracy = 0.0;
  /// Volume-weighted accuracy on fleet compute totals (robust to bursty
  /// per-interval transcode loads).
  double compute_accuracy = 0.0;
  /// Bytes the shards' twin columns hold at the end of the run (rings only
  /// grow, so this is also their peak).
  std::size_t twin_bytes = 0;
};

/// Runs the scenario start to finish on a fresh fleet. When `sink` is
/// non-null it observes the full report stream (per-group, per-shard
/// interval, and churn handover events) in deterministic order while the
/// scenario executes — consumers aggregate on the fly instead of walking
/// `ScenarioResult::reports` afterwards.
ScenarioResult run_scenario(const ScenarioConfig& config,
                            ReportSink* sink = nullptr);

}  // namespace dtmsv::core
