// Declarative scenario configs -> runnable scenario jobs.
//
// This is the mapping layer behind the `dtmsv_sim` CLI (tools/dtmsv_sim.cpp):
// a util::Config parsed from an INI file is turned into one or more fully
// validated core::ScenarioConfig jobs, so a new workload variation is a
// 15-line config instead of a recompiled .cpp.
//
// Recognised keys (all optional unless stated; defaults come from
// core::make_scenario's smoke-friendly base):
//
//   [scenario] kind (required unless [grid] scenario is set) |
//              total_users | cell_count | intervals | seed |
//              surge_interval | surge_cell | surge_fraction |
//              churn_fraction | drift_rate | drift_popularity_forgetting
//   [run]      threads (0 = hardware default) | report (NDJSON output path)
//   [stages]   feature | grouping | demand  (StageRegistry keys; validated
//              against the registry, unknown keys list the known ones) |
//              fixed_k
//   [scheme]   interval_s | tick_s | warmup_intervals | feature_window_s |
//              feature_timesteps | affinity_concentration |
//              affinity_drift_rate | swiping_bins | swiping_forgetting |
//              popularity_forgetting | online_bias_correction |
//              videos_per_category | playlist_size
//   [grouping] k_min | k_max | kmeans_restarts
//   [grid]     scenario | seed | feature | grouping | demand — comma lists;
//              the plan is the cross product (the ablation-grid config).
//              A grid list and its single-value form (grid.seed vs
//              scenario.seed, grid.feature vs stages.feature, ...) are
//              mutually exclusive — the single value would be silently
//              shadowed, so setting both is an error
//
// Any key the loader does not recognise is an error (util::RuntimeError
// listing the offenders) — typos in declarative configs must not silently
// alter nothing.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/scenarios.hpp"
#include "util/config.hpp"

namespace dtmsv::cli {

/// One scenario run of the plan. `label` is unique within the plan
/// ("flash_crowd", or "flash_crowd/seed=7/summary+elbow+mean" for grid
/// cells).
struct SimJob {
  std::string label;
  core::ScenarioConfig scenario;
};

/// Everything a driver needs to execute a config file.
struct SimPlan {
  std::size_t threads = 0;   // [run] threads; 0 = library default
  std::string report_path;   // [run] report; empty = no NDJSON stream
  std::vector<SimJob> jobs;  // 1 for plain configs, the cross product for grids
};

/// "steady_state" -> ScenarioKind::kSteadyState etc.; throws
/// util::RuntimeError listing the valid names on anything else.
core::ScenarioKind parse_scenario_kind(const std::string& name);

/// Builds the run plan. Reads every recognised key from `config` and then
/// rejects the file if any key was left unread. Stage keys are validated
/// against core::StageRegistry and every job against core::validate; a
/// rejected value throws util::RuntimeError carrying the check's message
/// alone.
SimPlan load_plan(util::Config& config);

}  // namespace dtmsv::cli
