// Maps a declarative INI config ([serve]/[workload]/[run] sections) to a
// ServePlan for tools/dtmsv_serve.cpp. Same contract as scenario_loader:
// typed getters with named errors, stage/ladder keys validated against the
// StageRegistry up front, and unknown keys rejected so typos cannot
// silently alter nothing. See configs/serve_steady.ini for the reference
// config and README.md ("Serving mode") for the key reference.
#pragma once

#include <cstddef>
#include <string>

#include "core/serve.hpp"
#include "core/serve_workload.hpp"
#include "util/config.hpp"

namespace dtmsv::cli {

/// One serve run: the loop config, the synthetic workload driving it, and
/// the overload phase (rate multiplier applied to a window of intervals).
struct ServePlan {
  std::size_t threads = 0;          // [run] threads (0 = hardware default)
  std::string report_path;          // [run] report ("" = no NDJSON)
  std::size_t intervals = 12;       // [serve] intervals to fire
  core::ServeConfig serve{};
  core::ServeWorkloadConfig workload{};
  /// Overload phase: workload rate multiplied by `overload_multiplier`
  /// for intervals [overload_start, overload_start + overload_intervals).
  std::size_t overload_start = 0;
  std::size_t overload_intervals = 0;
  double overload_multiplier = 1.0;
};

/// Parses a ladder item "key" (e.g. "cnn, summary"); the rung name is the
/// item text itself. A ':full' or ':incremental' suffix is accepted and
/// ignored, held for the perfbench harness.
core::DegradationLevel parse_ladder_level(const std::string& item);

/// Builds the plan, validating everything (registry keys, ladder syntax,
/// core::validate's ranges) and throwing util::RuntimeError on unknown
/// keys or rejected values; a range error carries core::validate's message
/// alone.
ServePlan load_serve_plan(util::Config& config);

}  // namespace dtmsv::cli
