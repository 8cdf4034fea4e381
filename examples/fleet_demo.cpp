// Fleet demo: the multi-cell scenario library end-to-end.
//
// Runs all four named workloads (steady-state, flash crowd, mobility
// churn, catalog drift) on a reduced fleet through the library API and
// prints their summary, then walks through the flash-crowd run interval by
// interval so the surge is visible in the aggregate demand. To run a
// workload from a config file instead, use `dtmsv_sim configs/<name>.ini`.
//
//   $ ./fleet_demo
#include <iostream>
#include <string>

#include "core/scenarios.hpp"
#include "util/table.hpp"

namespace {

using namespace dtmsv;

/// Streaming ReportSink watching the run live: per-group reports arrive
/// as they happen, nothing is buffered.
struct FleetWatcher final : core::ReportSink {
  std::size_t groups_seen = 0;
  void on_group(const core::GroupReport&, util::IntervalId) override {
    ++groups_seen;
  }
};

void print_interval_detail(const std::string& label,
                           const core::ScenarioResult& result) {
  util::Table detail({"interval", "users", "grouped shards", "predicted MHz",
                      "actual MHz", "fleet err", "worst cell err"});
  for (const core::FleetReport& r : result.reports) {
    const bool predicting = !r.shard_radio_error.empty();
    detail.add_row(
        {std::to_string(r.interval), std::to_string(r.user_count),
         std::to_string(r.grouped_shards) + "/" + std::to_string(r.shards.size()),
         predicting ? util::fixed(r.predicted_radio_hz_total / 1e6, 3) : "-",
         predicting ? util::fixed(r.actual_radio_hz_total / 1e6, 3) : "-",
         predicting ? util::percent(r.radio_error, 1) : "-",
         predicting ? util::percent(r.shard_radio_error.max(), 1) : "-"});
  }
  detail.print("per-interval fleet aggregates: " + label);
}

}  // namespace

int main() {
  constexpr std::size_t kUsers = 240;
  constexpr std::size_t kCells = 4;

  // 1. Every named scenario at the same scale: one row per workload.
  util::Table summary({"scenario", "peak users", "cells", "handovers",
                       "radio accuracy", "compute accuracy"});
  for (const core::ScenarioKind kind : core::all_scenarios()) {
    core::ScenarioConfig cfg = core::make_scenario(kind, kUsers, kCells, 7);
    cfg.intervals = 5;
    const core::ScenarioResult result = core::run_scenario(cfg);
    summary.add_row({core::to_string(kind), std::to_string(result.peak_users),
                     std::to_string(kCells), std::to_string(result.handovers),
                     util::percent(result.radio_accuracy, 1),
                     util::percent(result.compute_accuracy, 1)});
  }
  summary.print("dtmsv fleet demo: four workloads, " + std::to_string(kUsers) +
                " users / " + std::to_string(kCells) + " cells");

  // 2. Flash crowd in detail: per-interval fleet aggregates. The surge
  //    lands in interval 2, warms up, then its demand joins the totals.
  FleetWatcher watcher;
  core::ScenarioConfig crowd =
      core::make_scenario(core::ScenarioKind::kFlashCrowd, kUsers, kCells, 7);
  crowd.intervals = 6;
  const core::ScenarioResult result = core::run_scenario(crowd, &watcher);
  print_interval_detail("flash_crowd", result);

  std::cout << "\nfleet radio demand prediction accuracy: "
            << util::percent(result.radio_accuracy, 2) << "\n"
            << "streamed group reports observed by the sink: "
            << watcher.groups_seen << "\n";
  return 0;
}
