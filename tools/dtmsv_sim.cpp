// dtmsv_sim — declarative scenario harness.
//
// Runs named multi-cell workloads (and stage-ablation grids) from an INI
// config file through core::run_scenario, streaming every per-group,
// per-interval and per-handover record as NDJSON and printing a
// human-readable summary. The scriptable entry point CI's scenario-matrix
// job drives; see configs/ for one config per named scenario plus the
// ablation grid, and README.md ("Running scenarios from the command line")
// for the config-format and NDJSON-schema reference.
//
//   $ dtmsv_sim configs/flash_crowd.ini --out flash_crowd.ndjson
//   $ dtmsv_sim configs/ablation_grid.ini --set scenario.total_users=96
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "cli/front_end.hpp"
#include "cli/scenario_loader.hpp"
#include "core/json_sink.hpp"
#include "core/pipeline.hpp"
#include "core/scenarios.hpp"
#include "util/config.hpp"
#include "util/table.hpp"

namespace {

constexpr const char* kUsage =
    "usage: dtmsv_sim <config.ini> [options]\n"
    "\n"
    "Runs the scenario(s) described by an INI config file (see configs/)\n"
    "through the multi-cell fleet, streaming NDJSON reports and printing\n"
    "a summary table per job.\n"
    "\n"
    "options:\n"
    "  --out PATH       stream NDJSON records to PATH ('-' = stdout);\n"
    "                   overrides the config's [run] report key\n"
    "  --set KEY=VALUE  override a config key (repeatable), e.g.\n"
    "                   --set scenario.total_users=96\n"
    "  --threads N      thread-pool size (overrides [run] threads;\n"
    "                   0 = hardware default)\n"
    "  --print-config   print the effective config after overrides, then exit\n"
    "  --list-stages    print the registered pipeline stage keys, then exit\n"
    "  --quiet          suppress the summary tables\n"
    "  --help           show this text\n"
    "\n"
    "exit status: 0 success, 1 config/runtime error, 2 usage error\n";

void list_stages() {
  const auto& registry = dtmsv::core::StageRegistry::instance();
  const auto print = [](const std::string& title,
                        const std::vector<std::string>& keys) {
    std::cout << title << ":";
    for (const std::string& key : keys) {
      std::cout << " " << key;
    }
    std::cout << "\n";
  };
  print("feature", registry.feature_keys());
  print("grouping", registry.grouping_keys());
  print("demand", registry.demand_keys());
}

/// {"type":"run",...} header so every job's records are self-describing
/// even when several grid jobs share one NDJSON file.
void write_run_meta(dtmsv::core::JsonReportSink& sink,
                    const dtmsv::cli::SimJob& job) {
  using dtmsv::core::json_string;
  const dtmsv::core::ScenarioConfig& s = job.scenario;
  dtmsv::cli::write_run_meta(
      sink,
      {{"label", json_string(job.label)},
       {"scenario", json_string(dtmsv::core::to_string(s.kind))},
       {"seed", std::to_string(s.seed)},
       {"total_users", std::to_string(s.total_users)},
       {"cell_count", std::to_string(s.cell_count)},
       {"intervals", std::to_string(s.intervals)}},
      {{"feature_stage", json_string(feature_stage_key(s.base))},
       {"grouping_stage", json_string(grouping_stage_key(s.base))},
       {"demand_stage", json_string(demand_stage_key(s.base))}});
}

void write_summary_meta(dtmsv::core::JsonReportSink& sink,
                        const dtmsv::cli::SimJob& job,
                        const dtmsv::core::ScenarioResult& result,
                        double wall_s) {
  using dtmsv::core::json_number;
  using dtmsv::core::json_string;
  sink.meta("summary",
            {{"label", json_string(job.label)},
             {"peak_users", std::to_string(result.peak_users)},
             {"handovers", std::to_string(result.handovers)},
             {"radio_accuracy", json_number(result.radio_accuracy)},
             {"compute_accuracy", json_number(result.compute_accuracy)},
             {"wall_s", json_number(wall_s)}});
}

void run(dtmsv::util::Config& config, const dtmsv::cli::Options& options) {
  using namespace dtmsv;
  cli::SimPlan plan = cli::load_plan(config);
  cli::ReportStream report = cli::start_run(options, plan.threads, plan.report_path);

  util::Table summary({"job", "peak users", "cells", "handovers",
                       "radio accuracy", "compute accuracy", "wall s"});
  std::size_t records = 0;
  for (const cli::SimJob& job : plan.jobs) {
    const auto started = std::chrono::steady_clock::now();
    core::ScenarioResult result;
    if (report.stream() != nullptr) {
      core::JsonReportSink sink(*report.stream());
      write_run_meta(sink, job);
      result = core::run_scenario(job.scenario, &sink);
      const double wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started)
              .count();
      write_summary_meta(sink, job, result, wall_s);
      records += sink.record_count();
    } else {
      result = core::run_scenario(job.scenario);
    }
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
            .count();
    summary.add_row({job.label, std::to_string(result.peak_users),
                     std::to_string(job.scenario.cell_count),
                     std::to_string(result.handovers),
                     util::percent(result.radio_accuracy, 1),
                     util::percent(result.compute_accuracy, 1),
                     util::fixed(wall_s, 2)});
  }
  report.finish();

  if (!options.quiet) {
    std::ostream& info = report.info();
    info << "\n== dtmsv_sim: " << options.config_path << " (" << plan.jobs.size()
         << " job" << (plan.jobs.size() == 1 ? "" : "s") << ") ==\n"
         << summary.to_string();
    if (report.stream() != nullptr) {
      info << "\n" << records << " NDJSON records written to " << report.name()
           << "\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  return dtmsv::cli::run_main({"dtmsv_sim", kUsage, list_stages}, argc, argv, run);
}
