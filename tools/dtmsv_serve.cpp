// dtmsv_serve — always-on streaming serving mode.
//
// Drives a core::ServeLoop with deterministic synthetic twin-report traffic
// (core::ServeWorkload) from an INI config ([serve]/[workload]/[run]
// sections): events are offered through the bounded admission queue, one
// prediction fires per interval boundary under the configured deadline
// budget, and the degradation ladder swaps pipeline fidelity under load.
// Streams every group/interval/degradation/drop record as NDJSON and prints
// a latency summary (p50/p95/p99, sustained events/sec). See configs/
// serve_steady.ini and serve_overload.ini, and README.md ("Serving mode").
//
//   $ dtmsv_serve configs/serve_steady.ini --out serve.ndjson
//   $ dtmsv_serve configs/serve_overload.ini --set serve.deadline_ms=20
#include <chrono>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "cli/front_end.hpp"
#include "cli/serve_loader.hpp"
#include "core/json_sink.hpp"
#include "core/pipeline.hpp"
#include "core/serve.hpp"
#include "core/serve_workload.hpp"
#include "util/config.hpp"
#include "util/table.hpp"

namespace {

constexpr const char* kUsage =
    "usage: dtmsv_serve <config.ini> [options]\n"
    "\n"
    "Runs the always-on serving mode described by an INI config file\n"
    "(see configs/serve_*.ini): synthetic twin-report traffic through\n"
    "the admission queue, one prediction per interval under the\n"
    "deadline budget, graceful degradation under overload.\n"
    "\n"
    "options:\n"
    "  --out PATH       stream NDJSON records to PATH ('-' = stdout);\n"
    "                   overrides the config's [run] report key\n"
    "  --set KEY=VALUE  override a config key (repeatable), e.g.\n"
    "                   --set serve.deadline_ms=20\n"
    "  --threads N      thread-pool size (overrides [run] threads;\n"
    "                   0 = hardware default)\n"
    "  --print-config   print the effective config after overrides, then exit\n"
    "  --quiet          suppress the summary table\n"
    "  --help           show this text\n"
    "\n"
    "exit status: 0 success, 1 config/runtime error, 2 usage error\n";

std::string ladder_to_string(const dtmsv::core::DegradationPolicyConfig& cfg) {
  std::string out;
  for (const auto& level : cfg.ladder) {
    if (!out.empty()) {
      out += " -> ";
    }
    out += level.name;
  }
  return out;
}

void write_run_meta(dtmsv::core::JsonReportSink& sink,
                    const dtmsv::cli::ServePlan& plan) {
  using dtmsv::core::json_number;
  using dtmsv::core::json_string;
  dtmsv::cli::write_run_meta(
      sink, {{"mode", json_string("serve")},
             {"seed", std::to_string(plan.serve.scheme.seed)},
             {"user_count", std::to_string(plan.serve.scheme.user_count)},
             {"intervals", std::to_string(plan.intervals)},
             {"interval_s", json_number(plan.serve.scheme.interval_s)},
             {"deadline_ms", json_number(plan.serve.deadline_ms)},
             {"queue_capacity", std::to_string(plan.serve.queue_capacity)},
             {"ladder", json_string(ladder_to_string(plan.serve.degradation))},
             {"grouping_stage", json_string(plan.serve.scheme.grouping_stage)},
             {"demand_stage", json_string(plan.serve.scheme.demand_stage)}});
}

void write_summary_meta(dtmsv::core::JsonReportSink& sink,
                        const dtmsv::core::ServeStats& stats,
                        std::uint64_t offered, double wall_s) {
  using dtmsv::core::json_number;
  const double events_per_s =
      wall_s > 0.0 ? static_cast<double>(stats.events_ingested) / wall_s : 0.0;
  sink.meta(
      "summary",
      {{"intervals", std::to_string(stats.intervals)},
       {"deadline_misses", std::to_string(stats.deadline_misses)},
       {"events_offered", std::to_string(offered)},
       {"events_ingested", std::to_string(stats.events_ingested)},
       {"events_dropped", std::to_string(stats.events_dropped)},
       {"steps_down", std::to_string(stats.steps_down)},
       {"steps_up", std::to_string(stats.steps_up)},
       {"latency_p50_ms",
        json_number(dtmsv::core::latency_percentile(stats.latencies_ms, 50.0))},
       {"latency_p95_ms",
        json_number(dtmsv::core::latency_percentile(stats.latencies_ms, 95.0))},
       {"latency_p99_ms",
        json_number(dtmsv::core::latency_percentile(stats.latencies_ms, 99.0))},
       {"events_per_s", json_number(events_per_s)},
       {"wall_s", json_number(wall_s)}});
}

void run(dtmsv::util::Config& config, const dtmsv::cli::Options& options) {
  using namespace dtmsv;
  cli::ServePlan plan = cli::load_serve_plan(config);
  cli::ReportStream report = cli::start_run(options, plan.threads, plan.report_path);

  std::unique_ptr<core::JsonReportSink> sink;
  if (report.stream() != nullptr) {
    sink = std::make_unique<core::JsonReportSink>(*report.stream());
    write_run_meta(*sink, plan);
  }

  core::SteadyServeClock clock;
  core::ServeLoop loop(plan.serve, clock, sink.get());
  core::ServeWorkload workload(plan.workload, loop.catalog());

  const double interval_s = plan.serve.scheme.interval_s;
  std::vector<core::TwinEvent> events;
  const auto started = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < plan.intervals; ++i) {
    const bool overload =
        plan.overload_intervals > 0 && i >= plan.overload_start &&
        i < plan.overload_start + plan.overload_intervals;
    workload.set_rate_multiplier(overload ? plan.overload_multiplier : 1.0);
    events.clear();
    workload.generate(static_cast<double>(i) * interval_s,
                      static_cast<double>(i + 1) * interval_s, events);
    for (const core::TwinEvent& event : events) {
      loop.offer(event);
    }
    loop.advance_to(static_cast<double>(i + 1) * interval_s);
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();

  const core::ServeStats& stats = loop.stats();
  const std::uint64_t offered = stats.events_ingested + stats.events_dropped;
  std::size_t records = 0;
  if (sink != nullptr) {
    write_summary_meta(*sink, stats, offered, wall_s);
    records = sink->record_count();
  }

  report.finish();

  if (!options.quiet) {
    std::ostream& info = report.info();
    util::Table summary({"intervals", "misses", "p50 ms", "p95 ms", "p99 ms",
                         "events/s", "ingested", "dropped", "down", "up"});
    const double events_per_s =
        wall_s > 0.0 ? static_cast<double>(stats.events_ingested) / wall_s
                     : 0.0;
    summary.add_row(
        {std::to_string(stats.intervals),
         std::to_string(stats.deadline_misses),
         util::fixed(core::latency_percentile(stats.latencies_ms, 50.0), 2),
         util::fixed(core::latency_percentile(stats.latencies_ms, 95.0), 2),
         util::fixed(core::latency_percentile(stats.latencies_ms, 99.0), 2),
         util::fixed(events_per_s, 0), std::to_string(stats.events_ingested),
         std::to_string(stats.events_dropped),
         std::to_string(stats.steps_down), std::to_string(stats.steps_up)});
    info << "\n== dtmsv_serve: " << options.config_path << " ==\n"
         << summary.to_string();
    info << "ladder: " << ladder_to_string(plan.serve.degradation)
         << " (at rung " << loop.degradation().level() << " after run)\n";
    const core::StageTimings& stages = stats.stages;
    if (stages.intervals > 0) {
      const double ms_per_interval = 1e3 / static_cast<double>(stages.intervals);
      info << "stage ms/interval: feature "
           << util::fixed(stages.feature_s * ms_per_interval, 2) << ", grouping "
           << util::fixed(stages.grouping_s * ms_per_interval, 2) << ", demand "
           << util::fixed(stages.demand_s * ms_per_interval, 2) << "\n";
    }
    if (sink != nullptr) {
      info << records << " NDJSON records written to " << report.name() << "\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  return dtmsv::cli::run_main({"dtmsv_serve", kUsage}, argc, argv, run);
}
