// Serving-mode latency/throughput benchmark: drives a core::ServeLoop with
// ServeWorkload traffic under the production SteadyServeClock and reports
// per-prediction latency percentiles (p50/p95/p99) plus sustained ingestion
// throughput (events/sec). Two scenarios land in BENCH_serve.json (gated by
// tools/bench_diff.py in CI):
//
//   SERVE_steady    nominal traffic, paper pipeline at full fidelity
//   SERVE_overload  flash-crowd phase (8x rates into a small queue) that
//                   forces sheds and degradation-ladder activity
//
// Manual harness (no google-benchmark state loop): one serve run is the
// natural measurement unit, and the interesting numbers are the loop's own
// latency record, not an averaged wall time.
#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "bench_to_json.hpp"
#include "core/serve.hpp"
#include "core/serve_workload.hpp"
#include "util/table.hpp"

namespace {

using namespace dtmsv;

struct ScenarioResult {
  std::string name;
  double wall_s = 0.0;
  core::ServeStats stats;
};

core::ServeConfig bench_config() {
  core::ServeConfig cfg;
  cfg.scheme.seed = 42;
  cfg.scheme.user_count = 120;
  cfg.scheme.interval_s = 10.0;
  cfg.scheme.warmup_intervals = 0;
  cfg.scheme.feature_window_s = 60.0;
  cfg.scheme.feature_timesteps = 16;
  cfg.deadline_ms = 50.0;
  return cfg;
}

ScenarioResult run_scenario(const std::string& name, core::ServeConfig cfg,
                            std::size_t intervals, std::size_t overload_start,
                            std::size_t overload_intervals,
                            double overload_multiplier) {
  core::SteadyServeClock clock;
  core::ServeLoop loop(cfg, clock);

  core::ServeWorkloadConfig wl_cfg;
  wl_cfg.seed = 7;
  wl_cfg.user_count = cfg.scheme.user_count;
  wl_cfg.engagement = cfg.scheme.session.engagement;
  core::ServeWorkload workload(wl_cfg, loop.catalog());

  const double interval_s = cfg.scheme.interval_s;
  std::vector<core::TwinEvent> events;
  const auto started = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < intervals; ++i) {
    const bool overload = overload_intervals > 0 && i >= overload_start &&
                          i < overload_start + overload_intervals;
    workload.set_rate_multiplier(overload ? overload_multiplier : 1.0);
    events.clear();
    workload.generate(static_cast<double>(i) * interval_s,
                      static_cast<double>(i + 1) * interval_s, events);
    for (const core::TwinEvent& event : events) {
      loop.offer(event);
    }
    loop.advance_to(static_cast<double>(i + 1) * interval_s);
  }

  ScenarioResult result;
  result.name = name;
  result.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                started)
                      .count();
  result.stats = loop.stats();
  return result;
}

}  // namespace

int main() {
  std::vector<ScenarioResult> results;
  results.push_back(
      run_scenario("SERVE_steady", bench_config(), /*intervals=*/12,
                   /*overload_start=*/0, /*overload_intervals=*/0,
                   /*overload_multiplier=*/1.0));

  core::ServeConfig overload_cfg = bench_config();
  overload_cfg.queue_capacity = 2048;  // small enough for the surge to shed
  results.push_back(run_scenario("SERVE_overload", overload_cfg,
                                 /*intervals=*/12, /*overload_start=*/4,
                                 /*overload_intervals=*/4,
                                 /*overload_multiplier=*/8.0));

  util::Table table({"scenario", "p50 ms", "p95 ms", "p99 ms", "events/s",
                     "miss rate", "dropped", "down", "up"});
  std::vector<bench::ManualBenchResult> json;
  for (const ScenarioResult& r : results) {
    const double p50 = core::latency_percentile(r.stats.latencies_ms, 50.0);
    const double p95 = core::latency_percentile(r.stats.latencies_ms, 95.0);
    const double p99 = core::latency_percentile(r.stats.latencies_ms, 99.0);
    const double events_per_s =
        r.wall_s > 0.0 ? static_cast<double>(r.stats.events_ingested) / r.wall_s
                       : 0.0;
    const double miss_rate =
        r.stats.intervals > 0
            ? static_cast<double>(r.stats.deadline_misses) /
                  static_cast<double>(r.stats.intervals)
            : 0.0;
    table.add_row({r.name, util::fixed(p50, 2), util::fixed(p95, 2),
                   util::fixed(p99, 2), util::fixed(events_per_s, 0),
                   util::fixed(miss_rate, 3),
                   std::to_string(r.stats.events_dropped),
                   std::to_string(r.stats.steps_down),
                   std::to_string(r.stats.steps_up)});
    json.push_back(
        {r.name,
         r.wall_s,
         {{"p50_ms", p50},
          {"p95_ms", p95},
          {"p99_ms", p99},
          {"events_per_s", events_per_s},
          {"miss_rate", miss_rate},
          {"events_ingested", static_cast<double>(r.stats.events_ingested)},
          {"events_dropped", static_cast<double>(r.stats.events_dropped)},
          {"steps_down", static_cast<double>(r.stats.steps_down)},
          {"steps_up", static_cast<double>(r.stats.steps_up)}}});
  }
  table.print("serving-mode latency and throughput");
  bench::write_manual_benchmarks_json("BENCH_serve.json", json);
  return 0;
}
