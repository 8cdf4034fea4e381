// E2E-SCALE — macro-benchmark of the multi-cell fleet: full scenarios
// (construction, per-interval DT pipelines across all cells, aggregation)
// timed end-to-end. This is the scale artifact tracking the perf
// trajectory beyond the micro-kernels: the headline case runs 10k users
// across 16 cells; the Smoke cases size the same workloads for CI.
//
// Writes BENCH_e2e_scale.json (override with DTMSV_BENCH_JSON).
#include <benchmark/benchmark.h>

#include "bench_to_json.hpp"
#include "core/scenarios.hpp"

namespace {

using namespace dtmsv;

void run_scenario_bench(benchmark::State& state, core::ScenarioKind kind,
                        std::size_t users, std::size_t cells,
                        std::size_t intervals) {
  const core::ScenarioConfig base = core::make_scenario(kind, users, cells, 42);
  core::ScenarioResult last;
  for (auto _ : state) {
    core::ScenarioConfig cfg = base;
    cfg.intervals = intervals;
    last = core::run_scenario(cfg);
    benchmark::DoNotOptimize(last.reports.data());
  }
  state.counters["peak_users"] = static_cast<double>(last.peak_users);
  state.counters["cells"] = static_cast<double>(cells);
  state.counters["intervals"] = static_cast<double>(intervals);
  state.counters["radio_accuracy"] = last.radio_accuracy;
  state.counters["twin_bytes_per_user"] =
      static_cast<double>(last.twin_bytes) / static_cast<double>(last.peak_users);
  state.counters["sim_seconds/s"] = benchmark::Counter(
      static_cast<double>(intervals) * base.base.interval_s,
      benchmark::Counter::kIsIterationInvariantRate);
}

// CI smoke tier: every named scenario at a few hundred users so the whole
// binary finishes in seconds (ci runs --benchmark_filter=Smoke).
void BM_E2ESmokeSteadyState(benchmark::State& state) {
  run_scenario_bench(state, core::ScenarioKind::kSteadyState, 240, 4, 3);
}
BENCHMARK(BM_E2ESmokeSteadyState)->Unit(benchmark::kMillisecond);

void BM_E2ESmokeFlashCrowd(benchmark::State& state) {
  run_scenario_bench(state, core::ScenarioKind::kFlashCrowd, 240, 4, 4);
}
BENCHMARK(BM_E2ESmokeFlashCrowd)->Unit(benchmark::kMillisecond);

void BM_E2ESmokeMobilityChurn(benchmark::State& state) {
  run_scenario_bench(state, core::ScenarioKind::kMobilityChurn, 240, 4, 4);
}
BENCHMARK(BM_E2ESmokeMobilityChurn)->Unit(benchmark::kMillisecond);

void BM_E2ESmokeCatalogDrift(benchmark::State& state) {
  run_scenario_bench(state, core::ScenarioKind::kCatalogDrift, 240, 4, 4);
}
BENCHMARK(BM_E2ESmokeCatalogDrift)->Unit(benchmark::kMillisecond);

// The headline scale artifact: a 10k-user population sharded across 16
// cells, run end-to-end (warm-up, grouping, prediction, scoring). One
// iteration — this is a macro measurement, not a steady-state kernel.
void BM_E2EScale10kUsers16Cells(benchmark::State& state) {
  run_scenario_bench(state, core::ScenarioKind::kSteadyState, 10000, 16, 3);
}
BENCHMARK(BM_E2EScale10kUsers16Cells)->Unit(benchmark::kSecond)->Iterations(1);

}  // namespace

DTMSV_BENCHMARK_MAIN_JSON("BENCH_e2e_scale.json");
