// ABL-CLU — ablation of how the grouping number K is chosen. Compares the
// paper's DDQN-empowered selection against fixed K, the elbow heuristic, a
// uniform-random K, and the slow silhouette-sweep oracle, all running the
// identical end-to-end pipeline.
//
// Shape to reproduce: DDQN approaches the sweep oracle's clustering quality
// and demand accuracy at a fraction of the oracle's clustering cost, and
// beats fixed/random selection.
#include <chrono>
#include <iostream>

#include "bench_common.hpp"

namespace {

using namespace dtmsv;

struct ModeResult {
  std::string name;
  bench::RunSeries series;
  double wall_ms_per_interval = 0.0;
};

ModeResult run_mode(const std::string& name, const std::string& stage_key,
                    std::size_t fixed_k, std::size_t warmup, std::size_t report) {
  core::SchemeConfig config = bench::sweep_config(/*seed=*/7);
  config.grouping_stage = stage_key;  // StageRegistry key (ABL-CLU arm)
  config.fixed_k = fixed_k;
  core::Simulation sim(config);
  bench::run_series(sim, warmup);
  const auto start = std::chrono::steady_clock::now();
  ModeResult result{name, bench::run_series(sim, report), 0.0};
  const auto stop = std::chrono::steady_clock::now();
  result.wall_ms_per_interval =
      std::chrono::duration<double, std::milli>(stop - start).count() /
      static_cast<double>(report);
  return result;
}

}  // namespace

int main() {
  // The DDQN explores for ~60 decisions (its epsilon schedule); every
  // variant gets the same horizon so the comparison is fair in both data
  // and wall-clock.
  constexpr std::size_t kWarmup = 60;
  constexpr std::size_t kReport = 20;

  std::vector<ModeResult> results;
  std::cout << "running 7 K-selection variants x " << kWarmup + kReport
            << " intervals...\n";
  results.push_back(run_mode("ddqn (paper)", "ddqn", 0, kWarmup, kReport));
  results.push_back(run_mode("fixed-2", "fixed", 2, kWarmup, kReport));
  results.push_back(run_mode("fixed-4", "fixed", 4, kWarmup, kReport));
  results.push_back(run_mode("fixed-8", "fixed", 8, kWarmup, kReport));
  results.push_back(run_mode("elbow", "elbow", 0, kWarmup, kReport));
  results.push_back(run_mode("random", "random", 0, kWarmup, kReport));
  results.push_back(run_mode("silhouette-sweep (oracle)", "silhouette", 0,
                             kWarmup, kReport));

  util::Table table({"K selection", "mean K", "mean silhouette", "radio accuracy",
                     "compute accuracy", "ms/interval (report phase)"});
  for (const auto& r : results) {
    table.add_row({r.name, util::fixed(r.series.mean_k(), 1),
                   util::fixed(r.series.mean_silhouette(), 3),
                   util::percent(r.series.radio_accuracy(), 2),
                   util::percent(r.series.compute_accuracy(), 2),
                   util::fixed(r.wall_ms_per_interval, 1)});
  }
  table.print("ABL-CLU: grouping-number selection strategies");

  std::cout << "\nNote: ms/interval covers the whole pipeline including the\n"
               "selector; the sweep oracle reruns K-means for every candidate\n"
               "K each interval, which is the cost the DDQN amortises.\n";
  return 0;
}
