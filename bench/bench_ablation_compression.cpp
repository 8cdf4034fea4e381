// ABL-CMP — ablation of how the UDT time-series windows are turned into
// clustering features. Compares the paper's 1D-CNN autoencoder embedding
// against clustering the raw flattened windows and hand-rolled summary
// statistics.
//
// Shape to reproduce: the CNN embedding clusters as well as (or better
// than) the raw window at a fraction of the feature dimensionality, and
// demand accuracy is preserved; summary stats lose taste detail.
#include <chrono>
#include <iostream>

#include "bench_common.hpp"
#include "twin/column_store.hpp"

namespace {

using namespace dtmsv;

struct ModeResult {
  std::string name;
  std::size_t feature_dim = 0;
  bench::RunSeries series;
  double wall_ms_per_interval = 0.0;
};

ModeResult run_mode(const std::string& name, const std::string& stage_key,
                    std::size_t warmup, std::size_t report) {
  core::SchemeConfig config = bench::sweep_config(/*seed=*/11);
  config.feature_stage = stage_key;  // StageRegistry key (ABL-CMP arm)
  core::Simulation sim(config);
  bench::run_series(sim, warmup);
  const auto start = std::chrono::steady_clock::now();
  ModeResult result{name, 0, bench::run_series(sim, report), 0.0};
  const auto stop = std::chrono::steady_clock::now();
  result.wall_ms_per_interval =
      std::chrono::duration<double, std::milli>(stop - start).count() /
      static_cast<double>(report);
  if (stage_key == "cnn") {
    result.feature_dim = config.compressor.embedding_dim;
  } else if (stage_key == "raw") {
    result.feature_dim =
        twin::TwinColumnStore::kFeatureChannels * config.feature_timesteps;
  } else {
    result.feature_dim = 6 + video::kCategoryCount;
  }
  return result;
}

}  // namespace

int main() {
  constexpr std::size_t kWarmup = 30;
  constexpr std::size_t kReport = 16;

  std::cout << "running 3 feature modes x " << kWarmup + kReport
            << " intervals...\n";
  std::vector<ModeResult> results;
  results.push_back(run_mode("1D-CNN embedding (paper)", "cnn", kWarmup, kReport));
  results.push_back(run_mode("raw window", "raw", kWarmup, kReport));
  results.push_back(run_mode("summary statistics", "summary", kWarmup, kReport));

  util::Table table({"feature source", "dim", "mean K", "mean silhouette",
                     "radio accuracy", "compute accuracy", "ms/interval"});
  for (const auto& r : results) {
    table.add_row({r.name, std::to_string(r.feature_dim),
                   util::fixed(r.series.mean_k(), 1),
                   util::fixed(r.series.mean_silhouette(), 3),
                   util::percent(r.series.radio_accuracy(), 2),
                   util::percent(r.series.compute_accuracy(), 2),
                   util::fixed(r.wall_ms_per_interval, 1)});
  }
  table.print("ABL-CMP: UDT time-series compression for clustering");

  std::cout << "\nNote: silhouette values are computed in each mode's own\n"
               "feature space — compare within a row's accuracy, and across\n"
               "rows on dimensionality vs accuracy retained.\n";
  return 0;
}
