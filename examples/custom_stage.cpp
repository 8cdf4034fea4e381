// Custom stage walkthrough: extending the interval pipeline from outside
// src/core, without touching the library.
//
// The pipeline runs three typed stages per reservation interval (see
// core/pipeline.hpp): FeatureStage -> GroupingStage -> DemandStage. Each is
// selected by a string key through the process-wide StageRegistry, so a new
// backend is (1) a class implementing the stage interface, (2) one
// registration call from any translation unit, (3) a SchemeConfig naming
// the key. The key is the stage's only name: the interface has no name()
// to override. This example plugs in a taste-quantile grouping stage — it
// ignores the feature geometry entirely and splits users into K equal
// buckets by their first feature coordinate — and compares it against the
// paper's DDQN-empowered K-means++ on the same workload.
//
//   $ ./custom_stage
#include <algorithm>
#include <iostream>
#include <numeric>

#include "core/simulation.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace dtmsv;

// (1) Implement the stage interface. A GroupingStage receives the feature
// points the FeatureStage produced and returns K plus the per-user cluster
// assignment; silhouette/epsilon are observability extras.
class QuantileGroupingStage final : public core::GroupingStage {
 public:
  explicit QuantileGroupingStage(std::size_t k) : k_(k) {}

  core::GroupingOutcome group(const clustering::Points& features,
                              util::Rng& /*rng*/) override {
    core::GroupingOutcome out;
    out.k = std::min<std::size_t>(k_, features.size());
    // Rank users by their first feature coordinate and cut into equal
    // quantile buckets — a deterministic, geometry-free baseline.
    std::vector<std::size_t> order(features.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return features[a][0] < features[b][0];
    });
    out.assignment.resize(features.size());
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
      out.assignment[order[rank]] = rank * out.k / order.size();
    }
    return out;
  }

 private:
  std::size_t k_;
};

}  // namespace

int main() {
  using namespace dtmsv;

  // (2) Register the backend under a new key. Typically done from a static
  // registrar at namespace scope in the plugin's TU; here inline for the
  // walkthrough. The factory sees the full SchemeConfig, so existing knobs
  // (fixed_k here) parameterize custom stages too.
  core::StageRegistry::instance().register_grouping(
      "taste_quantile", [](const core::SchemeConfig& config, util::Rng&) {
        return std::make_unique<QuantileGroupingStage>(config.fixed_k);
      });

  const auto run_with = [](const std::string& grouping_key) {
    core::SchemeConfig config;
    config.seed = 17;
    config.user_count = 60;
    config.interval_s = 120.0;
    config.warmup_intervals = 1;
    config.feature_window_s = 240.0;
    config.fixed_k = 4;
    // (3) Select the stage by key. The feature and demand stages stay on
    // the paper's defaults ("cnn", "joint") — stages swap independently.
    config.grouping_stage = grouping_key;

    core::Simulation sim(config);
    core::CollectingSink sink;
    sim.run(8, sink);
    std::vector<double> predicted;
    std::vector<double> actual;
    for (const core::EpochReport& r : sink.reports) {
      if (r.has_prediction) {
        predicted.push_back(r.predicted_radio_hz_total);
        actual.push_back(r.actual_radio_hz_total);
      }
    }
    return util::prediction_accuracy(actual, predicted).value_or(0.0);
  };

  util::Table table({"grouping stage", "radio accuracy"});
  table.add_row({"ddqn (paper)", util::percent(run_with("ddqn"), 2)});
  table.add_row({"taste_quantile (this example)",
                 util::percent(run_with("taste_quantile"), 2)});
  table.print("custom out-of-tree grouping stage vs. the paper's");

  std::cout << "\nRegistered grouping keys now:";
  for (const auto& key : core::StageRegistry::instance().grouping_keys()) {
    std::cout << ' ' << key;
  }
  std::cout << "\n";
  return 0;
}
