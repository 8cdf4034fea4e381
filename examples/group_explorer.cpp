// Group explorer: a deep dive into the multicast group construction stage.
//
// Runs the pipeline to a steady state, then inspects the compressed
// embeddings: what K the DDQN picks vs. the elbow / silhouette-sweep /
// fixed baselines, the resulting silhouette, and each group's profile
// (size, preference mix, swiping behaviour, predicted efficiency).
//
//   $ ./group_explorer [users] [warm_intervals]
#include <cstdlib>
#include <iostream>
#include <string>

#include "behavior/preference.hpp"
#include "clustering/metrics.hpp"
#include "clustering/selectors.hpp"
#include "core/simulation.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dtmsv;

  const int users = argc > 1 ? std::atoi(argv[1]) : 90;
  const int warm = argc > 2 ? std::atoi(argv[2]) : 6;
  if (users <= 0 || warm <= 0) {
    std::cerr << "usage: group_explorer [users>0] [warm_intervals>0]\n";
    return 1;
  }

  core::SchemeConfig config;
  config.seed = 99;
  config.user_count = static_cast<std::size_t>(users);
  config.interval_s = 120.0;
  config.feature_window_s = 240.0;

  core::Simulation sim(config);
  std::cout << "warming up " << warm << " intervals...\n";
  core::ReportSink discard;
  sim.run(static_cast<std::size_t>(warm), discard);

  // --- group profiles under the DDQN decision --------------------------
  util::Table groups({"group", "size", "top preference", "pref weight",
                      "E[watch frac] top cat", "playlist"});
  for (std::size_t g = 0; g < sim.group_count(); ++g) {
    const auto& pref = sim.group_preference(g);
    const std::size_t top = behavior::top_category(pref);
    const auto top_cat = video::all_categories()[top];
    groups.add_row(
        {std::to_string(g), std::to_string(sim.group_members(g).size()),
         video::to_string(top_cat), util::fixed(pref[top], 3),
         util::fixed(sim.group_swiping(g).expected_watch_fraction(top_cat), 3),
         std::to_string(sim.group_recommendation(g).playlist.size())});
  }
  groups.print("multicast groups (DDQN-chosen K = " +
               std::to_string(sim.group_count()) + ")");

  // --- K-selection comparison on the same embeddings --------------------
  // Rebuild the embedding cloud the way the pipeline does, then let each
  // baseline choose K and cluster.
  const twin::FeatureScaling scaling{1200.0, 1000.0, 10.0, 40.0};
  twin::FeatureArena arena;
  const clustering::Points summaries = core::to_points(sim.twins().columns().summary_features(
      {sim.now(), config.feature_window_s, scaling}, arena));

  util::Rng rng(1234);
  util::Table compare({"strategy", "K", "silhouette", "Davies-Bouldin"});
  const auto evaluate = [&](const std::string& strategy, std::size_t k) {
    const auto result = clustering::k_means(summaries, k, rng);
    compare.add_row({strategy, std::to_string(k),
                     util::fixed(clustering::silhouette(summaries, result.assignment), 3),
                     util::fixed(clustering::davies_bouldin(summaries, result.assignment), 3)});
  };
  const std::size_t k_min = config.grouping.k_min;
  const std::size_t k_max = config.grouping.k_max;
  evaluate("fixed-4", clustering::fixed_k(summaries, 4));
  evaluate("elbow", clustering::elbow_k(summaries, k_min, k_max, rng));
  evaluate("silhouette-sweep", clustering::silhouette_sweep_k(summaries, k_min, k_max, rng));
  evaluate("random", clustering::random_k(summaries, k_min, k_max, rng));
  compare.add_row({"ddqn (pipeline)", std::to_string(sim.group_count()), "see above",
                   "-"});
  compare.print("K-selection strategies on the current user embedding cloud");

  std::cout << "\nNote: the silhouette-sweep row is the slow oracle the DDQN\n"
               "approximates online without sweeping K every interval.\n";
  return 0;
}
