// EXT-MG — the paper's motivating premise, quantified: "Multicast
// technology can effectively enhance the radio resource utilization by
// utilizing multicast channels to transmit short videos."
//
// For every interval the simulator also accounts the unicast counterfactual
// (each member receiving a private, individually link-adapted stream of the
// same content). This bench sweeps the user population and reports the
// multicast bandwidth saving.
//
// Shape to reproduce: multicast costs grow with the number of *groups*
// while unicast grows with the number of *users*, so the saving widens as
// the population (and therefore per-group membership) grows.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace dtmsv;

  constexpr std::size_t kWarmup = 8;
  constexpr std::size_t kReport = 8;
  const std::vector<std::size_t> populations = {40, 80, 120, 200};

  util::Table table({"users", "mean groups", "multicast MHz", "unicast MHz",
                     "saving", "unicast/multicast"});
  for (const std::size_t users : populations) {
    std::cout << "population " << users << "..." << std::endl;
    core::SchemeConfig config = bench::sweep_config(/*seed=*/17);
    config.user_count = users;
    core::Simulation sim(config);
    core::ReportSink discard;
    sim.run(kWarmup, discard);
    core::CollectingSink sink;
    sim.run(kReport, sink);

    double multicast_hz = 0.0;
    double unicast_hz = 0.0;
    std::size_t scored = 0;
    for (const core::EpochReport& r : sink.reports) {
      if (!r.has_prediction) {
        continue;
      }
      multicast_hz += r.actual_radio_hz_total;
      unicast_hz += r.unicast_radio_hz_total;
      ++scored;
    }
    // Groups report only in intervals that carry a prediction.
    const auto groups = static_cast<double>(sink.groups.size());
    if (scored == 0 || multicast_hz <= 0.0) {
      continue;
    }
    multicast_hz /= static_cast<double>(scored);
    unicast_hz /= static_cast<double>(scored);
    table.add_row({std::to_string(users),
                   util::fixed(groups / static_cast<double>(scored), 1),
                   util::fixed(multicast_hz / 1e6, 3),
                   util::fixed(unicast_hz / 1e6, 3),
                   util::percent(1.0 - multicast_hz / unicast_hz, 1),
                   util::fixed(unicast_hz / multicast_hz, 2) + "x"});
  }
  table.print("EXT-MG: multicast vs unicast radio resource consumption");
  std::cout << "\nUnicast counterfactual: every group member receives a private\n"
               "stream of the same clips, link-adapted to their own channel.\n";
  return 0;
}
