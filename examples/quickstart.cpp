// Quickstart: the smallest end-to-end use of the dtmsv public API.
//
// Builds the DT-assisted multicast short-video pipeline on a reduced campus
// scenario, runs a few 5-minute reservation intervals, and prints the
// predicted vs. actual radio resource demand per interval.
//
//   $ ./quickstart
#include <iostream>

#include "core/simulation.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace dtmsv;

  // 1. Configure the scheme. Defaults follow the paper (5-minute intervals,
  //    DDQN-empowered K-means++, 1D-CNN compression); we shrink the user
  //    population so the example finishes in seconds.
  core::SchemeConfig config;
  config.seed = 7;
  config.user_count = 60;
  config.interval_s = 120.0;           // shortened for the demo
  config.warmup_intervals = 1;
  config.feature_window_s = 240.0;

  // 2. Build the simulation (campus, users, channels, twins, learning).
  core::Simulation sim(config);

  // 3. Run intervals through a streaming ReportSink; each interval report
  //    pairs the demand predicted one interval ahead with what the
  //    multicast groups actually consumed (groups arrive via on_group).
  struct QuickstartSink final : core::ReportSink {
    util::Table table{{"interval", "groups", "K", "silhouette", "predicted MHz",
                       "actual MHz", "error"}};
    std::vector<double> predicted;
    std::vector<double> actual;
    std::size_t interval_groups = 0;

    void on_group(const core::GroupReport&, util::IntervalId) override {
      ++interval_groups;
    }
    void on_interval(const core::EpochReport& r) override {
      if (!r.has_prediction) {
        table.add_row({std::to_string(r.interval), "warm-up", "-", "-", "-", "-", "-"});
      } else {
        predicted.push_back(r.predicted_radio_hz_total);
        actual.push_back(r.actual_radio_hz_total);
        table.add_row({std::to_string(r.interval), std::to_string(interval_groups),
                       std::to_string(r.k), util::fixed(r.silhouette, 3),
                       util::fixed(r.predicted_radio_hz_total / 1e6, 3),
                       util::fixed(r.actual_radio_hz_total / 1e6, 3),
                       util::percent(r.radio_error, 1)});
      }
      interval_groups = 0;
    }
  } sink;
  sim.run(8, sink);
  sink.table.print("dtmsv quickstart: predicted vs actual radio demand");
  const std::vector<double>& predicted = sink.predicted;
  const std::vector<double>& actual = sink.actual;

  // 4. The paper's headline metric: prediction accuracy = 1 - MAPE.
  if (const auto acc = util::prediction_accuracy(actual, predicted)) {
    std::cout << "\nradio demand prediction accuracy: " << util::percent(*acc, 2)
              << "\n";
  }
  return 0;
}
