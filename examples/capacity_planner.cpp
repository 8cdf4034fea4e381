// Capacity planner: a downstream consumer of the paper's predictions.
//
// The paper's future work is resource *reservation* based on predicted
// demand; this example shows what an operator gets today: reserve
// predicted-demand × headroom each interval, then score over- and
// under-provisioning against what the groups actually consumed, comparing
// the DT-assisted predictor against a last-value baseline.
//
//   $ ./capacity_planner [intervals] [headroom_percent]
#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/simulation.hpp"
#include "predict/baselines.hpp"
#include "predict/planner.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dtmsv;

  const int intervals = argc > 1 ? std::atoi(argv[1]) : 16;
  const double headroom = argc > 2 ? std::atof(argv[2]) / 100.0 : 0.10;
  if (intervals <= 0 || headroom < 0.0) {
    std::cerr << "usage: capacity_planner [intervals>0] [headroom_percent>=0]\n";
    return 1;
  }

  core::SchemeConfig config;
  config.seed = 31;
  config.user_count = 100;
  config.interval_s = 120.0;  // shortened so the example runs in seconds
  config.feature_window_s = 240.0;

  core::Simulation sim(config);

  predict::ReservationPolicy policy;
  policy.headroom = headroom;

  // The planners consume the interval stream directly: a ReportSink is the
  // natural shape for a downstream reservation system (nothing buffered).
  struct PlannerSink final : core::ReportSink {
    explicit PlannerSink(const predict::ReservationPolicy& policy)
        : dt_planner(policy), naive_planner(policy) {}
    predict::CapacityPlanner dt_planner;
    predict::CapacityPlanner naive_planner;
    std::vector<double> realized;

    void on_interval(const core::EpochReport& r) override {
      if (!r.has_prediction) {
        return;
      }
      // DT-assisted reservation: model prediction + headroom.
      dt_planner.step(r.predicted_radio_hz_total, r.actual_radio_hz_total);
      // Baseline: last interval's realized demand + the same headroom.
      naive_planner.step(predict::last_value_forecast(realized, r.actual_radio_hz_total),
                         r.actual_radio_hz_total);
      realized.push_back(r.actual_radio_hz_total);
    }
  } sink(policy);
  sim.run(static_cast<std::size_t>(intervals), sink);
  const predict::CapacityPlanner& dt_planner = sink.dt_planner;
  const predict::CapacityPlanner& naive_planner = sink.naive_planner;

  const auto row = [&](const char* name, const predict::CapacityPlanner& p) {
    const auto& o = p.outcome();
    const double n = std::max<double>(1.0, static_cast<double>(o.intervals));
    return std::vector<std::string>{
        name,
        std::to_string(o.intervals),
        util::fixed(o.reserved_total / n / 1e6, 3),
        util::fixed(o.over_total / n / 1e6, 3),
        std::to_string(o.violations),
        util::fixed(o.unmet_total / 1e6, 3),
        util::percent(o.waste_fraction(), 1)};
  };
  util::Table table({"planner", "intervals", "avg reserved MHz", "avg waste MHz",
                     "underprov events", "total unmet MHz", "waste frac"});
  table.add_row(row("dt-assisted", dt_planner));
  table.add_row(row("last-value", naive_planner));
  table.print("capacity planning with " + util::percent(headroom, 0) + " headroom");

  std::cout << "\nWaste = reserved-but-unused spectrum; underprovision events are\n"
               "intervals whose realized demand exceeded the reservation (SLA risk).\n";
  return 0;
}
