// FIG3B — reproduces Fig. 3(b) of the paper: radio resource demand,
// predicted vs. actual, plus the headline claim of 95.04 % prediction
// accuracy.
//
// The paper plots group 1's radio resource demand over time. Groups are
// re-clustered every interval, so "group 1" is tracked as the most
// News-preferring group of each interval; the network-wide total is also
// reported (it is what an operator reserves against).
//
// Shape to reproduce: predictions track actuals within a few percent;
// steady-state accuracy ≈ 95 %.
#include <iostream>

#include "bench_common.hpp"
#include "util/csv.hpp"

int main(int argc, char** argv) {
  using namespace dtmsv;
  const std::string csv_path = argc > 1 ? argv[1] : "";

  core::SchemeConfig config = bench::paper_config(/*seed=*/2023);
  core::Simulation sim(config);

  // Let the DDQN's exploration decay before the reported window, as the
  // paper's scheme is evaluated after training.
  constexpr std::size_t kWarmupIntervals = 46;
  constexpr std::size_t kReportIntervals = 24;  // 2 simulated hours
  std::cout << "training/warm-up: " << kWarmupIntervals
            << " intervals (simulated " << kWarmupIntervals * 5 << " min)...\n";
  core::ReportSink discard;
  sim.run(kWarmupIntervals, discard);

  util::Table table({"interval", "group-1 size", "g1 pred MHz", "g1 act MHz",
                     "total pred MHz", "total act MHz", "total err"});
  std::vector<double> g1_pred;
  std::vector<double> g1_act;
  std::vector<double> total_pred;
  std::vector<double> total_act;

  for (std::size_t i = 0; i < kReportIntervals; ++i) {
    // Identify "group 1" for the upcoming interval before running it.
    const std::size_t g1 = sim.most_preferring_group(video::Category::kNews);
    const std::size_t g1_size = sim.group_members(g1).size();
    core::CollectingSink sink;
    sim.run_interval(sink);
    const core::EpochReport& r = sink.reports.back();
    // Batch group ids are positions, so group g1 is the g1-th group report.
    if (!r.has_prediction || g1 >= sink.groups.size()) {
      continue;
    }
    const auto& gr = sink.groups[g1];
    g1_pred.push_back(gr.predicted_radio_hz);
    g1_act.push_back(gr.actual_radio_hz);
    total_pred.push_back(r.predicted_radio_hz_total);
    total_act.push_back(r.actual_radio_hz_total);
    table.add_row({std::to_string(r.interval), std::to_string(g1_size),
                   util::fixed(gr.predicted_radio_hz / 1e6, 3),
                   util::fixed(gr.actual_radio_hz / 1e6, 3),
                   util::fixed(r.predicted_radio_hz_total / 1e6, 3),
                   util::fixed(r.actual_radio_hz_total / 1e6, 3),
                   util::percent(r.radio_error, 1)});
  }
  table.print("Fig. 3(b): radio resource demand, predicted vs actual");

  if (!csv_path.empty()) {
    util::CsvWriter csv;
    csv.set_header({"index", "g1_predicted_hz", "g1_actual_hz",
                    "total_predicted_hz", "total_actual_hz"});
    for (std::size_t i = 0; i < g1_pred.size(); ++i) {
      csv.add_row(std::vector<double>{static_cast<double>(i), g1_pred[i],
                                      g1_act[i], total_pred[i], total_act[i]});
    }
    csv.write_file(csv_path);
    std::cout << "series exported to " << csv_path << '\n';
  }

  const auto g1_acc = util::prediction_accuracy(g1_act, g1_pred);
  const auto total_acc = util::prediction_accuracy(total_act, total_pred);
  std::cout << "\nradio demand prediction accuracy (group 1): "
            << (g1_acc ? util::percent(*g1_acc, 2) : "n/a") << '\n'
            << "radio demand prediction accuracy (total):   "
            << (total_acc ? util::percent(*total_acc, 2) : "n/a") << '\n'
            << "paper reports: 95.04%\n";
  return 0;
}
