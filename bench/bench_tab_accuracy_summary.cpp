// TAB-ACC — the paper's headline accuracy as a table, extended with the
// baselines a reviewer would ask for:
//   * proposed: full DT-assisted structural prediction,
//   * last-value / EWMA / moving-average / AR(1): time-series forecasts of
//     the realized total demand (no digital twin, no group abstraction),
//   * degraded DT: the proposed scheme with lossy, slow, laggy collection
//     (what "no fresh twin" costs).
//
// Shape to reproduce: the proposed scheme attains ≈95 % radio accuracy and
// beats every series baseline; degrading twin freshness hurts.
#include <iostream>
#include <span>

#include "bench_common.hpp"
#include "predict/baselines.hpp"

namespace {

using namespace dtmsv;

struct SeriesScore {
  std::vector<double> predicted;
  std::vector<double> actual;
};

/// Scores a series forecast over the realized totals, forecasting each
/// interval from the ones before it (same information timing as the
/// proposed scheme); the first interval has no history and is skipped.
template <typename Forecast>
SeriesScore score_series_baseline(Forecast forecast, const std::vector<double>& realized) {
  SeriesScore score;
  for (std::size_t i = 1; i < realized.size(); ++i) {
    score.predicted.push_back(forecast(std::span(realized).first(i)));
    score.actual.push_back(realized[i]);
  }
  return score;
}

}  // namespace

int main() {
  using namespace dtmsv;
  constexpr std::size_t kWarmup = 46;
  constexpr std::size_t kReport = 24;

  std::cout << "running proposed scheme (" << kWarmup + kReport
            << " intervals)...\n";
  core::SchemeConfig config = bench::paper_config(/*seed=*/2023);
  core::Simulation sim(config);
  bench::run_series(sim, kWarmup);
  const bench::RunSeries proposed = bench::run_series(sim, kReport);

  std::cout << "running degraded-DT variant (stale, lossy collection)...\n";
  core::SchemeConfig degraded = config;
  degraded.collection.report_loss_prob = 0.7;
  degraded.collection.channel_period_s = 30.0;
  degraded.collection.location_period_s = 60.0;
  degraded.collection.latency_s = 60.0;
  core::Simulation sim_degraded(degraded);
  bench::run_series(sim_degraded, kWarmup);
  const bench::RunSeries degraded_series = bench::run_series(sim_degraded, kReport);

  util::Table table({"predictor", "radio accuracy", "radio RMSE (MHz)",
                     "compute accuracy (vw)"});

  const auto add_series_row = [&](const std::string& name,
                                  const SeriesScore& radio,
                                  const SeriesScore& compute) {
    const auto acc = util::prediction_accuracy(radio.actual, radio.predicted);
    const auto cacc =
        util::volume_weighted_accuracy(compute.actual, compute.predicted);
    table.add_row({name, acc ? util::percent(*acc, 2) : "n/a",
                   util::fixed(util::rmse(radio.actual, radio.predicted) / 1e6, 3),
                   cacc ? util::percent(*cacc, 2) : "n/a"});
  };

  // Proposed scheme.
  table.add_row(
      {"proposed (DT-assisted)", util::percent(proposed.radio_accuracy(), 2),
       util::fixed(util::rmse(proposed.actual_radio, proposed.predicted_radio) / 1e6, 3),
       util::percent(proposed.compute_accuracy(), 2)});

  // Series baselines on the same realized series.
  const auto add_baseline_row = [&](const std::string& name, const auto& forecast) {
    add_series_row(name, score_series_baseline(forecast, proposed.actual_radio),
                   score_series_baseline(forecast, proposed.actual_compute));
  };
  add_baseline_row("last-value", [](std::span<const double> history) {
    return predict::last_value_forecast(history);
  });
  add_baseline_row("ewma(0.4)", [](std::span<const double> history) {
    return predict::ewma_forecast(history, 0.4);
  });
  add_baseline_row("moving-average(4)", [](std::span<const double> history) {
    return predict::moving_average_forecast(history, 4);
  });
  add_baseline_row("ar1(12)", [](std::span<const double> history) {
    return predict::ar1_forecast(history, 12);
  });

  // Degraded-DT variant.
  table.add_row(
      {"degraded DT (70% loss, 60 s lag)",
       util::percent(degraded_series.radio_accuracy(), 2),
       util::fixed(util::rmse(degraded_series.actual_radio,
                              degraded_series.predicted_radio) / 1e6, 3),
       util::percent(degraded_series.compute_accuracy(), 2)});

  table.print("accuracy summary (steady state, " + std::to_string(kReport) +
              " intervals)");
  std::cout << "\npaper headline: 95.04% radio demand prediction accuracy\n"
            << "note: series baselines forecast network totals from realized\n"
            << "history only; the proposed scheme predicts per-group demand\n"
            << "from UDT abstractions before the interval starts.\n";
  return 0;
}
