// Shared scenario configuration and measurement helpers for the bench
// harnesses. Every harness derives from paper_config() so results are
// comparable across benches.
#pragma once

#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace dtmsv::bench {

/// The paper's evaluation setup: UWaterloo-like campus, 120 mobile users,
/// 5-minute reservation intervals, DDQN-empowered K-means++ over 1D-CNN
/// compressed UDT windows.
inline core::SchemeConfig paper_config(std::uint64_t seed = 2023) {
  core::SchemeConfig config;
  config.seed = seed;
  config.user_count = 120;
  config.interval_s = 300.0;
  return config;
}

/// A reduced setup for the parameter-sweep ablations (same structure,
/// ~3x faster per simulated interval).
inline core::SchemeConfig sweep_config(std::uint64_t seed = 2023) {
  core::SchemeConfig config = paper_config(seed);
  config.user_count = 80;
  config.interval_s = 180.0;
  config.feature_window_s = 360.0;
  return config;
}

/// Accumulated series of one simulation run. A streaming core::ReportSink:
/// feed it to Simulation::run_interval(sink) (as run_series does) and it
/// accumulates the per-interval totals without any EpochReport vector in
/// between.
struct RunSeries : public core::ReportSink {
  std::vector<double> predicted_radio;
  std::vector<double> actual_radio;
  std::vector<double> predicted_compute;
  std::vector<double> actual_compute;
  std::vector<std::size_t> k_chosen;
  std::vector<double> silhouette;

  void add(const core::EpochReport& report) {
    if (!report.has_prediction) {
      return;
    }
    predicted_radio.push_back(report.predicted_radio_hz_total);
    actual_radio.push_back(report.actual_radio_hz_total);
    predicted_compute.push_back(report.predicted_compute_total);
    actual_compute.push_back(report.actual_compute_total);
    k_chosen.push_back(report.k);
    silhouette.push_back(report.silhouette);
  }

  void on_interval(const core::EpochReport& report) override { add(report); }

  std::size_t size() const { return actual_radio.size(); }

  /// 1 − MAPE on the radio series (the paper's metric); 0 when undefined.
  double radio_accuracy() const {
    const auto acc = util::prediction_accuracy(actual_radio, predicted_radio);
    return acc.value_or(0.0);
  }

  /// Volume-weighted accuracy on the compute series.
  double compute_accuracy() const {
    const auto acc =
        util::volume_weighted_accuracy(actual_compute, predicted_compute);
    return acc.value_or(0.0);
  }

  double mean_silhouette() const {
    if (silhouette.empty()) {
      return 0.0;
    }
    return util::mean(silhouette);
  }

  double mean_k() const {
    if (k_chosen.empty()) {
      return 0.0;
    }
    double total = 0.0;
    for (const std::size_t k : k_chosen) {
      total += static_cast<double>(k);
    }
    return total / static_cast<double>(k_chosen.size());
  }

  /// Keeps only the last `n` entries (steady-state slice after the DDQN's
  /// exploration has decayed).
  RunSeries tail(std::size_t n) const {
    RunSeries out;
    const std::size_t start = size() > n ? size() - n : 0;
    for (std::size_t i = start; i < size(); ++i) {
      out.predicted_radio.push_back(predicted_radio[i]);
      out.actual_radio.push_back(actual_radio[i]);
      out.predicted_compute.push_back(predicted_compute[i]);
      out.actual_compute.push_back(actual_compute[i]);
      out.k_chosen.push_back(k_chosen[i]);
      out.silhouette.push_back(silhouette[i]);
    }
    return out;
  }
};

/// Runs `intervals` reservation intervals, streaming into the series sink.
inline RunSeries run_series(core::Simulation& sim, std::size_t intervals) {
  RunSeries series;
  sim.run(intervals, series);
  return series;
}

}  // namespace dtmsv::bench
