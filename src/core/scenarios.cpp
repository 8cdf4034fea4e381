#include "core/scenarios.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace dtmsv::core {

const std::array<ScenarioKind, kScenarioKindCount>& all_scenarios() {
  static const std::array<ScenarioKind, kScenarioKindCount> kinds = {
      ScenarioKind::kSteadyState,
      ScenarioKind::kFlashCrowd,
      ScenarioKind::kMobilityChurn,
      ScenarioKind::kCatalogDrift,
  };
  return kinds;
}

std::string to_string(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kSteadyState:
      return "steady_state";
    case ScenarioKind::kFlashCrowd:
      return "flash_crowd";
    case ScenarioKind::kMobilityChurn:
      return "mobility_churn";
    case ScenarioKind::kCatalogDrift:
      return "catalog_drift";
  }
  throw util::PreconditionError("unknown ScenarioKind");
}

ScenarioConfig make_scenario(ScenarioKind kind, std::size_t total_users,
                             std::size_t cell_count, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.kind = kind;
  cfg.total_users = total_users;
  cfg.cell_count = cell_count;
  cfg.seed = seed;

  // Shared base: 1-minute intervals so a scenario finishes in seconds at
  // smoke scale yet exercises the full pipeline every interval.
  SchemeConfig& base = cfg.base;
  base.interval_s = 60.0;
  base.tick_s = 1.0;
  base.warmup_intervals = 1;
  base.feature_window_s = 120.0;
  base.feature_timesteps = 16;
  base.session.engagement.catalog.videos_per_category = 60;
  base.compressor.epochs_per_fit = 1;
  base.grouping.k_min = 2;
  base.grouping.k_max = 8;
  base.grouping.ddqn.hidden = {32};
  base.grouping.kmeans.restarts = 2;
  base.demand.interval_s = base.interval_s;
  base.recommender.playlist_size = 24;

  switch (kind) {
    case ScenarioKind::kSteadyState:
    case ScenarioKind::kFlashCrowd:
    case ScenarioKind::kMobilityChurn:
      break;
    case ScenarioKind::kCatalogDrift:
      base.affinity_drift_rate = cfg.drift_rate;
      base.popularity_forgetting = cfg.drift_popularity_forgetting;
      break;
  }
  return cfg;
}

ScenarioResult run_scenario(const ScenarioConfig& config, ReportSink* sink) {
  DTMSV_EXPECTS(config.intervals > 0);

  FleetConfig fleet_config;
  fleet_config.base = config.base;
  fleet_config.cell_count = config.cell_count;
  fleet_config.total_users = config.total_users;
  fleet_config.seed = config.seed;
  SimulationFleet fleet(fleet_config);

  ScenarioResult result;
  result.kind = config.kind;
  result.reports.reserve(config.intervals);

  for (std::size_t i = 0; i < config.intervals; ++i) {
    if (config.kind == ScenarioKind::kFlashCrowd && i == config.surge_interval) {
      const auto surge = static_cast<std::size_t>(std::llround(
          config.surge_fraction * static_cast<double>(config.total_users)));
      if (surge > 0) {
        fleet.add_surge_shard(config.surge_cell, surge);
      }
    }
    if (config.kind == ScenarioKind::kMobilityChurn && i > 0) {
      result.handovers += fleet.churn(config.churn_fraction, sink);
    }
    result.reports.push_back(fleet.run_interval(sink));
    result.peak_users = std::max(result.peak_users, fleet.user_count());
  }
  for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
    result.twin_bytes += fleet.shard(s).twins().columns().bytes();
  }

  std::vector<double> radio_actual;
  std::vector<double> radio_predicted;
  std::vector<double> compute_actual;
  std::vector<double> compute_predicted;
  for (const FleetReport& r : result.reports) {
    if (r.shard_radio_error.empty()) {
      continue;  // no shard had a prediction this interval
    }
    radio_actual.push_back(r.actual_radio_hz_total);
    radio_predicted.push_back(r.predicted_radio_hz_total);
    compute_actual.push_back(r.actual_compute_total);
    compute_predicted.push_back(r.predicted_compute_total);
  }
  result.radio_accuracy =
      util::prediction_accuracy(radio_actual, radio_predicted).value_or(0.0);
  result.compute_accuracy =
      util::volume_weighted_accuracy(compute_actual, compute_predicted)
          .value_or(0.0);
  return result;
}

}  // namespace dtmsv::core
