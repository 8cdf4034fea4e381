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
      // Per-interval taste drift and the aggressive popularity forgetting
      // that stresses recommendation stability.
      base.affinity_drift_rate = 0.25;
      base.popularity_forgetting = 0.45;
      break;
  }
  return cfg;
}

namespace {

FleetConfig fleet_config_of(const ScenarioConfig& config) {
  FleetConfig fleet;
  fleet.base = config.base;
  fleet.cell_count = config.cell_count;
  fleet.total_users = config.total_users;
  fleet.seed = config.seed;
  return fleet;
}

}  // namespace

void validate(const ScenarioConfig& config) {
  validate(fleet_config_of(config));
  DTMSV_EXPECTS_MSG(config.intervals > 0, "ScenarioConfig: intervals must be > 0");
  DTMSV_EXPECTS_MSG(
      std::isfinite(config.surge_fraction) && config.surge_fraction >= 0.0,
      "ScenarioConfig: surge_fraction must be finite and >= 0");
  DTMSV_EXPECTS_MSG(config.surge_cell < config.cell_count,
                    "ScenarioConfig: surge_cell must be < cell_count");
  DTMSV_EXPECTS_MSG(config.churn_fraction >= 0.0 && config.churn_fraction <= 1.0,
                    "ScenarioConfig: churn_fraction must be in [0, 1]");
}

ScenarioResult run_scenario(const ScenarioConfig& config, ReportSink* sink) {
  validate(config);
  SimulationFleet fleet(fleet_config_of(config));

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
