#include "cli/scenario_loader.hpp"

#include <algorithm>
#include <utility>

#include "core/pipeline.hpp"
#include "util/error.hpp"

namespace dtmsv::cli {

namespace {

/// [scenario] keys that only one scenario kind reads.
constexpr std::pair<const char*, core::ScenarioKind> kKindSpecificKeys[] = {
    {"scenario.surge_interval", core::ScenarioKind::kFlashCrowd},
    {"scenario.surge_cell", core::ScenarioKind::kFlashCrowd},
    {"scenario.surge_fraction", core::ScenarioKind::kFlashCrowd},
    {"scenario.churn_fraction", core::ScenarioKind::kMobilityChurn},
};

}  // namespace

core::ScenarioKind parse_scenario_kind(const std::string& name) {
  for (const core::ScenarioKind kind : core::all_scenarios()) {
    if (core::to_string(kind) == name) {
      return kind;
    }
  }
  std::vector<std::string> known;
  for (const core::ScenarioKind kind : core::all_scenarios()) {
    known.push_back(core::to_string(kind));
  }
  throw util::RuntimeError("unknown scenario kind '" + name +
                           "' (known: " + util::join(known) + ")");
}

SimPlan load_plan(util::Config& config) {
  SimPlan plan;
  plan.threads = config.get_size_or("run.threads", 0);
  plan.report_path = config.get_or("run.report", "");

  // Grid dimensions: a [grid] list when present, otherwise the single value
  // from [scenario]/[stages] (empty stage key = the paper default wiring).
  // Setting both forms is an error — a single value silently shadowed by
  // the grid would defeat the "typos must not silently alter nothing"
  // contract for legitimate keys.
  const auto dimension = [&config](const std::string& grid_key,
                                   const std::string& single_key,
                                   const std::string& fallback) {
    std::vector<std::string> values = config.get_list(grid_key);
    if (!values.empty()) {
      if (config.has(single_key)) {
        throw util::RuntimeError("'" + grid_key + "' and '" + single_key +
                                 "' are both set; keep one");
      }
      return values;
    }
    values.push_back(config.get_or(single_key, fallback));
    return values;
  };

  std::vector<std::string> kinds = config.get_list("grid.scenario");
  if (kinds.empty()) {
    kinds.push_back(config.get("scenario.kind"));  // throws when absent
  } else if (config.has("scenario.kind")) {
    throw util::RuntimeError(
        "'grid.scenario' and 'scenario.kind' are both set; keep one");
  }
  const std::vector<std::string> seeds = dimension("grid.seed", "scenario.seed", "42");
  const std::vector<std::string> features =
      dimension("grid.feature", "stages.feature", "");
  const std::vector<std::string> groupings =
      dimension("grid.grouping", "stages.grouping", "");
  const std::vector<std::string> demands =
      dimension("grid.demand", "stages.demand", "");

  const std::size_t total_users = config.get_size_or("scenario.total_users", 240);
  const std::size_t cell_count = config.get_size_or("scenario.cell_count", 4);

  const bool stage_grid =
      features.size() > 1 || groupings.size() > 1 || demands.size() > 1;
  const core::StageRegistry& registry = core::StageRegistry::instance();

  for (const std::string& kind_name : kinds) {
    const core::ScenarioKind kind = parse_scenario_kind(kind_name);
    for (const std::string& seed_text : seeds) {
      const std::uint64_t seed = util::parse_uint64(seed_text, "seed");
      for (const std::string& feature : features) {
        for (const std::string& grouping : groupings) {
          for (const std::string& demand : demands) {
            core::ScenarioConfig cfg =
                core::make_scenario(kind, total_users, cell_count, seed);
            cfg.intervals = config.get_size_or("scenario.intervals", cfg.intervals);
            if (kind == core::ScenarioKind::kFlashCrowd) {
              cfg.surge_interval =
                  config.get_size_or("scenario.surge_interval", cfg.surge_interval);
              cfg.surge_cell = config.get_size_or("scenario.surge_cell", cfg.surge_cell);
              cfg.surge_fraction =
                  config.get_double_or("scenario.surge_fraction", cfg.surge_fraction);
            }
            if (kind == core::ScenarioKind::kMobilityChurn) {
              cfg.churn_fraction =
                  config.get_double_or("scenario.churn_fraction", cfg.churn_fraction);
            }

            core::SchemeConfig& base = cfg.base;
            base.interval_s = config.get_double_or("scheme.interval_s", base.interval_s);
            base.tick_s = config.get_double_or("scheme.tick_s", base.tick_s);
            base.warmup_intervals =
                config.get_size_or("scheme.warmup_intervals", base.warmup_intervals);
            base.feature_window_s = config.get_double_or("scheme.feature_window_s",
                                                         base.feature_window_s);
            base.feature_timesteps = config.get_size_or("scheme.feature_timesteps",
                                                        base.feature_timesteps);
            base.affinity_concentration = config.get_double_or(
                "scheme.affinity_concentration", base.affinity_concentration);
            base.affinity_drift_rate = config.get_double_or(
                "scheme.affinity_drift_rate", base.affinity_drift_rate);
            base.swiping_bins =
                config.get_size_or("scheme.swiping_bins", base.swiping_bins);
            base.swiping_forgetting = config.get_double_or(
                "scheme.swiping_forgetting", base.swiping_forgetting);
            base.popularity_forgetting = config.get_double_or(
                "scheme.popularity_forgetting", base.popularity_forgetting);
            base.online_bias_correction = config.get_bool_or(
                "scheme.online_bias_correction", base.online_bias_correction);
            base.session.engagement.catalog.videos_per_category =
                config.get_size_or("scheme.videos_per_category",
                                   base.session.engagement.catalog.videos_per_category);
            base.recommender.playlist_size = config.get_size_or(
                "scheme.playlist_size", base.recommender.playlist_size);

            base.grouping.k_min =
                config.get_size_or("grouping.k_min", base.grouping.k_min);
            base.grouping.k_max =
                config.get_size_or("grouping.k_max", base.grouping.k_max);
            base.grouping.kmeans.restarts = config.get_size_or(
                "grouping.kmeans_restarts", base.grouping.kmeans.restarts);

            // Empty grid/stage values keep the SchemeConfig defaults (the
            // paper wiring) — there is no empty-key fallback downstream.
            if (!feature.empty()) {
              base.feature_stage = feature;
            }
            if (!grouping.empty()) {
              base.grouping_stage = grouping;
            }
            if (!demand.empty()) {
              base.demand_stage = demand;
            }
            base.fixed_k = config.get_size_or("stages.fixed_k", base.fixed_k);
            registry.require_feature(base.feature_stage);
            registry.require_grouping(base.grouping_stage);
            registry.require_demand(base.demand_stage);
            util::validate_input([&cfg] { core::validate(cfg); });

            SimJob job;
            job.label = kind_name;
            if (seeds.size() > 1) {
              job.label += "/seed=" + seed_text;
            }
            if (stage_grid) {
              const auto name = [](const std::string& key) {
                return key.empty() ? std::string("default") : key;
              };
              job.label += "/";
              job.label += name(feature);
              job.label += "+";
              job.label += name(grouping);
              job.label += "+";
              job.label += name(demand);
            }
            job.scenario = std::move(cfg);
            plan.jobs.push_back(std::move(job));
          }
        }
      }
    }
  }

  // A kind-specific key that no job read would be silently ignored; name
  // the kind that reads it instead of calling it unknown.
  const std::vector<std::string> unread = config.unread_keys();
  for (const auto& [key, kind] : kKindSpecificKeys) {
    if (std::find(unread.begin(), unread.end(), key) != unread.end()) {
      throw util::RuntimeError("'" + std::string(key) + "' is read only by scenario kind " +
                               core::to_string(kind) + ", which the plan does not run");
    }
  }
  config.reject_unread_keys();
  return plan;
}

}  // namespace dtmsv::cli
