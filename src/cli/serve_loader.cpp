#include "cli/serve_loader.hpp"

#include <algorithm>
#include <cmath>

#include "core/pipeline.hpp"
#include "util/error.hpp"

namespace dtmsv::cli {

core::DegradationLevel parse_ladder_level(const std::string& item) {
  core::DegradationLevel level;
  level.name = item;
  const std::size_t colon = std::min(item.size(), item.find(':'));
  level.feature_stage = item.substr(0, colon);
  // The ':full' / ':incremental' suffixes are accepted and ignored: the
  // perfbench harness still writes them.
  const std::string suffix = item.substr(colon);
  if (!suffix.empty() && suffix != ":full" && suffix != ":incremental") {
    throw util::RuntimeError("serve.ladder item '" + item + "': expected 'key'");
  }
  if (level.feature_stage.empty()) {
    throw util::RuntimeError("serve.ladder item '" + item +
                             "' has an empty stage key");
  }
  return level;
}

ServePlan load_serve_plan(util::Config& config) {
  ServePlan plan;
  plan.threads = config.get_size_or("run.threads", 0);
  plan.report_path = config.get_or("run.report", "");

  core::SchemeConfig& scheme = plan.serve.scheme;
  scheme.seed = config.get_uint64_or("serve.seed", scheme.seed);
  scheme.user_count = config.get_size_or("serve.user_count", 240);
  scheme.interval_s = config.get_double_or("serve.interval_s", 10.0);
  scheme.demand.interval_s = scheme.interval_s;
  // The serve loop never runs the tick simulator, but scheme validation
  // requires tick_s <= interval_s; keep it consistent for short intervals.
  scheme.tick_s = std::min(scheme.tick_s, scheme.interval_s);
  scheme.warmup_intervals = 0;
  scheme.feature_window_s =
      config.get_double_or("serve.feature_window_s", scheme.feature_window_s);
  scheme.feature_timesteps =
      config.get_size_or("serve.feature_timesteps", scheme.feature_timesteps);
  scheme.grouping_stage = config.get_or("serve.grouping", scheme.grouping_stage);
  scheme.demand_stage = config.get_or("serve.demand", scheme.demand_stage);
  scheme.fixed_k = config.get_size_or("serve.fixed_k", scheme.fixed_k);
  scheme.session.engagement.catalog.videos_per_category = config.get_size_or(
      "serve.videos_per_category",
      scheme.session.engagement.catalog.videos_per_category);

  const auto& registry = core::StageRegistry::instance();
  registry.require_grouping(scheme.grouping_stage);
  registry.require_demand(scheme.demand_stage);

  plan.intervals = config.get_size_or("serve.intervals", plan.intervals);
  if (plan.intervals == 0) {
    throw util::RuntimeError("serve.intervals must be positive");
  }
  plan.serve.deadline_ms = config.get_double_or("serve.deadline_ms", 50.0);
  plan.serve.queue_capacity = config.get_size_or("serve.queue_capacity", 4096);

  const std::vector<std::string> ladder = config.get_list("serve.ladder");
  if (!ladder.empty()) {
    plan.serve.degradation.ladder.clear();
    for (const std::string& item : ladder) {
      plan.serve.degradation.ladder.push_back(parse_ladder_level(item));
    }
  }
  for (const core::DegradationLevel& level : plan.serve.degradation.ladder) {
    registry.require_feature(level.feature_stage);
  }
  plan.serve.degradation.step_down_after = config.get_size_or(
      "serve.step_down_after", plan.serve.degradation.step_down_after);
  plan.serve.degradation.step_up_after = config.get_size_or(
      "serve.step_up_after", plan.serve.degradation.step_up_after);

  core::ServeWorkloadConfig& workload = plan.workload;
  workload.seed = config.get_uint64_or("workload.seed", workload.seed);
  workload.user_count = scheme.user_count;
  workload.channel_period_s =
      config.get_double_or("workload.channel_period_s", workload.channel_period_s);
  workload.location_period_s = config.get_double_or("workload.location_period_s",
                                                    workload.location_period_s);
  workload.watch_period_s =
      config.get_double_or("workload.watch_period_s", workload.watch_period_s);
  workload.affinity_concentration = config.get_double_or(
      "workload.affinity_concentration", workload.affinity_concentration);
  // The workload samples videos from the loop's catalog, so share its
  // generation parameters; the walk extent matches the feature scaling.
  workload.engagement = scheme.session.engagement;
  workload.extent_x = plan.serve.scaling.pos_x_scale;
  workload.extent_y = plan.serve.scaling.pos_y_scale;

  plan.overload_start = config.get_size_or("workload.overload_start", 0);
  plan.overload_intervals = config.get_size_or("workload.overload_intervals", 0);
  plan.overload_multiplier =
      config.get_double_or("workload.overload_multiplier", 1.0);
  if (!(std::isfinite(plan.overload_multiplier) && plan.overload_multiplier > 0.0)) {
    throw util::RuntimeError("workload.overload_multiplier must be finite and positive");
  }

  util::validate_input([&plan] {
    core::validate(plan.serve);
    core::validate(plan.workload);
  });

  config.reject_unread_keys();
  return plan;
}

}  // namespace dtmsv::cli
