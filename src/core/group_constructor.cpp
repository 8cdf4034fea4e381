#include "core/group_constructor.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "clustering/metrics.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace dtmsv::core {

std::size_t GroupConstructor::state_dimension(const GroupConstructorConfig& config) {
  // histogram bins + [mean dist, std dist, log-size, prev-K norm].
  return config.distance_histogram_bins + 4;
}

GroupConstructor::GroupConstructor(const GroupConstructorConfig& config,
                                   std::uint64_t seed)
    : config_(config) {
  DTMSV_EXPECTS(config.k_min >= 1);
  DTMSV_EXPECTS(config.k_max >= config.k_min);
  DTMSV_EXPECTS(config.distance_histogram_bins >= 4);

  rl::DdqnConfig ddqn = config.ddqn;
  ddqn.state_dim = state_dimension(config);
  ddqn.action_count = config.k_max - config.k_min + 1;
  agent_ = std::make_unique<rl::DdqnAgent>(ddqn, seed);
  previous_k_ = config.k_min;
}

std::vector<float> GroupConstructor::encode_state(const clustering::Points& embeddings,
                                                  std::size_t previous_k) const {
  DTMSV_EXPECTS(!embeddings.empty());
  const std::size_t n = embeddings.size();

  // Pairwise-distance sample: every stride-th pair (i < j) in row-major
  // order, ~2000 pairs at most. Each sampled linear pair index p maps to
  // its (i, j) by walking rows forward, so the cost is O(samples + n).
  util::RunningStats dist_stats;
  std::vector<double> distances;
  const std::size_t total_pairs = n * (n - 1) / 2;
  const std::size_t stride = std::max<std::size_t>(1, total_pairs / 2000);
  distances.reserve(total_pairs / stride + 1);
  std::size_t i = 0;
  std::size_t row_start = 0;  // linear index of pair (i, i + 1)
  for (std::size_t p = 0; p < total_pairs; p += stride) {
    while (p >= row_start + (n - 1 - i)) {
      row_start += n - 1 - i;
      ++i;
    }
    const std::size_t j = i + 1 + (p - row_start);
    const double d = clustering::distance(embeddings[i], embeddings[j]);
    distances.push_back(d);
    dist_stats.add(d);
  }

  const double max_d = dist_stats.empty() ? 1.0 : std::max(dist_stats.max(), 1e-9);
  util::Histogram hist(0.0, max_d, config_.distance_histogram_bins);
  for (const double d : distances) {
    hist.add(d);
  }

  std::vector<float> state;
  state.reserve(state_dimension(config_));
  for (const double density : hist.densities()) {
    state.push_back(static_cast<float>(density));
  }
  state.push_back(
      static_cast<float>(dist_stats.empty() ? 0.0 : dist_stats.mean() / max_d));
  state.push_back(
      static_cast<float>(dist_stats.empty() ? 0.0 : dist_stats.stddev() / max_d));
  state.push_back(static_cast<float>(std::log1p(static_cast<double>(n)) / 8.0));
  const double k_span = std::max<double>(1.0, static_cast<double>(config_.k_max - config_.k_min));
  state.push_back(static_cast<float>(
      static_cast<double>(previous_k - std::min(previous_k, config_.k_min)) / k_span));
  return state;
}

void GroupConstructor::report_outcome(double prediction_error) {
  DTMSV_EXPECTS(prediction_error >= 0.0);
  last_reported_error_ = std::min(prediction_error, 2.0);
}

GroupingOutcome GroupConstructor::construct(const clustering::Points& embeddings,
                                            util::Rng& rng) {
  DTMSV_EXPECTS_MSG(!embeddings.empty(), "GroupConstructor: no users to cluster");

  const std::vector<float> state = encode_state(embeddings, previous_k_);

  // Close out the previous decision now that its next-state (and the demand
  // error reported for its interval) are known.
  if (pending_) {
    const double reward = config_.silhouette_weight * pending_->silhouette -
                          config_.k_cost_weight * pending_->k_norm -
                          config_.error_weight * last_reported_error_;
    agent_->observe({pending_->state, pending_->action, static_cast<float>(reward),
                     state, /*done=*/false});
    for (std::size_t i = 0; i < config_.train_steps_per_interval; ++i) {
      agent_->train_step();
    }
  }

  GroupingOutcome decision;
  decision.epsilon = agent_->current_epsilon();
  const std::size_t action = agent_->act(state);

  std::size_t k = config_.k_min + action;
  k = std::clamp<std::size_t>(k, 1, embeddings.size());
  decision.k = k;

  clustering::KMeansResult result = clustering::k_means(embeddings, k, rng, config_.kmeans);
  // Sampled silhouette keeps the per-interval reward O(n) beyond ~2k
  // users; below the cap it is exact and consumes no rng draws.
  decision.silhouette = clustering::silhouette_sampled(
      embeddings, result.assignment, config_.silhouette_sample_cap, rng);
  decision.assignment = std::move(result.assignment);

  const double k_span =
      std::max<double>(1.0, static_cast<double>(config_.k_max - config_.k_min));
  pending_ = Pending{state, action, decision.silhouette,
                     static_cast<double>(k - std::min(k, config_.k_min)) / k_span};
  previous_k_ = k;
  last_reported_error_ = 0.0;  // consumed; next interval reports anew
  return decision;
}

}  // namespace dtmsv::core
