// The paper's two-step multicast group construction: "a double deep
// Q-network (DDQN) is first adopted to determine the grouping number by
// mining users' similarities. Then, the K-means++ algorithm is utilized to
// perform fast user clustering based on the determined grouping number."
//
// State: similarity statistics of the compressed embeddings (pairwise-
// distance histogram + dispersion + load + previous K).
// Action: grouping number K in [k_min, k_max].
// Reward: silhouette quality − K cost − demand-prediction error of the
// interval the decision governed (reported one interval later).
#pragma once

#include <optional>

#include "clustering/kmeans.hpp"
#include "clustering/selectors.hpp"
#include "core/pipeline.hpp"
#include "rl/ddqn.hpp"

namespace dtmsv::core {

/// Group construction hyperparameters.
struct GroupConstructorConfig {
  std::size_t k_min = 2;
  std::size_t k_max = 12;
  std::size_t distance_histogram_bins = 16;
  /// Reward = silhouette_weight·silhouette − k_cost_weight·(K−Kmin)/(Kmax−Kmin)
  ///          − error_weight·prediction_error(previous interval).
  /// Reward balance: cluster cohesion is worth having, but the scheme's
  /// end goal is accurate demand prediction, so the (delayed) prediction
  /// error carries the largest weight — very coarse groupings (tiny K)
  /// produce few, huge multicast groups whose per-interval demand is
  /// small-sample noisy and poorly predictable.
  double silhouette_weight = 1.0;
  double k_cost_weight = 0.1;
  double error_weight = 3.0;
  /// Beyond this many users the reward's silhouette term is estimated from
  /// a sample of this size (exact below it), keeping the interval loop
  /// sub-quadratic at scale.
  std::size_t silhouette_sample_cap = clustering::kDefaultSilhouetteSampleCap;
  std::size_t train_steps_per_interval = 8;
  /// DDQN hyperparameters rescaled for interval-granularity decisions (one
  /// action per reservation interval, so exploration must decay over tens
  /// of decisions, not thousands). state_dim/action_count are filled in by
  /// the constructor.
  rl::DdqnConfig ddqn = interval_scale_ddqn();
  clustering::KMeansOptions kmeans{};

  static rl::DdqnConfig interval_scale_ddqn() {
    rl::DdqnConfig cfg;
    cfg.hidden = {64, 64};
    cfg.batch_size = 16;
    cfg.replay_capacity = 2048;
    cfg.min_replay_before_train = 16;
    cfg.target_sync_every = 25;
    cfg.epsilon_start = 1.0;
    cfg.epsilon_end = 0.05;
    cfg.epsilon_decay_steps = 60;
    return cfg;
  }
};

/// DDQN-empowered K-means++ group constructor with online learning across
/// reservation intervals.
class GroupConstructor {
 public:
  GroupConstructor(const GroupConstructorConfig& config, std::uint64_t seed);

  /// Chooses K for the given embeddings, clusters, learns from the previous
  /// decision, and returns the grouping (`epsilon` is the exploration rate
  /// when the action was taken). Requires non-empty embeddings.
  GroupingOutcome construct(const clustering::Points& embeddings, util::Rng& rng);

  /// Reports the normalised demand-prediction error of the interval
  /// governed by the previous construct() decision (in [0, ~1]); feeds the
  /// delayed part of the reward. Optional — call before the next construct.
  void report_outcome(double prediction_error);

  /// State-vector dimensionality for the configured histogram size.
  static std::size_t state_dimension(const GroupConstructorConfig& config);

  const GroupConstructorConfig& config() const { return config_; }
  rl::DdqnAgent& agent() { return *agent_; }

  /// Encodes embeddings into the DDQN state (exposed for tests).
  std::vector<float> encode_state(const clustering::Points& embeddings,
                                  std::size_t previous_k) const;

 private:
  GroupConstructorConfig config_;
  std::unique_ptr<rl::DdqnAgent> agent_;

  struct Pending {
    std::vector<float> state;
    std::size_t action = 0;
    double silhouette = 0.0;
    double k_norm = 0.0;
  };
  std::optional<Pending> pending_;
  double last_reported_error_ = 0.0;
  std::size_t previous_k_ = 0;
};

}  // namespace dtmsv::core
