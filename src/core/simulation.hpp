// End-to-end simulation of the paper's scheme over resource reservation
// intervals:
//
//   tick loop (1 s): mobility -> channel -> viewing (individual sessions
//     during warm-up, group-feed multicast playback after) -> UDT collection
//   interval end:    realized demand vs. the prediction made one interval
//     earlier -> core::predict_interval: FeatureStage (1D-CNN compression
//     of UDT windows) -> GroupingStage (DDQN+K-means++) -> per-group
//     swiping distribution, preference aggregation, recommendation ->
//     DemandStage (radio & computing demand prediction for the next
//     interval), the same routine the serve loop calls.
//
// The three stages are pluggable through core/pipeline.hpp's StageRegistry;
// the defaults reproduce the paper. Ground truth and prediction share the
// same structural model but diverge through what the twin actually observed
// (collection loss/latency/windows) versus what the users actually did —
// the gap the paper's accuracy number measures.
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/popularity.hpp"
#include "analysis/recommend.hpp"
#include "analysis/swiping.hpp"
#include "behavior/session.hpp"
#include "core/feature_compressor.hpp"
#include "core/group_constructor.hpp"
#include "core/pipeline.hpp"
#include "mobility/random_waypoint.hpp"
#include "predict/demand.hpp"
#include "twin/collector.hpp"
#include "twin/store.hpp"
#include "util/stats.hpp"
#include "wireless/channel.hpp"
#include "wireless/multicast.hpp"

namespace dtmsv::core {

// NOTE for out-of-tree code: the pre-PR-3 stage-selection enums
// (core::FeatureMode, core::KSelectionMode, core::ChannelPredictorKind) and
// the SchemeConfig fields that carried them (feature_mode, k_mode,
// channel_predictor, joint_group_efficiency) were removed after one
// deprecation cycle. Stage selection is registry-keys-only now: set
// SchemeConfig::feature_stage = "cnn" | "raw" | "summary",
// grouping_stage = "ddqn" | "fixed" | "elbow" | "random" | "silhouette",
// demand_stage = "joint" | "last_value" | "ewma" | "linear_trend" | "mean"
// (joint_group_efficiency=false used to mean demand_stage=channel_predictor
// key; =true meant "joint"). See core/pipeline.hpp for the StageRegistry.

/// Full scheme configuration (defaults reproduce the paper's setup).
struct SchemeConfig {
  std::uint64_t seed = 42;
  std::size_t user_count = 120;
  double interval_s = 300.0;  // paper: 5-minute reservation interval
  double tick_s = 1.0;
  std::size_t warmup_intervals = 2;
  double feature_window_s = 600.0;
  std::size_t feature_timesteps = 32;
  double affinity_concentration = 0.35;

  behavior::SessionConfig session{};
  mobility::MobilityConfig mobility{};
  wireless::RadioConfig radio{};
  twin::CollectionPolicy collection{};
  CompressorConfig compressor{};
  GroupConstructorConfig grouping{};
  predict::DemandModelConfig demand{};
  analysis::RecommenderConfig recommender{};

  std::size_t swiping_bins = 20;
  double swiping_forgetting = 0.7;
  double popularity_forgetting = 0.8;

  /// Per-interval taste drift: each user's ground-truth affinity moves this
  /// fraction of the way toward a freshly drawn taste vector every interval
  /// (0 = static users, the paper's implicit setting). Exercises the twin's
  /// preference tracking under non-stationary behaviour.
  double affinity_drift_rate = 0.0;

  /// StageRegistry keys selecting the pipeline backends (the only stage
  /// selection mechanism; see core/pipeline.hpp and the migration note at
  /// the top of this header). Defaults reproduce the paper: "cnn" 1D-CNN
  /// autoencoder features, "ddqn" DDQN-empowered K selection, and the
  /// "joint" min-over-members demand forecast (unbiased for the multicast
  /// accounting; the per-member "last_value"/"ewma"/"linear_trend"/"mean"
  /// stages are the optimistically-biased ablation baselines).
  std::string feature_stage = "cnn";
  std::string grouping_stage = "ddqn";
  std::string demand_stage = "joint";

  /// K used by the "fixed" grouping stage (ignored by the others).
  std::size_t fixed_k = 4;
  /// Online residual calibration: the digital twin feeds the realized
  /// actual/predicted ratio back into the next interval's forecast (EWMA,
  /// clamped). Corrects the small structural biases a closed-form demand
  /// model cannot see (heterogeneous-member max-watch, rung/efficiency
  /// covariance during fades).
  bool online_bias_correction = true;
};

/// Validates a scheme configuration, throwing util::PreconditionError with
/// the offending field on invalid values (zero users, non-positive tick_s,
/// interval_s < tick_s, degenerate windows, bad forgetting factors, ...).
/// Called by the Simulation constructor; exposed for config-building tools.
void validate(const SchemeConfig& config);

/// The full scheme + environment.
class Simulation {
 public:
  explicit Simulation(const SchemeConfig& config);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Advances one reservation interval, delivering its per-group reports
  /// through sink.on_group and the interval report through
  /// sink.on_interval. Nothing is accumulated (a CollectingSink keeps them).
  void run_interval(ReportSink& sink);

  /// Runs `n` intervals streaming into `sink`.
  void run(std::size_t n, ReportSink& sink);

  /// Hands the user slot over to a newcomer (inter-cell handover in a
  /// multi-cell fleet): the slot's ground-truth affinity becomes
  /// `incoming`, the walker re-enters the campus at a fresh waypoint, the
  /// channel draws fresh shadowing/fading state, and the slot's digital
  /// twin is reset — the BS has no history for an arriving user. Returns
  /// the departing user's affinity so the caller can seat it elsewhere.
  /// Any active multicast group keeps the slot until the next regroup
  /// (group membership is only revised at interval boundaries).
  behavior::PreferenceVector handover_user(std::size_t slot,
                                           const behavior::PreferenceVector& incoming);

  // --- observability for benches, examples and tests ---
  const SchemeConfig& config() const { return config_; }
  util::SimTime now() const { return now_; }
  /// Total simulation ticks executed so far (exact: ticks are scheduled by
  /// integer index within each interval, never by accumulated float time).
  std::size_t tick_count() const { return tick_count_; }
  const video::Catalog& catalog() const { return catalog_; }
  const twin::TwinStore& twins() const { return *twins_; }
  const twin::CollectorStats& collector_stats() const;

  /// The active pipeline stages (names, learned-state queries).
  const FeatureStage& feature_stage() const { return *feature_stage_; }
  const GroupingStage& grouping_stage() const { return *grouping_stage_; }
  const DemandStage& demand_stage() const { return *demand_stage_; }

  /// Cumulative wall-time breakdown of the interval loop since construction
  /// (or the last reset), attributing cost to simulate vs. stages.
  const StageTimings& stage_timings() const { return timings_; }
  void reset_stage_timings() { timings_ = StageTimings{}; }

  std::size_t group_count() const { return groups_.size(); }
  /// Group observability accessors. All throw util::RuntimeError when the
  /// index is out of range (including when no groups are active yet).
  const std::vector<std::size_t>& group_members(std::size_t g) const;
  const analysis::SwipingDistribution& group_swiping(std::size_t g) const;
  const behavior::PreferenceVector& group_preference(std::size_t g) const;
  const analysis::Recommendation& group_recommendation(std::size_t g) const;

  /// Index of the active group with the highest preference weight for the
  /// given category (the paper reports "multicast group 1", its most
  /// News-leaning group). Throws util::RuntimeError when no groups are
  /// active.
  std::size_t most_preferring_group(video::Category category) const;

  /// Ground-truth user affinities (for clustering-quality evaluation).
  const std::vector<behavior::PreferenceVector>& true_affinities() const {
    return affinities_;
  }

  /// Persists the learned models (the stages' learned state: 1D-CNN
  /// encoder+decoder and, when the DDQN grouping stage is active, its
  /// online Q-network) so a trained scheme can be redeployed without
  /// retraining. At least one active stage must have learned state.
  void save_models(std::ostream& os) const;
  /// Loads models saved by save_models into a simulation whose stages have
  /// the same learned-state layout; throws util::RuntimeError on mismatch.
  void load_models(std::istream& is);

 private:
  /// A forecast group (core::predict_interval) plus its playback state.
  struct Group : GroupForecast {
    explicit Group(GroupForecast&& forecast) : GroupForecast(std::move(forecast)) {}

    // Playback state.
    std::size_t playlist_pos = 0;
    const video::Video* current = nullptr;
    util::SimTime video_started = 0.0;
    double on_air_s = 0.0;
    double gap_remaining_s = 0.0;
    std::vector<double> member_watch_s;
    std::size_t rung = 0;
    bool events_emitted = false;

    // Per-interval accounting.
    double bits = 0.0;
    double hz_seconds = 0.0;
    double compute_cycles = 0.0;
    double unicast_hz_seconds = 0.0;  // per-member private-stream counterfactual
    double efficiency_time_integral = 0.0;  // for mean realized efficiency
    double on_air_time = 0.0;
    std::size_t videos_played = 0;
  };

  void tick(std::vector<behavior::ViewEvent>& events, util::SimTime t0,
            util::SimTime t1);
  void drift_affinities();
  double group_live_efficiency(const Group& g) const;
  void start_group_video(Group& g, util::SimTime at);
  void advance_group(Group& g, util::SimTime from, double dt,
                     std::vector<behavior::ViewEvent>& events);
  void rebuild_groups(EpochReport& report);

  SchemeConfig config_;
  util::Rng rng_;
  mobility::CampusMap campus_;
  video::Catalog catalog_;
  predict::ContentStats content_;

  std::unique_ptr<mobility::MobilityField> mobility_;
  std::unique_ptr<wireless::ChannelModel> channel_;
  std::unique_ptr<twin::TwinStore> twins_;
  /// Pooled feature-extraction buffers handed to every TwinSnapshot: the
  /// interval path materialises windows/summaries in place (no per-user
  /// vectors), reusing the buffers from one interval to the next.
  twin::FeatureArena feature_arena_;
  std::unique_ptr<twin::StatusCollector> collector_;
  std::vector<behavior::PreferenceVector> affinities_;
  std::vector<behavior::ViewingSession> warmup_sessions_;
  analysis::PopularityAnalyzer popularity_;

  std::unique_ptr<FeatureStage> feature_stage_;
  std::unique_ptr<GroupingStage> grouping_stage_;
  std::unique_ptr<DemandStage> demand_stage_;
  wireless::MulticastPhy phy_;

  std::vector<Group> groups_;
  util::SimTime now_ = 0.0;
  util::IntervalId interval_ = 0;
  std::size_t tick_count_ = 0;
  StageTimings timings_;
  util::Rng playback_rng_;
  util::Rng cluster_rng_;
  util::Rng drift_rng_;     // taste drift; never perturbs the playback stream
  util::Rng handover_rng_;  // fresh state for users arriving via handover
  util::Ewma radio_bias_{0.3};    // EWMA of actual/predicted radio ratio
  util::Ewma compute_bias_{0.3};  // EWMA of actual/predicted compute ratio
};

}  // namespace dtmsv::core
