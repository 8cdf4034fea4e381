// The paper's scheme as a pluggable pipeline. Each reservation interval the
// scheme runs three typed stages over the digital-twin state:
//
//   FeatureStage   UDT windows -> per-user feature points
//                  (paper: 1D-CNN autoencoder bottleneck, key "cnn")
//   GroupingStage  feature points -> grouping number K + user assignment
//                  (paper: DDQN-empowered K-means++, key "ddqn")
//   DemandStage    abstracted group state -> next-interval radio+compute
//                  demand (paper: joint min-series channel forecast, "joint")
//
// Stages are selected by string key through the process-wide StageRegistry,
// so alternative backends (the ablation baselines here, or out-of-tree
// research variants) plug in without touching core::Simulation. The keys on
// SchemeConfig (feature_stage / grouping_stage / demand_stage) are the only
// selection mechanism, and a stage is named by its key alone. A baseline
// stage is a plain function behind its key: the K selectors in
// clustering/selectors.hpp and the per-member efficiency predictors in
// predict/channel_predictor.hpp.
//
// predict_interval() chains the three stages for one interval; the batch
// Simulation and the serve loop both call it, so they share one prediction
// path.
//
// Report delivery is streaming: a ReportSink observes per-group and
// per-interval outcomes (plus fleet handovers and serve-mode degradation /
// drop events) as they are scored, so large fleets never materialize
// per-shard report vectors just to aggregate them.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "analysis/popularity.hpp"
#include "analysis/recommend.hpp"
#include "analysis/swiping.hpp"
#include "behavior/preference.hpp"
#include "clustering/kmeans.hpp"
#include "predict/demand.hpp"
#include "twin/arena.hpp"
#include "twin/udt.hpp"
#include "util/clock.hpp"
#include "video/catalog.hpp"

namespace dtmsv::twin {
class TwinStore;
}

namespace dtmsv::core {

struct SchemeConfig;  // core/simulation.hpp

// ------------------------------------------------------------------ reports

/// Per-group slice of an interval report.
struct GroupReport {
  std::size_t group_id = 0;
  std::size_t size = 0;
  std::size_t rung = 0;
  double predicted_efficiency = 0.0;
  double realized_efficiency = 0.0;
  double predicted_radio_hz = 0.0;
  double actual_radio_hz = 0.0;
  double predicted_compute_cycles = 0.0;
  double actual_compute_cycles = 0.0;
  /// Counterfactual: bandwidth the same viewing would have cost had every
  /// member received a private unicast stream at their own link adaptation
  /// (the paper's motivation for multicast).
  double unicast_radio_hz = 0.0;
  std::size_t videos_played = 0;
};

/// One interval's outcome.
struct EpochReport {
  util::IntervalId interval = 0;
  bool grouped = false;           // groups were active during this interval
  bool has_prediction = false;    // predictions existed for this interval
  std::size_t k = 0;              // grouping chosen *for the next* interval
  double silhouette = 0.0;
  double ddqn_epsilon = 0.0;
  double reconstruction_loss = 0.0;
  double predicted_radio_hz_total = 0.0;
  double actual_radio_hz_total = 0.0;
  double predicted_compute_total = 0.0;
  double actual_compute_total = 0.0;
  double unicast_radio_hz_total = 0.0;
  /// |pred − actual| / actual on the radio total (0 when undefined).
  double radio_error = 0.0;
  double compute_error = 0.0;
};

// ---------------------------------------------------------- streaming sinks

/// One inter-cell handover executed by a fleet (both directions of a swap).
struct HandoverEvent {
  util::IntervalId interval = 0;  // fleet interval about to run
  std::size_t shard_a = 0;
  std::size_t shard_b = 0;
  std::size_t slot_a = 0;  // user slot handed over in shard_a
  std::size_t slot_b = 0;  // user slot handed over in shard_b
};

/// One serve-mode degradation-ladder transition (core/serve.hpp): the serve
/// loop swapped pipeline fidelity in response to the deadline outcome of the
/// interval that just fired.
struct DegradationEvent {
  util::IntervalId interval = 0;   // interval whose outcome triggered it
  std::size_t from_level = 0;      // ladder indices (0 = full fidelity)
  std::size_t to_level = 0;
  std::string from_name;           // DegradationLevel::name
  std::string to_name;
  double latency_ms = 0.0;         // the triggering prediction's latency
  double deadline_ms = 0.0;        // the budget it was measured against
  bool recovering = false;         // true = stepping back up the ladder
};

/// Serve-mode admission-control sheds, aggregated since the previous report
/// (one event per interval at most, so a sustained overload cannot flood
/// the sink with per-event records).
struct DropEvent {
  util::IntervalId interval = 0;
  std::uint64_t dropped = 0;       // events shed since the last DropEvent
  std::size_t queue_capacity = 0;
  std::size_t queue_size = 0;      // queue depth when the event was reported
};

/// Streaming observer of pipeline outcomes. All callbacks default to no-ops
/// so sinks override only what they consume.
///
/// Delivery contract: within one interval, every on_group call precedes the
/// on_interval call. A fleet delivers shards in fixed shard order after its
/// parallel phase, so sink output is deterministic for any thread count;
/// on_handover fires once per swap before the interval that first observes
/// it.
class ReportSink {
 public:
  virtual ~ReportSink() = default;
  ReportSink() = default;

  virtual void on_group(const GroupReport& group, util::IntervalId interval) {
    (void)group;
    (void)interval;
  }
  virtual void on_interval(const EpochReport& report) { (void)report; }
  virtual void on_handover(const HandoverEvent& event) { (void)event; }
  virtual void on_degradation(const DegradationEvent& event) { (void)event; }
  virtual void on_drop(const DropEvent& event) { (void)event; }

 protected:
  // Copyable for derived value-semantic sinks (series accumulators);
  // protected so the polymorphic base can't be sliced through.
  ReportSink(const ReportSink&) = default;
  ReportSink& operator=(const ReportSink&) = default;
};

/// Convenience sink that retains everything it observes (tests, small runs).
/// `group_intervals[i]` is the interval `groups[i]` belongs to.
class CollectingSink final : public ReportSink {
 public:
  void on_group(const GroupReport& group, util::IntervalId interval) override {
    groups.push_back(group);
    group_intervals.push_back(interval);
  }
  void on_interval(const EpochReport& report) override { reports.push_back(report); }
  void on_handover(const HandoverEvent& event) override { handovers.push_back(event); }
  void on_degradation(const DegradationEvent& event) override {
    degradations.push_back(event);
  }
  void on_drop(const DropEvent& event) override { drops.push_back(event); }

  std::vector<EpochReport> reports;
  std::vector<GroupReport> groups;
  std::vector<util::IntervalId> group_intervals;
  std::vector<HandoverEvent> handovers;
  std::vector<DegradationEvent> degradations;
  std::vector<DropEvent> drops;
};

// ------------------------------------------------------------------- stages

/// Zero-copy view of the twin state a FeatureStage consumes: the live
/// TwinStore plus the window geometry and the pooled extraction arena the
/// owning Simulation provides. Valid only for the duration of the
/// extract() call; stages must not retain the pointers.
struct TwinSnapshot {
  const twin::TwinStore* twins = nullptr;
  util::SimTime now = 0.0;
  double window_s = 0.0;       // feature window length (SchemeConfig)
  std::size_t timesteps = 0;   // resampled window length (SchemeConfig)
  twin::FeatureScaling scaling{};  // campus extent + channel normalisation
  /// Pooled extraction buffers owned by the Simulation. The batch views
  /// below extract every user into it and alias it: they stay valid until
  /// the next extraction using the same arena — copy rows out if a stage
  /// keeps them.
  twin::FeatureArena* arena = nullptr;
  /// No effect; held for the perfbench harness, which still sets it.
  bool force_full = false;

  /// All users' [kFeatureChannels x timesteps] windows, flat row-major.
  /// Requires `arena`; bit-identical to TwinColumnStore::extract_window_row.
  twin::WindowBatch feature_windows() const;
  /// All users' summary-feature rows, flat row-major. Requires `arena`.
  twin::SummaryBatch summary_features() const;
};

/// Copies a summary batch into an owning flat point set (one allocation) —
/// for grouping consumers that outlive the arena the batch aliases.
clustering::Points to_points(const twin::SummaryBatch& batch);

/// FeatureStage output: one feature point per user (row-major), plus the
/// training loss for stages that learn online (0 otherwise).
struct FeatureOutput {
  clustering::Points points;
  float reconstruction_loss = 0.0f;
};

/// Produces the per-user features the grouping stage clusters (ABL-CMP).
/// Stateful stages (the CNN autoencoder trains online) keep their state
/// across intervals; one instance serves one Simulation.
class FeatureStage {
 public:
  virtual ~FeatureStage() = default;
  FeatureStage() = default;
  FeatureStage(const FeatureStage&) = delete;
  FeatureStage& operator=(const FeatureStage&) = delete;

  virtual FeatureOutput extract(const TwinSnapshot& snapshot) = 0;

  /// Stages with learned parameters participate in Simulation::save_models /
  /// load_models through these hooks.
  virtual bool has_learned_state() const { return false; }
  virtual void save_state(std::ostream& os) const { (void)os; }
  virtual void load_state(std::istream& is) { (void)is; }
};

/// One grouping decision: the chosen K and the per-user cluster assignment.
struct GroupingOutcome {
  std::size_t k = 0;
  std::vector<std::size_t> assignment;  // assignment[user] in [0, k)
  double silhouette = 0.0;
  double epsilon = 0.0;  // exploration rate for learning stages (0 otherwise)
};

/// Chooses the grouping number and clusters users (ABL-CLU). Learning
/// stages receive the demand-prediction error of the interval their previous
/// decision governed through report_outcome (the delayed reward).
class GroupingStage {
 public:
  virtual ~GroupingStage() = default;
  GroupingStage() = default;
  GroupingStage(const GroupingStage&) = delete;
  GroupingStage& operator=(const GroupingStage&) = delete;

  /// Requires non-empty features; `rng` is the simulation's clustering
  /// stream (consume deterministically).
  virtual GroupingOutcome group(const clustering::Points& features,
                                util::Rng& rng) = 0;
  /// Normalised demand-prediction error of the interval governed by the
  /// previous group() decision. Optional feedback; default no-op.
  virtual void report_outcome(double prediction_error) { (void)prediction_error; }

  virtual bool has_learned_state() const { return false; }
  virtual void save_state(std::ostream& os) const { (void)os; }
  virtual void load_state(std::istream& is) { (void)is; }
};

/// Abstracted state of one multicast group, handed to the demand stage.
/// All pointers outlive the predict() call only.
struct GroupDemandContext {
  const std::vector<const twin::UserDigitalTwin*>* members = nullptr;
  const behavior::PreferenceVector* preference = nullptr;
  const analysis::SwipingDistribution* swiping = nullptr;
  /// Recommender quota per category for the next interval's playlist.
  const std::array<std::size_t, video::kCategoryCount>* playlist_per_category =
      nullptr;
  const predict::ContentStats* content = nullptr;
  util::SimTime now = 0.0;
};

/// DemandStage output: the group's channel-efficiency forecast and the
/// predicted next-interval resource demand.
struct GroupDemandForecast {
  double efficiency = 0.0;
  predict::ResourceDemand demand{};
};

/// Predicts one group's next-interval radio and computing demand from the
/// abstracted group information (ABL-PRED).
class DemandStage {
 public:
  virtual ~DemandStage() = default;
  DemandStage() = default;
  DemandStage(const DemandStage&) = delete;
  DemandStage& operator=(const DemandStage&) = delete;

  virtual GroupDemandForecast predict(const GroupDemandContext& context) = 0;
};

// ----------------------------------------------------------------- registry

/// Process-wide, string-keyed factory registry for pipeline stages. New
/// backends register from any translation unit (see examples/custom_stage.cpp)
/// and become selectable through SchemeConfig::{feature,grouping,demand}_stage
/// without touching core.
///
/// Factories receive the full SchemeConfig (valid only during the call) and
/// the simulation's root RNG. Stages that need randomness must derive it
/// deterministically from that RNG; by convention the built-in feature stage
/// seeds from rng.fork(6) and the built-in grouping stage from rng.fork(7)
/// (Rng::fork advances the parent stream, so whether a stage draws is part
/// of the reproducible configuration). Registration and lookup are
/// thread-safe; registering a key twice throws util::RuntimeError, as does
/// looking up an unknown key (listing the known keys).
class StageRegistry {
 public:
  using FeatureFactory =
      std::function<std::unique_ptr<FeatureStage>(const SchemeConfig&, util::Rng&)>;
  using GroupingFactory =
      std::function<std::unique_ptr<GroupingStage>(const SchemeConfig&, util::Rng&)>;
  using DemandFactory =
      std::function<std::unique_ptr<DemandStage>(const SchemeConfig&, util::Rng&)>;

  /// The process-wide registry, with the built-in stages pre-registered:
  /// feature "cnn" | "raw" | "summary"; grouping "ddqn" | "fixed" | "elbow" |
  /// "random" | "silhouette"; demand "joint" | "last_value" | "ewma" |
  /// "linear_trend" | "mean".
  static StageRegistry& instance();

  void register_feature(const std::string& key, FeatureFactory factory);
  void register_grouping(const std::string& key, GroupingFactory factory);
  void register_demand(const std::string& key, DemandFactory factory);

  bool has_feature(const std::string& key) const;
  bool has_grouping(const std::string& key) const;
  bool has_demand(const std::string& key) const;

  /// Throw util::RuntimeError "unknown <kind> stage '<key>' (known: a, b)"
  /// unless `key` is registered: config loaders check their keys before a
  /// run, so a typo fails at load instead of intervals in.
  void require_feature(const std::string& key) const;
  void require_grouping(const std::string& key) const;
  void require_demand(const std::string& key) const;

  std::unique_ptr<FeatureStage> make_feature(const std::string& key,
                                             const SchemeConfig& config,
                                             util::Rng& rng) const;
  std::unique_ptr<GroupingStage> make_grouping(const std::string& key,
                                               const SchemeConfig& config,
                                               util::Rng& rng) const;
  std::unique_ptr<DemandStage> make_demand(const std::string& key,
                                           const SchemeConfig& config,
                                           util::Rng& rng) const;

  /// Registered keys, sorted (diagnostics, bench sweeps).
  std::vector<std::string> feature_keys() const;
  std::vector<std::string> grouping_keys() const;
  std::vector<std::string> demand_keys() const;

  StageRegistry(const StageRegistry&) = delete;
  StageRegistry& operator=(const StageRegistry&) = delete;

 private:
  StageRegistry();
  ~StageRegistry();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Registry key the configuration selects (the SchemeConfig::*_stage
/// string, validated non-empty). Kept as the single lookup point so callers
/// never read the config fields directly.
std::string feature_stage_key(const SchemeConfig& config);
std::string grouping_stage_key(const SchemeConfig& config);
std::string demand_stage_key(const SchemeConfig& config);

// ------------------------------------------------------------ stage timings

/// Cumulative wall-time breakdown of the interval loop, attributing cost to
/// environment simulation vs. the three pipeline stages (bench ABL-INT
/// emits this into BENCH_micro_perf.json).
struct StageTimings {
  double simulate_s = 0.0;  // tick loop: mobility, channel, playback, UDTs
  double feature_s = 0.0;   // FeatureStage::extract
  double grouping_s = 0.0;  // GroupingStage::group
  double demand_s = 0.0;    // group abstraction + DemandStage::predict
  std::size_t intervals = 0;

  double pipeline_s() const { return feature_s + grouping_s + demand_s; }
  double total_s() const { return simulate_s + pipeline_s(); }
};

/// Monotonic wall-clock seconds (steady_clock) for StageTimings.
double monotonic_s();

// ------------------------------------------------------ interval prediction

/// One non-empty group's abstraction and next-interval demand forecast.
struct GroupForecast {
  std::size_t cluster = 0;  // the group's index in the grouping's [0, k)
  std::vector<std::size_t> members;
  analysis::SwipingDistribution swiping;
  behavior::PreferenceVector preference{};
  analysis::Recommendation recommendation;
  GroupDemandForecast forecast;
};

/// The paper's interval chain over `snapshot`: `feature` extracts every
/// user, `grouping` clusters them on `cluster_rng`, then each non-empty
/// group gets its swiping distribution, preference, recommendation (from
/// `catalog` and `popularity`) and `demand` forecast. Sets `report`'s k,
/// silhouette, ddqn_epsilon and reconstruction_loss, and adds the feature,
/// grouping and demand wall time to `timings` (callers count `intervals`).
/// Returns the groups in cluster order.
std::vector<GroupForecast> predict_interval(
    const TwinSnapshot& snapshot, const SchemeConfig& config, FeatureStage& feature,
    GroupingStage& grouping, DemandStage& demand, util::Rng& cluster_rng,
    const video::Catalog& catalog, const analysis::PopularityAnalyzer& popularity,
    const predict::ContentStats& content, EpochReport& report, StageTimings& timings);

}  // namespace dtmsv::core
