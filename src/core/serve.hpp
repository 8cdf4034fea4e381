// Always-on streaming serving mode: standing twin-report traffic in, one
// interval prediction out per reservation boundary, under a latency SLO.
//
// The batch Simulation owns its environment and advances it tick by tick;
// the ServeLoop instead *receives* the environment as a stream of
// TwinEvents (offer()), holds them in a bounded EventQueue (backpressure:
// shed-oldest with exact drop accounting), and on every interval boundary
// crossed by advance_to() drains the admitted events into the columnar
// TwinColumnStore and fires the pipeline — feature extraction, grouping,
// per-group abstraction + demand prediction — exactly as the batch
// interval loop wires it.
//
// Latency SLO: each fired prediction is timed against ServeConfig::
// deadline_ms using an injected ServeClock (steady_clock in production, a
// scripted ManualServeClock in tests, which keeps every pipeline result
// bit-deterministic for any DTMSV_THREADS — the wall clock only ever
// decides *fidelity*, never arithmetic). A DegradationPolicy folds the
// hit/miss stream into a position on a fidelity ladder; each rung names a
// FeatureStage registry key, so degrading under load is a pure key swap
// through the StageRegistry (cnn -> summary by default) and recovery steps
// back up after sustained hits. Every transition and every drop batch
// streams through the ReportSink interface (on_degradation / on_drop) next
// to the ordinary group/interval reports.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/popularity.hpp"
#include "core/event_queue.hpp"
#include "core/pipeline.hpp"
#include "core/simulation.hpp"
#include "predict/demand.hpp"
#include "twin/arena.hpp"
#include "twin/store.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"
#include "video/catalog.hpp"

namespace dtmsv::core {

// ------------------------------------------------------------------ clocks

/// Wall-clock source for deadline accounting. The loop samples it exactly
/// twice per fired prediction (immediately before feature extraction and
/// immediately after demand prediction), which is the contract scripted
/// test clocks rely on.
class ServeClock {
 public:
  virtual ~ServeClock() = default;
  virtual double now_s() = 0;
};

/// Production clock: std::chrono::steady_clock.
class SteadyServeClock final : public ServeClock {
 public:
  double now_s() override {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};

/// Deterministic scripted clock for tests. Each now_s() call first advances
/// by the next queued step (or by default_step once the queue is empty),
/// then returns the current time — so queue_pipeline_cost(c) makes exactly
/// one upcoming prediction appear to cost `c` seconds.
class ManualServeClock final : public ServeClock {
 public:
  double now_s() override {
    double step = default_step;
    if (!steps_.empty()) {
      step = steps_.front();
      steps_.pop_front();
    }
    now_ += step;
    return now_;
  }

  /// Queues one clock advance consumed by the next now_s() call.
  void queue_step(double dt) { steps_.push_back(dt); }
  /// Scripts the next prediction's apparent latency: zero advance at its
  /// start sample, `cost_s` at its end sample.
  void queue_pipeline_cost(double cost_s) {
    queue_step(0.0);
    queue_step(cost_s);
  }

  double default_step = 0.0;

 private:
  double now_ = 0.0;
  std::deque<double> steps_;
};

// ------------------------------------------------------------- degradation

/// One rung of the fidelity ladder. Rung 0 is full fidelity; higher rungs
/// trade prediction quality for latency by swapping the feature-stage
/// registry key.
struct DegradationLevel {
  std::string name;                 // reported through DegradationEvent
  std::string feature_stage = "cnn";  // StageRegistry feature key
  bool full_extraction = false;     // no effect; held for the perfbench harness
};

struct DegradationPolicyConfig {
  /// Rungs ordered best-first. Default: the paper's CNN pipeline, then the
  /// cheap summary-statistics features.
  std::vector<DegradationLevel> ladder = default_ladder();
  /// Consecutive deadline misses before stepping one rung down.
  std::size_t step_down_after = 1;
  /// Consecutive deadline hits before stepping one rung back up.
  std::size_t step_up_after = 3;

  static std::vector<DegradationLevel> default_ladder();
};

/// Folds the per-interval deadline outcome stream into a ladder position.
/// Pure bookkeeping (no clock, no stages) so tests can drive it directly.
class DegradationPolicy {
 public:
  explicit DegradationPolicy(DegradationPolicyConfig config);

  std::size_t level() const { return level_; }
  std::size_t level_count() const { return config_.ladder.size(); }
  const DegradationLevel& current() const { return config_.ladder[level_]; }
  const DegradationLevel& at(std::size_t i) const { return config_.ladder[i]; }

  /// Records one interval's outcome; returns the new level when a ladder
  /// transition fired (one rung at a time), std::nullopt otherwise.
  std::optional<std::size_t> record(bool deadline_hit);

 private:
  DegradationPolicyConfig config_;
  std::size_t level_ = 0;
  std::size_t consecutive_misses_ = 0;
  std::size_t consecutive_hits_ = 0;
};

// -------------------------------------------------------------- serve loop

struct ServeConfig {
  /// Pipeline geometry + stage keys. scheme.interval_s is the prediction
  /// cadence; scheme.feature_stage is ignored (the ladder selects feature
  /// stages), grouping_stage/demand_stage apply as usual. scheme.user_count
  /// bounds the TwinEvent::user ids offer() accepts.
  SchemeConfig scheme{};
  double deadline_ms = 50.0;       // per-prediction latency budget
  std::size_t queue_capacity = 4096;
  DegradationPolicyConfig degradation{};
  /// Feature normalisation; the default constants match the default campus
  /// extent (see twin::FeatureScaling).
  twin::FeatureScaling scaling{};
};

/// Throws util::PreconditionError on invalid values (delegates scheme
/// validation to core::validate, then checks the serve-specific fields:
/// positive deadline and capacity, non-empty ladder with registered
/// feature keys, positive hysteresis counts).
void validate(const ServeConfig& config);

/// Lifetime counters + the latency record of one ServeLoop.
struct ServeStats {
  std::size_t intervals = 0;        // predictions fired
  std::size_t deadline_misses = 0;
  std::uint64_t events_ingested = 0;  // drained into the twin columns
  std::uint64_t events_dropped = 0;   // shed by the queue
  std::size_t steps_down = 0;       // ladder transitions away from rung 0
  std::size_t steps_up = 0;         // ladder transitions toward rung 0
  std::vector<double> latencies_ms;  // one entry per fired prediction
};

/// Nearest-rank percentile of `values` (q in [0, 100]); 0 when empty.
/// Does not require `values` sorted.
double latency_percentile(const std::vector<double>& values, double q);

/// The serving engine. Single-threaded at the API surface (offer/advance_to
/// from one thread); the pipeline stages themselves parallelise internally
/// through util::parallel_for exactly as in batch mode.
class ServeLoop {
 public:
  /// `clock` and `sink` must outlive the loop; `sink` may be null.
  ServeLoop(const ServeConfig& config, ServeClock& clock,
            ReportSink* sink = nullptr);

  ServeLoop(const ServeLoop&) = delete;
  ServeLoop& operator=(const ServeLoop&) = delete;

  const ServeConfig& config() const { return config_; }
  /// The catalog the loop generated from scheme.session.engagement.catalog
  /// (workload generators sample video ids from it so watch reports name
  /// real videos).
  const video::Catalog& catalog() const { return catalog_; }
  const twin::TwinStore& twins() const { return *twins_; }
  const DegradationPolicy& degradation() const { return policy_; }
  const ServeStats& stats() const { return stats_; }
  std::size_t queue_size() const { return queue_.size(); }
  /// Event time the loop has advanced to.
  util::SimTime now() const { return now_; }
  /// Index of the next interval boundary to fire.
  util::IntervalId next_interval() const { return interval_; }

  /// Admission control: enqueues one twin report (bounded queue,
  /// shed-oldest under overload). Events must carry nondecreasing
  /// timestamps and a user id < scheme.user_count.
  void offer(const TwinEvent& event);

  /// Advances event time to `t` (monotonic), draining admitted events into
  /// the twin columns and firing one prediction per interval boundary
  /// crossed. Each prediction consumes only events timestamped at or
  /// before its boundary.
  void advance_to(util::SimTime t);

 private:
  void ingest(const TwinEvent& event);
  void report_drops();
  void snapshot_preferences(util::SimTime at);
  void fire_prediction(util::SimTime at);

  ServeConfig config_;
  ServeClock* clock_;
  ReportSink* sink_;
  util::Rng rng_;
  video::Catalog catalog_;
  predict::ContentStats content_;
  std::unique_ptr<twin::TwinStore> twins_;
  twin::FeatureArena arena_;
  EventQueue queue_;
  analysis::PopularityAnalyzer popularity_;
  /// One constructed stage per distinct ladder key (all built up front so a
  /// swap under load costs nothing and learned stages keep training
  /// wherever the ladder currently sits), and each rung's stage.
  std::vector<std::unique_ptr<FeatureStage>> feature_stages_;
  std::vector<FeatureStage*> rung_stages_;
  std::unique_ptr<GroupingStage> grouping_stage_;
  std::unique_ptr<DemandStage> demand_stage_;
  DegradationPolicy policy_;
  util::Rng cluster_rng_;
  /// Users with watch evidence since their last preference snapshot; only
  /// these get a record_preference row per interval, which decides the
  /// preference rows (and so the forecasts) the twins carry.
  std::vector<std::uint8_t> preference_dirty_;
  util::SimTime now_ = 0.0;
  util::IntervalId interval_ = 0;
  std::uint64_t reported_drops_ = 0;
  ServeStats stats_;
};

}  // namespace dtmsv::core
