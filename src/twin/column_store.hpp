// TwinColumnStore: the columnar twin engine behind TwinStore.
//
// One SoA ring-buffer column per attribute across ALL users (twin/
// columns.hpp) and one PreferenceEstimator per user. Batch extraction
// into a FeatureArena extracts every user's row on the thread pool; rows
// are extracted independently (deterministic for any DTMSV_THREADS) with
// arithmetic bit-identical to one twin's UserDigitalTwin::feature_window /
// summary_features.
#pragma once

#include <cstddef>
#include <vector>

#include "behavior/preference.hpp"
#include "twin/arena.hpp"
#include "twin/columns.hpp"
#include "util/clock.hpp"

namespace dtmsv::twin {

/// Per-attribute capacities of fixed rings (standalone twins, tests,
/// micro-benchmarks); the defaults are also the ceilings of rings that
/// retain by time (RetentionSpan). The lanes are dense (capacity stride per user), so
/// paying channel-rate capacity for every attribute would multiply memory
/// ~4x for nothing: the collector samples location / watch / preference
/// 5-60x sparser than the 1 Hz channel feedback. scaled() derives
/// proportional lanes from one channel-rate capacity.
struct ColumnCapacities {
  std::size_t channel = 2048;
  std::size_t location = 512;
  std::size_t watch = 256;
  std::size_t preference = 128;

  /// channel = `history_capacity`; sparser lanes at 1/4, 1/8 and 1/16 of
  /// it, floored at min(history_capacity, 64) so tiny test capacities
  /// keep uniform ring semantics.
  static ColumnCapacities scaled(std::size_t history_capacity);
};

/// Retention by time: every ring keeps the samples younger than `seconds`
/// before its newest one (a feature window plus collection latency and one
/// tick of slack, see RingColumnBase::push_slot). Rings start at 8 slots
/// and double on demand, up to the default ColumnCapacities, past which
/// they evict like fixed rings. A distinct type, so a slot count never
/// converts into a span.
struct RetentionSpan {
  double seconds = 0.0;
};

/// Columnar storage + batch extraction for a population of twins.
class TwinColumnStore {
 public:
  /// Number of feature channels per extracted window row.
  static constexpr std::size_t kFeatureChannels = 5 + video::kCategoryCount;
  /// Dimension of a summary-feature row.
  static constexpr std::size_t kSummaryDim = 6 + video::kCategoryCount;

  /// `history_capacity`: channel-lane slots per user; the sparser
  /// attributes get ColumnCapacities::scaled() shares of it.
  TwinColumnStore(std::size_t user_count, std::size_t history_capacity);
  TwinColumnStore(std::size_t user_count, const ColumnCapacities& capacities);
  /// Rings that retain `retention.seconds` of history and grow on demand,
  /// to at most the default ColumnCapacities.
  TwinColumnStore(std::size_t user_count, RetentionSpan retention);

  std::size_t user_count() const { return estimators_.size(); }
  /// Bytes allocated by the four attribute columns (all lanes and ring
  /// state; the preference estimators are not counted).
  std::size_t bytes() const;

  // --- ingestion ---
  void record_channel(std::size_t u, util::SimTime t, const ChannelObservation& obs);
  void record_location(std::size_t u, util::SimTime t, const mobility::Position& pos);
  /// Feeds the preference estimator (category + engagement seconds), then
  /// appends the watch sample — the twin-side preference update.
  void record_watch(std::size_t u, util::SimTime t, const WatchObservation& obs);
  void record_preference(std::size_t u, util::SimTime t,
                         const behavior::PreferenceVector& estimate);

  /// Applies preference forgetting to one user / every user (once per
  /// interval).
  void decay_preference(std::size_t u);
  void decay_preferences();

  /// Slot recycling for handover: the user's rings empty (O(1), nothing
  /// reallocated) and the estimator resets.
  void reset_user(std::size_t u);

  // --- per-user reads ---
  ChannelSeries channel(std::size_t u) const { return {&channel_, u}; }
  LocationSeries location(std::size_t u) const { return {&location_, u}; }
  WatchSeries watch(std::size_t u) const { return {&watch_, u}; }
  PreferenceSeries preference(std::size_t u) const { return {&preference_, u}; }
  const behavior::PreferenceEstimator& estimator(std::size_t u) const {
    return estimators_[u];
  }

  // --- raw column access for scan-heavy consumers (channel forecasting,
  // swiping aggregation, out-of-tree kernels): for_each_slot_in + the flat
  // value lanes avoid materialising a Stamped<T> per sample ---
  const ChannelColumn& channel_column() const { return channel_; }
  const LocationColumn& location_column() const { return location_; }
  const WatchColumn& watch_column() const { return watch_; }
  const PreferenceColumn& preference_column() const { return preference_; }

  // --- batch extraction into a pooled arena ---

  /// Materialises every user's [kFeatureChannels x timesteps] window
  /// (channel-major, zero-order hold — see UserDigitalTwin::feature_window)
  /// into `arena` and returns a view over it.
  WindowBatch feature_windows(const WindowSpec& spec, FeatureArena& arena) const;

  /// Summary-feature counterpart ([kSummaryDim] per user, see
  /// UserDigitalTwin::summary_features).
  SummaryBatch summary_features(const SummarySpec& spec, FeatureArena& arena) const;

  /// Single-row extraction (standalone twins, spot checks). `out` must
  /// hold kFeatureChannels * spec.timesteps floats / kSummaryDim doubles.
  void extract_window_row(std::size_t u, const WindowSpec& spec, float* out) const;
  void extract_summary_row(std::size_t u, const SummarySpec& spec, double* out) const;

 private:
  struct RowScratch;
  void extract_window_row(std::size_t u, const WindowSpec& spec, float* out,
                          RowScratch& scratch) const;

  ChannelColumn channel_;
  LocationColumn location_;
  WatchColumn watch_;
  PreferenceColumn preference_;
  std::vector<behavior::PreferenceEstimator> estimators_;
};

}  // namespace dtmsv::twin
