// TwinColumnStore: the columnar twin engine behind TwinStore.
//
// One SoA ring-buffer column per attribute across ALL users (twin/
// columns.hpp) and one PreferenceEstimator per user. Batch extraction
// into a FeatureArena extracts every user's row on the thread pool; rows
// are extracted independently (deterministic for any DTMSV_THREADS) with
// arithmetic bit-identical to the single-row extract_window_row /
// extract_summary_row. Summary rows are extracted a block of users at a
// time (their mean/variance recurrences run side by side), and the
// single-row form is the one-user block.
#pragma once

#include <cstddef>
#include <vector>

#include "behavior/preference.hpp"
#include "twin/arena.hpp"
#include "twin/columns.hpp"
#include "util/clock.hpp"

namespace dtmsv::twin {

/// Per-attribute capacities of fixed rings (one-user stores, tests,
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
  /// Users whose summary rows one pass extracts together. Each row's means
  /// and variances are Welford recurrences, a serial chain with a divide
  /// per sample; the chains of different users are independent, so running
  /// them as the lanes of one block overlaps their latency.
  static constexpr std::size_t kSummaryLanes = 8;

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

  /// Applies preference forgetting to every user (once per interval).
  void decay_preferences();

  /// Slot recycling for handover: the user's rings empty (O(1), nothing
  /// reallocated) and the estimator resets.
  void reset_user(std::size_t u);

  // --- reads: every reader walks a column with for_each_slot_in and reads
  // its flat value lanes ---
  const behavior::PreferenceEstimator& estimator(std::size_t u) const {
    return estimators_[u];
  }
  /// User `u`'s current preference: the newest snapshot in the preference
  /// ring, or the estimator's running estimate while the ring is empty.
  /// Summary rows and group aggregation both read it.
  behavior::PreferenceVector latest_preference(std::size_t u) const;

  const ChannelColumn& channel_column() const { return channel_; }
  const LocationColumn& location_column() const { return location_; }
  const WatchColumn& watch_column() const { return watch_; }
  const PreferenceColumn& preference_column() const { return preference_; }

  // --- batch extraction into a pooled arena ---

  /// Materialises every user's [kFeatureChannels x timesteps] window ending
  /// at spec.now and spanning spec.window_s, resampled to spec.timesteps
  /// uniform bins (row-major, channel-major order: the layout the 1D-CNN
  /// consumes), into `arena` and returns a view over it. Channels:
  ///   0: normalised SNR            1: spectral efficiency / 6
  ///   2: normalised x              3: normalised y
  ///   4: mean watch fraction       5..: preference weight per category
  /// Empty bins carry the previous bin's value (zero-order hold; zeros
  /// before the first sample).
  WindowBatch feature_windows(const WindowSpec& spec, FeatureArena& arena) const;

  /// Summary-feature counterpart ([kSummaryDim] per user, for stages that
  /// skip the CNN): mean/std normalised SNR, mean position, mean/std watch
  /// fraction, then latest_preference().
  SummaryBatch summary_features(const SummarySpec& spec, FeatureArena& arena) const;

  /// Single-row extraction (one-user stores, spot checks). `out` must
  /// hold kFeatureChannels * spec.timesteps floats / kSummaryDim doubles.
  void extract_window_row(std::size_t u, const WindowSpec& spec, float* out) const;
  void extract_summary_row(std::size_t u, const SummarySpec& spec, double* out) const;

 private:
  struct RowScratch;
  struct SummaryScratch;
  void extract_window_row(std::size_t u, const WindowSpec& spec, float* out,
                          RowScratch& scratch) const;
  /// Summary rows of users [first, first + lanes), lanes <= kSummaryLanes,
  /// written to `out` one row after another.
  void extract_summary_rows(std::size_t first, std::size_t lanes, const SummarySpec& spec,
                            double* out, SummaryScratch& scratch) const;

  ChannelColumn channel_;
  LocationColumn location_;
  WatchColumn watch_;
  PreferenceColumn preference_;
  std::vector<behavior::PreferenceEstimator> estimators_;
};

}  // namespace dtmsv::twin
