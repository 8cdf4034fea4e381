// TwinColumnStore: the columnar twin engine behind TwinStore.
//
// One SoA ring-buffer column per attribute across ALL users (twin/
// columns.hpp), one PreferenceEstimator and one revision watermark per
// user. Every ingestion and reset bumps the user's revision; feature
// extraction into a FeatureArena compares watermarks against the arena's
// last extraction and re-extracts only users whose histories changed while
// the window geometry stayed put — the steady-state interval loop (moving
// `now`) extracts everyone, churn-style consumers re-reading the same
// snapshot touch only the dirty slots. Rows are extracted independently
// (deterministic for any DTMSV_THREADS) with arithmetic bit-identical to
// the seed's per-twin AttributeSeries path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "behavior/preference.hpp"
#include "twin/arena.hpp"
#include "twin/columns.hpp"
#include "util/clock.hpp"

namespace dtmsv::twin {

/// Per-attribute ring capacities. The lanes are dense (capacity stride per
/// user), so paying channel-rate capacity for every attribute would
/// multiply fleet memory ~4x for nothing: the collector samples location /
/// watch / preference 5-60x sparser than the 1 Hz channel feedback.
/// scaled() derives proportional lanes from one channel-rate capacity.
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

/// Columnar storage + incremental extraction for a population of twins.
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

  std::size_t user_count() const { return estimators_.size(); }
  std::size_t history_capacity() const { return channel_.capacity(); }
  /// Process-unique id of this store instance — the FeatureArena cache key
  /// (a raw pointer could be reused by a successor store; the id cannot).
  std::uint64_t store_id() const { return store_id_; }

  // --- ingestion (each call bumps the user's revision watermark) ---
  void record_channel(std::size_t u, util::SimTime t, const ChannelObservation& obs);
  void record_location(std::size_t u, util::SimTime t, const mobility::Position& pos);
  /// Feeds the preference estimator (category + engagement seconds), then
  /// appends the watch sample — the twin-side preference update.
  void record_watch(std::size_t u, util::SimTime t, const WatchObservation& obs);
  void record_preference(std::size_t u, util::SimTime t,
                         const behavior::PreferenceVector& estimate);

  /// Applies preference forgetting to one user / every user (once per
  /// interval). Dirties the watermark: summary rows read the estimator.
  void decay_preference(std::size_t u);
  void decay_preferences();

  /// Slot recycling for handover: the user's rings empty (O(1), nothing
  /// reallocated), the estimator resets, and the revision bump marks the
  /// slot dirty so no cached feature row of the departed user survives.
  void reset_user(std::size_t u);

  /// Monotonic per-user change counter (the dirty watermark).
  std::uint64_t revision(std::size_t u) const { return revisions_[u]; }

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
  /// into `arena` and returns a view over it. Incremental: when the arena
  /// already holds this store's rows for the same spec, only users whose
  /// revision moved are re-extracted (`force_full` disables the cache; the
  /// result is bit-identical either way). arena.window_stats() reports the
  /// refreshed/reused split.
  WindowBatch feature_windows(const WindowSpec& spec, FeatureArena& arena,
                              bool force_full = false) const;

  /// Summary-feature counterpart ([kSummaryDim] per user, see
  /// UserDigitalTwin::summary_features), same incremental contract.
  SummaryBatch summary_features(const SummarySpec& spec, FeatureArena& arena,
                                bool force_full = false) const;

  /// Single-row extraction (standalone twins, spot checks). `out` must
  /// hold kFeatureChannels * spec.timesteps floats / kSummaryDim doubles.
  void extract_window_row(std::size_t u, const WindowSpec& spec, float* out) const;
  void extract_summary_row(std::size_t u, const SummarySpec& spec, double* out) const;

 private:
  struct RowScratch;
  void extract_window_row(std::size_t u, const WindowSpec& spec, float* out,
                          RowScratch& scratch) const;

  std::uint64_t store_id_;
  ChannelColumn channel_;
  LocationColumn location_;
  WatchColumn watch_;
  PreferenceColumn preference_;
  std::vector<behavior::PreferenceEstimator> estimators_;
  std::vector<std::uint64_t> revisions_;
};

}  // namespace dtmsv::twin
