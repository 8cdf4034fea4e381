// User digital twin (UDT): the edge-hosted mirror of one user's real-time
// status — channel condition, location, watching duration, and preference —
// exactly the four attributes the paper's UDTs collect.
//
// Since the columnar refactor a UserDigitalTwin is a handle: the histories
// live in a TwinColumnStore (SoA ring buffers shared by the whole cell,
// twin/column_store.hpp) and the accessors return SeriesView adapters with
// the familiar series surface. A standalone twin (tests, single-user
// tooling) owns a private one-user store, so the ingestion/query API is
// unchanged from the AttributeSeries era. Retention is not: a standalone
// twin's fixed rings size per attribute (ColumnCapacities::scaled —
// location/watch/preference keep 1/4-1/16 of the channel capacity,
// matching the collector's report rates), where the deque era gave every
// attribute the full capacity; the stores Simulation and ServeLoop build
// retain by time instead (RetentionSpan).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "behavior/preference.hpp"
#include "twin/column_store.hpp"
#include "util/clock.hpp"

namespace dtmsv::twin {

/// Per-user digital twin handle.
class UserDigitalTwin {
 public:
  /// Standalone twin owning its own single-user columnar store.
  /// `history_capacity`: retained channel-lane samples; the sparser
  /// attributes keep ColumnCapacities::scaled shares of it.
  explicit UserDigitalTwin(std::uint64_t user_id, std::size_t history_capacity = 2048);

  /// View of slot `slot` inside a shared store (TwinStore's twins).
  UserDigitalTwin(TwinColumnStore* store, std::uint64_t user_id, std::size_t slot);

  UserDigitalTwin(UserDigitalTwin&&) = default;
  UserDigitalTwin& operator=(UserDigitalTwin&&) = default;
  UserDigitalTwin(const UserDigitalTwin&) = delete;
  UserDigitalTwin& operator=(const UserDigitalTwin&) = delete;

  std::uint64_t user_id() const { return user_id_; }

  /// Ingestion (called by the BS-side collector).
  void record_channel(util::SimTime t, ChannelObservation obs);
  void record_location(util::SimTime t, mobility::Position pos);
  void record_watch(util::SimTime t, WatchObservation obs);
  void record_preference(util::SimTime t, behavior::PreferenceVector estimate);

  ChannelSeries channel() const { return store_->channel(slot_); }
  LocationSeries location() const { return store_->location(slot_); }
  WatchSeries watch() const { return store_->watch(slot_); }
  PreferenceSeries preference() const { return store_->preference(slot_); }

  /// Running preference estimator fed by watch ingestion (the twin-side
  /// "preference label + engagement time" update).
  const behavior::PreferenceEstimator& preference_estimator() const {
    return store_->estimator(slot_);
  }
  /// Applies interval forgetting to the preference estimator.
  void decay_preference();

  /// Number of feature channels produced by feature_window().
  static constexpr std::size_t kFeatureChannels = TwinColumnStore::kFeatureChannels;

  /// Builds the [kFeatureChannels × timesteps] time-series feature window
  /// ending at `now` and spanning `window_s` seconds, resampled to
  /// `timesteps` uniform bins (row-major: channel-major order, the layout
  /// the 1D-CNN consumes). Channels:
  ///   0: normalised SNR            1: spectral efficiency / 6
  ///   2: normalised x              3: normalised y
  ///   4: mean watch fraction       5..: preference weight per category
  /// Empty bins carry the previous bin's value (zero-order hold; zeros
  /// before the first sample). Batch consumers should prefer
  /// TwinColumnStore::feature_windows (pooled, parallel); this per-twin
  /// call extracts one row.
  std::vector<float> feature_window(util::SimTime now, double window_s,
                                    std::size_t timesteps,
                                    const FeatureScaling& scaling) const;

  /// Compact per-user summary used by baselines that skip the CNN:
  /// mean/std SNR, mean position, mean watch fraction, preference vector.
  std::vector<double> summary_features(util::SimTime now, double window_s,
                                       const FeatureScaling& scaling) const;

  /// The columnar store backing this twin and the slot inside it.
  const TwinColumnStore& columns() const { return *store_; }
  std::size_t slot() const { return slot_; }

 private:
  std::uint64_t user_id_;
  std::size_t slot_;
  TwinColumnStore* store_;
  std::unique_ptr<TwinColumnStore> owned_;  // standalone twins only
};

}  // namespace dtmsv::twin
