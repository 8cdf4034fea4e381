// TwinStore: the edge server's collection of UDTs ("UDTs are deployed on the
// edge server to store user status for individual user").
//
// Storage is columnar: one TwinColumnStore holds every user's histories as
// SoA ring buffers, and ingestion, extraction and every read go through it
// (columns()). The UserDigitalTwin handles handed out by twin() name a slot
// in it for group analysis. reset_user is slot recycling (O(1), no
// allocation).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "twin/udt.hpp"

namespace dtmsv::twin {

/// Owns the columnar histories plus one UserDigitalTwin handle per user.
class TwinStore {
 public:
  /// Creates `user_count` twins with ids 0..user_count-1 on fixed rings:
  /// `history_capacity` sizes the 1 Hz channel lane; the sparser attribute
  /// lanes keep ColumnCapacities::scaled shares of it. The 2048 default is
  /// held for the perfbench harness, whose serve replica still uses it.
  explicit TwinStore(std::size_t user_count, std::size_t history_capacity = 2048);
  /// Same, on rings that retain `retention.seconds` of history and grow on
  /// demand (what Simulation and ServeLoop use).
  TwinStore(std::size_t user_count, RetentionSpan retention);

  std::size_t user_count() const { return twins_.size(); }

  /// The handle of one user's slot (held for the perfbench harness, which
  /// passes group members to analysis as handles).
  const UserDigitalTwin& twin(std::uint64_t user_id) const;

  /// Recycles one twin slot (the slot's user was handed over; the edge
  /// server holds no history for the newcomer): rings empty in place and
  /// the preference estimator resets.
  void reset_user(std::uint64_t user_id);

  /// Applies preference forgetting on every twin (once per interval).
  void decay_preferences();

  /// The columnar engine: ingestion, per-user reads and batch extraction
  /// (TwinColumnStore::feature_windows / summary_features into a
  /// FeatureArena, or core::TwinSnapshot, which wraps them).
  TwinColumnStore& columns() { return *columns_; }
  const TwinColumnStore& columns() const { return *columns_; }

 private:
  explicit TwinStore(std::unique_ptr<TwinColumnStore> columns);

  std::unique_ptr<TwinColumnStore> columns_;
  std::vector<UserDigitalTwin> twins_;
};

}  // namespace dtmsv::twin
