// Deterministic synthetic twin-report traffic for the serving mode: what
// the edge would receive from `user_count` handsets reporting channel
// quality at ~1 Hz, positions every few seconds, and finished views as they
// happen. Drives tools/dtmsv_serve.cpp and bench_serve; tests use it to
// overload a ServeLoop reproducibly.
//
// Everything is derived from per-user forked RNG streams, so the event
// stream for a given (config, catalog) is bit-identical across runs and
// machines and independent of how the caller slices time into generate()
// windows at whole-tick boundaries. The overload knob (set_rate_multiplier)
// scales every report rate — periods divide by the multiplier — which is
// how scenarios model a flash crowd saturating the ingestion queue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "behavior/preference.hpp"
#include "core/event_queue.hpp"
#include "twin/observations.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"
#include "video/catalog.hpp"
#include "video/dataset.hpp"

namespace dtmsv::core {

struct ServeWorkloadConfig {
  std::uint64_t seed = 7;
  std::size_t user_count = 240;
  /// Mean seconds between reports of each kind, at rate multiplier 1.
  double channel_period_s = 1.0;
  double location_period_s = 5.0;
  double watch_period_s = 18.0;
  /// Dirichlet concentration of each user's category taste.
  double affinity_concentration = 0.35;
  /// Engagement model for watch fractions (shared with the behaviour sim).
  video::EngagementConfig engagement{};
  /// Position bounds: users random-walk inside [0, extent_x] x [0, extent_y]
  /// (defaults match the default campus and twin::FeatureScaling).
  double extent_x = 1200.0;
  double extent_y = 1000.0;
};

/// Throws util::PreconditionError naming the offending field: positive
/// user count, report periods and walk extent, and a finite positive
/// affinity_concentration. Called by the ServeWorkload constructor; the
/// serve loader calls it too, so a bad key fails at load.
void validate(const ServeWorkloadConfig& config);

class ServeWorkload {
 public:
  /// `catalog` must outlive the workload (watch reports sample video ids
  /// from it — use ServeLoop::catalog() so ids resolve on the serve side).
  ServeWorkload(const ServeWorkloadConfig& config, const video::Catalog& catalog);

  std::size_t user_count() const { return users_.size(); }
  double rate_multiplier() const { return rate_multiplier_; }
  /// Scales all report rates from now on (finite, > 0). Takes effect for
  /// events scheduled after each user's next report of each kind, like a
  /// real traffic surge ramping in.
  void set_rate_multiplier(double multiplier);

  /// Appends every event with timestamp in [from, to) to `out`, in
  /// nondecreasing time order (ties broken by user id) — ready to feed to
  /// ServeLoop::offer. Call with contiguous windows ([0,10), [10,20), ...).
  void generate(util::SimTime from, util::SimTime to, std::vector<TwinEvent>& out);

 private:
  struct UserState {
    util::Rng rng;
    behavior::PreferenceVector affinity{};
    double snr_db = 15.0;
    double x = 0.0;
    double y = 0.0;
    double heading = 0.0;
    double next_channel = 0.0;
    double next_location = 0.0;
    double next_watch = 0.0;
  };

  ServeWorkloadConfig config_;
  const video::Catalog* catalog_;
  std::vector<UserState> users_;
  double rate_multiplier_ = 1.0;
};

}  // namespace dtmsv::core
