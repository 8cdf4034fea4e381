// Live viewing sessions: each user continuously watches short videos,
// swiping to the next clip after a preference-dependent watch duration.
// Completed views are emitted as ViewEvents — the ground-truth behaviour
// stream that BS collectors push into the UDTs.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "behavior/preference.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"
#include "video/dataset.hpp"

namespace dtmsv::behavior {

/// One finished view (the user swiped away or the clip ended).
struct ViewEvent {
  std::uint64_t user_id = 0;
  std::uint64_t video_id = 0;
  video::Category category = video::Category::kNews;
  util::SimTime start_time = 0.0;
  double duration_s = 0.0;        // full clip length
  double watch_seconds = 0.0;     // time actually watched
  double watch_fraction = 0.0;    // watch_seconds / duration_s
  bool completed = false;         // watched to the end (no swipe)
};

/// Feed mix and engagement model of a live viewing session.
struct SessionConfig {
  /// Probability the feed serves the user's taste vs. uniform exploration.
  double feed_affinity_bias = 0.8;
  /// Engagement model (instant-swipe spike, affinity->watch mapping).
  video::EngagementConfig engagement;
};

/// One user's never-ending short-video session.
class ViewingSession {
 public:
  /// `affinity`: the user's ground-truth category taste driving behaviour.
  ViewingSession(std::uint64_t user_id, const video::Catalog& catalog,
                 const SessionConfig& config, PreferenceVector affinity,
                 util::Rng rng);

  /// Advances by `dt` seconds from `now`, appending any views that finished
  /// during the window to `out`. A view spanning the window boundary stays
  /// in progress.
  void advance(util::SimTime now, double dt, std::vector<ViewEvent>& out);

  /// Currently playing video id.
  std::uint64_t current_video() const { return current_video_id_; }
  video::Category current_category() const { return current_category_; }

  const PreferenceVector& affinity() const { return affinity_; }

  /// Replaces the taste vector (models interest drift mid-simulation).
  void set_affinity(PreferenceVector affinity);

 private:
  void start_next_video(util::SimTime now);

  std::uint64_t user_id_;
  const video::Catalog* catalog_;
  SessionConfig config_;
  PreferenceVector affinity_;
  util::Rng rng_;

  std::uint64_t current_video_id_ = 0;
  video::Category current_category_ = video::Category::kNews;
  double current_duration_s_ = 0.0;
  double planned_watch_s_ = 0.0;   // sampled at video start
  double watched_s_ = 0.0;         // accumulated so far
  util::SimTime view_start_ = 0.0;
};

}  // namespace dtmsv::behavior
