#include "behavior/session.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace dtmsv::behavior {

ViewingSession::ViewingSession(std::uint64_t user_id, const video::Catalog& catalog,
                               const SessionConfig& config, PreferenceVector affinity,
                               util::Rng rng)
    : user_id_(user_id),
      catalog_(&catalog),
      config_(config),
      affinity_(affinity),
      rng_(std::move(rng)) {
  DTMSV_EXPECTS(config.feed_affinity_bias >= 0.0 && config.feed_affinity_bias <= 1.0);
  start_next_video(0.0);
}

void ViewingSession::set_affinity(PreferenceVector affinity) {
  affinity_ = affinity;
}

void ViewingSession::start_next_video(util::SimTime now) {
  // The feed serves taste-matched content most of the time, exploring
  // uniformly otherwise; feed_affinity_bias sets the mix.
  std::size_t cat_idx = 0;
  if (rng_.bernoulli(config_.feed_affinity_bias)) {
    const PreferenceVector p = normalized(affinity_);
    cat_idx = rng_.categorical(std::span<const double>(p.data(), p.size()));
  } else {
    cat_idx = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(video::kCategoryCount) - 1));
  }
  const video::Category cat = video::all_categories()[cat_idx];
  const video::Video& v = catalog_->sample_from_category(cat, rng_);

  current_video_id_ = v.id;
  current_category_ = cat;
  current_duration_s_ = v.duration_s;
  view_start_ = now;
  watched_s_ = 0.0;

  const PreferenceVector p = normalized(affinity_);
  const double frac = video::sample_watch_fraction(p[cat_idx], config_.engagement, rng_);
  planned_watch_s_ = std::min(frac, 1.0) * v.duration_s;
  // A zero-length planned watch still consumes a minimal dwell time, or the
  // session would emit unbounded events in one tick.
  planned_watch_s_ = std::max(planned_watch_s_, 0.2);
}

void ViewingSession::advance(util::SimTime now, double dt, std::vector<ViewEvent>& out) {
  DTMSV_EXPECTS(dt > 0.0);
  double remaining = dt;
  util::SimTime t = now;
  while (remaining > 0.0) {
    const double to_finish = planned_watch_s_ - watched_s_;
    if (to_finish > remaining) {
      watched_s_ += remaining;
      return;
    }
    // Finish the current view inside this window.
    watched_s_ = planned_watch_s_;
    t += to_finish;
    remaining -= to_finish;

    ViewEvent ev;
    ev.user_id = user_id_;
    ev.video_id = current_video_id_;
    ev.category = current_category_;
    ev.start_time = view_start_;
    ev.duration_s = current_duration_s_;
    ev.watch_seconds = watched_s_;
    ev.watch_fraction = current_duration_s_ > 0.0
                            ? std::min(1.0, watched_s_ / current_duration_s_)
                            : 0.0;
    ev.completed = watched_s_ >= current_duration_s_ - 1e-9;
    out.push_back(ev);

    start_next_video(t);
  }
}

}  // namespace dtmsv::behavior
