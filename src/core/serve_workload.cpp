#include "core/serve_workload.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace dtmsv::core {

namespace {

constexpr double kSnrMin = -5.0;
constexpr double kSnrMax = 35.0;
constexpr double kSnrStepDb = 0.8;   // per-report random-walk sigma
constexpr double kWalkSpeed = 1.4;   // pedestrian m/s

/// Synthetic SNR -> spectral efficiency map (Shannon with a 75% implementation
/// margin, clamped to the practical MCS range). The serve loop never sees the
/// radio simulator, so the workload provides its own plausible link adaptation.
double efficiency_from_snr(double snr_db) {
  const double snr_linear = std::pow(10.0, snr_db / 10.0);
  return std::clamp(0.75 * std::log2(1.0 + snr_linear), 0.05, 7.8);
}

}  // namespace

void validate(const ServeWorkloadConfig& config) {
  DTMSV_EXPECTS_MSG(config.user_count > 0,
                    "ServeWorkloadConfig: user_count must be positive");
  DTMSV_EXPECTS_MSG(config.channel_period_s > 0.0,
                    "ServeWorkloadConfig: channel_period_s must be positive");
  DTMSV_EXPECTS_MSG(config.location_period_s > 0.0,
                    "ServeWorkloadConfig: location_period_s must be positive");
  DTMSV_EXPECTS_MSG(config.watch_period_s > 0.0,
                    "ServeWorkloadConfig: watch_period_s must be positive");
  DTMSV_EXPECTS_MSG(config.extent_x > 0.0 && config.extent_y > 0.0,
                    "ServeWorkloadConfig: walk extent must be positive");
  DTMSV_EXPECTS_MSG(std::isfinite(config.affinity_concentration) &&
                        config.affinity_concentration > 0.0,
                    "ServeWorkloadConfig: affinity_concentration must be finite and "
                    "positive");
}

ServeWorkload::ServeWorkload(const ServeWorkloadConfig& config,
                             const video::Catalog& catalog)
    : config_(config), catalog_(&catalog) {
  validate(config);
  DTMSV_EXPECTS_MSG(catalog.size() > 0, "ServeWorkload: catalog is empty");

  util::Rng root(config.seed);
  users_.resize(config.user_count);
  for (std::size_t u = 0; u < config.user_count; ++u) {
    UserState& user = users_[u];
    user.rng = root.fork(u);
    user.affinity = behavior::sample_affinity(config.affinity_concentration,
                                              user.rng);
    user.snr_db = user.rng.uniform(5.0, 25.0);
    user.x = user.rng.uniform(0.0, config.extent_x);
    user.y = user.rng.uniform(0.0, config.extent_y);
    user.heading = user.rng.uniform(0.0, 2.0 * 3.14159265358979323846);
    // Staggered first reports so the population does not tick in lockstep.
    user.next_channel = user.rng.uniform(0.0, config.channel_period_s);
    user.next_location = user.rng.uniform(0.0, config.location_period_s);
    user.next_watch = user.rng.exponential(1.0 / config.watch_period_s);
  }
}

void ServeWorkload::set_rate_multiplier(double multiplier) {
  DTMSV_EXPECTS_MSG(std::isfinite(multiplier) && multiplier > 0.0,
                    "ServeWorkload: rate multiplier must be finite and positive");
  rate_multiplier_ = multiplier;
}

void ServeWorkload::generate(util::SimTime from, util::SimTime to,
                             std::vector<TwinEvent>& out) {
  DTMSV_EXPECTS_MSG(to >= from, "ServeWorkload: generate window is reversed");
  const std::size_t first_new = out.size();
  const double m = rate_multiplier_;

  for (std::size_t u = 0; u < users_.size(); ++u) {
    UserState& user = users_[u];
    // Per-user 3-way merge of the report schedules, processed strictly in
    // time order so the RNG draw sequence is a function of the event stream
    // alone (not of how the caller slices time into windows).
    while (true) {
      double t = user.next_channel;
      TwinEvent::Kind kind = TwinEvent::Kind::kChannel;
      if (user.next_location < t) {
        t = user.next_location;
        kind = TwinEvent::Kind::kLocation;
      }
      if (user.next_watch < t) {
        t = user.next_watch;
        kind = TwinEvent::Kind::kWatch;
      }
      if (t >= to) {
        break;
      }

      TwinEvent event;
      event.user = static_cast<std::uint32_t>(u);
      event.time = t;
      event.kind = kind;
      switch (kind) {
        case TwinEvent::Kind::kChannel: {
          user.snr_db = std::clamp(user.snr_db + user.rng.normal(0.0, kSnrStepDb),
                                   kSnrMin, kSnrMax);
          event.channel.snr_db = user.snr_db;
          event.channel.efficiency_bps_hz = efficiency_from_snr(user.snr_db);
          event.channel.serving_bs = 0;
          user.next_channel = t + config_.channel_period_s / m;
          break;
        }
        case TwinEvent::Kind::kLocation: {
          user.heading += user.rng.normal(0.0, 0.6);
          const double step = kWalkSpeed * config_.location_period_s;
          user.x += step * std::cos(user.heading);
          user.y += step * std::sin(user.heading);
          // Reflect at the extent so the walk stays on campus.
          if (user.x < 0.0 || user.x > config_.extent_x) {
            user.x = std::clamp(user.x, 0.0, config_.extent_x);
            user.heading = 3.14159265358979323846 - user.heading;
          }
          if (user.y < 0.0 || user.y > config_.extent_y) {
            user.y = std::clamp(user.y, 0.0, config_.extent_y);
            user.heading = -user.heading;
          }
          event.position = {user.x, user.y};
          user.next_location = t + config_.location_period_s / m;
          break;
        }
        case TwinEvent::Kind::kWatch: {
          const std::size_t category_index = user.rng.categorical(
              {user.affinity.data(), user.affinity.size()});
          const auto category = static_cast<video::Category>(category_index);
          const video::Video& video =
              catalog_->sample_from_category(category, user.rng);
          const double fraction = video::sample_watch_fraction(
              user.affinity[category_index], config_.engagement, user.rng);
          event.watch.video_id = video.id;
          event.watch.category = video.category;
          event.watch.duration_s = video.duration_s;
          event.watch.watch_fraction = fraction;
          event.watch.watch_seconds = fraction * video.duration_s;
          event.watch.completed = fraction >= 0.995;
          user.next_watch = t + user.rng.exponential(m / config_.watch_period_s);
          break;
        }
      }
      if (t >= from) {
        out.push_back(event);
      }
    }
  }

  // Merge the per-user streams into one nondecreasing timeline; ties break
  // by user id then kind, so the queue order is fully deterministic.
  std::stable_sort(out.begin() + static_cast<std::ptrdiff_t>(first_new), out.end(),
                   [](const TwinEvent& a, const TwinEvent& b) {
                     if (a.time != b.time) {
                       return a.time < b.time;
                     }
                     if (a.user != b.user) {
                       return a.user < b.user;
                     }
                     return static_cast<int>(a.kind) < static_cast<int>(b.kind);
                   });
}

}  // namespace dtmsv::core
