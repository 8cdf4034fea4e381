#include "video/catalog.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace dtmsv::video {

const std::array<Category, kCategoryCount>& all_categories() {
  static const std::array<Category, kCategoryCount> cats = {
      Category::kNews,  Category::kSports, Category::kGame,
      Category::kMusic, Category::kComedy, Category::kEducation,
  };
  return cats;
}

std::string to_string(Category c) {
  switch (c) {
    case Category::kNews:
      return "News";
    case Category::kSports:
      return "Sports";
    case Category::kGame:
      return "Game";
    case Category::kMusic:
      return "Music";
    case Category::kComedy:
      return "Comedy";
    case Category::kEducation:
      return "Education";
  }
  return "Unknown";
}

BitrateLadder::BitrateLadder(std::vector<double> kbps) : kbps_(std::move(kbps)) {
  DTMSV_EXPECTS_MSG(!kbps_.empty(), "ladder: at least one rung required");
  for (std::size_t i = 0; i < kbps_.size(); ++i) {
    DTMSV_EXPECTS_MSG(kbps_[i] > 0.0, "ladder: rungs must be positive");
    if (i > 0) {
      DTMSV_EXPECTS_MSG(kbps_[i] > kbps_[i - 1], "ladder: rungs must ascend");
    }
  }
}

BitrateLadder BitrateLadder::standard() {
  // The 5-level ladder published with the short-video streaming grand
  // challenge dataset (approximately 240p..1080p).
  return BitrateLadder({750.0, 1200.0, 1850.0, 2850.0, 4300.0});
}

double BitrateLadder::kbps(std::size_t rung) const {
  DTMSV_EXPECTS(rung < kbps_.size());
  return kbps_[rung];
}

std::size_t BitrateLadder::best_rung_within(double budget_kbps) const {
  std::size_t best = 0;
  for (std::size_t i = 0; i < kbps_.size(); ++i) {
    if (kbps_[i] <= budget_kbps) {
      best = i;
    }
  }
  return best;
}

Catalog Catalog::generate(const CatalogConfig& config, util::Rng& rng) {
  DTMSV_EXPECTS(config.videos_per_category > 0);
  DTMSV_EXPECTS(config.min_duration_s > 0.0);
  DTMSV_EXPECTS(config.max_duration_s >= config.min_duration_s);
  DTMSV_EXPECTS(config.popularity_zipf >= 0.0);
  DTMSV_EXPECTS(config.ladder_jitter_sigma >= 0.0);

  Catalog catalog;
  const BitrateLadder standard = BitrateLadder::standard();

  std::uint64_t next_id = 0;
  for (const Category c : all_categories()) {
    for (std::size_t i = 0; i < config.videos_per_category; ++i) {
      Video v;
      v.id = next_id++;
      v.category = c;
      // Durations skew short: log-uniform between min and max.
      const double log_lo = std::log(config.min_duration_s);
      const double log_hi = std::log(config.max_duration_s);
      v.duration_s = std::exp(rng.uniform(log_lo, log_hi));
      // Jitter the ladder per upload, preserving monotonicity by scaling all
      // rungs with one factor.
      const double scale =
          config.ladder_jitter_sigma > 0.0
              ? rng.lognormal(0.0, config.ladder_jitter_sigma)
              : 1.0;
      std::vector<double> rungs = standard.rungs();
      for (double& r : rungs) {
        r *= scale;
      }
      v.ladder = BitrateLadder(std::move(rungs));
      catalog.by_category_[static_cast<std::size_t>(c)].push_back(v.id);
      catalog.videos_.push_back(std::move(v));
    }
  }

  // Within-category popularity rank: the generation order is already a
  // uniform random permutation per category, so rank = position.
  catalog.rank_.resize(catalog.videos_.size());
  for (const Category c : all_categories()) {
    const auto& ids = catalog.by_category_[static_cast<std::size_t>(c)];
    for (std::size_t r = 0; r < ids.size(); ++r) {
      catalog.rank_[ids[r]] = r;
    }
    catalog.popularity_.emplace_back(ids.size(), config.popularity_zipf);
  }
  return catalog;
}

const Video& Catalog::video(std::uint64_t id) const {
  DTMSV_EXPECTS(id < videos_.size());
  return videos_[static_cast<std::size_t>(id)];
}

const std::vector<std::uint64_t>& Catalog::category_videos(Category c) const {
  return by_category_[static_cast<std::size_t>(c)];
}

const Video& Catalog::sample_from_category(Category c, util::Rng& rng) const {
  const auto& ids = category_videos(c);
  DTMSV_EXPECTS_MSG(!ids.empty(), "catalog: empty category");
  return video(ids[popularity_[static_cast<std::size_t>(c)].sample(rng)]);
}

std::size_t Catalog::popularity_rank(std::uint64_t id) const {
  DTMSV_EXPECTS(id < rank_.size());
  return rank_[static_cast<std::size_t>(id)];
}

double Catalog::popularity_probability(std::uint64_t id) const {
  DTMSV_EXPECTS(id < videos_.size());
  const auto category = static_cast<std::size_t>(videos_[static_cast<std::size_t>(id)].category);
  return popularity_[category].pmf(popularity_rank(id));
}

}  // namespace dtmsv::video
