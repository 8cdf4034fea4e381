// Short-video content model: categories, bitrate ladders, and a popularity-
// weighted catalog. Mirrors the structure of the public short-video-
// streaming-challenge dataset (5-rung ladders, 5–60 s clips) that the paper
// evaluates on; video/dataset.hpp holds the synthetic
// stand-in for its swiping behaviour.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace dtmsv::video {

/// Content categories used throughout the pipeline. Fig. 3(a) of the paper
/// plots News / Sports / Game / Music / Comedy-style categories.
enum class Category : std::uint8_t {
  kNews = 0,
  kSports,
  kGame,
  kMusic,
  kComedy,
  kEducation,
};

inline constexpr std::size_t kCategoryCount = 6;

/// All categories, in enum order.
const std::array<Category, kCategoryCount>& all_categories();

/// Human-readable category name.
std::string to_string(Category c);

/// Bitrate ladder: ascending representation bitrates in kbps.
class BitrateLadder {
 public:
  /// Requires at least one strictly ascending positive rung.
  explicit BitrateLadder(std::vector<double> kbps);

  /// The default ladder of the short-video-streaming-challenge dataset.
  static BitrateLadder standard();

  std::size_t rung_count() const { return kbps_.size(); }
  double kbps(std::size_t rung) const;
  double bottom_kbps() const { return kbps_.front(); }
  const std::vector<double>& rungs() const { return kbps_; }

  /// Highest rung whose bitrate fits within `budget_kbps`; rung 0 when even
  /// the lowest rung exceeds the budget (lowest representation is always
  /// deliverable per the multicast policy).
  std::size_t best_rung_within(double budget_kbps) const;

 private:
  std::vector<double> kbps_;
};

/// One short video.
struct Video {
  std::uint64_t id = 0;
  Category category = Category::kNews;
  double duration_s = 15.0;
  BitrateLadder ladder = BitrateLadder::standard();
};

/// Catalog generation parameters.
struct CatalogConfig {
  std::size_t videos_per_category = 200;
  double min_duration_s = 5.0;
  double max_duration_s = 60.0;
  /// Zipf exponent of within-category video popularity.
  double popularity_zipf = 0.9;
  /// Per-video multiplicative jitter applied to the standard ladder (sigma of
  /// log-normal), modelling encoder variability across uploads.
  double ladder_jitter_sigma = 0.08;
};

/// Immutable set of videos with Zipf popularity inside each category.
class Catalog {
 public:
  /// Empty catalog; generate() starts from one.
  Catalog() = default;

  static Catalog generate(const CatalogConfig& config, util::Rng& rng);

  std::size_t size() const { return videos_.size(); }
  const Video& video(std::uint64_t id) const;
  const std::vector<Video>& videos() const { return videos_; }

  /// Videos of one category, most popular first.
  const std::vector<std::uint64_t>& category_videos(Category c) const;

  /// Popularity-weighted (Zipf) sample from a category.
  const Video& sample_from_category(Category c, util::Rng& rng) const;

  /// Popularity rank of a video within its category (0 = most popular).
  std::size_t popularity_rank(std::uint64_t id) const;

  /// P(video | its category) under the Zipf popularity model.
  double popularity_probability(std::uint64_t id) const;

 private:
  std::vector<Video> videos_;
  std::array<std::vector<std::uint64_t>, kCategoryCount> by_category_;
  std::vector<std::size_t> rank_;  // by video id
  // Within-category popularity, one table per category in enum order.
  std::vector<util::ZipfDistribution> popularity_;
};

}  // namespace dtmsv::video
