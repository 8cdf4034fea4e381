// Video popularity tracking at the edge server: windowed view counts with
// exponential forgetting, feeding the recommender ("The recommended videos
// are updated based on video popularity and users' preferences").
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "video/catalog.hpp"

namespace dtmsv::analysis {

/// Tracks per-video popularity scores.
class PopularityAnalyzer {
 public:
  /// `forgetting` in (0, 1]: score multiplier per decay() call.
  explicit PopularityAnalyzer(double forgetting = 0.8);

  /// Accumulates one view weighted by engagement (watched seconds).
  void observe(std::uint64_t video_id, double watch_seconds);

  /// Applies exponential forgetting (once per interval).
  void decay();

  /// Current score of a video (0 for never-seen).
  double score(std::uint64_t video_id) const;

  /// Top-n videos of one category by score, descending; ties broken by id
  /// for determinism (requires the catalog for category lookup).
  std::vector<std::uint64_t> top_videos_in_category(std::size_t n,
                                                    video::Category category,
                                                    const video::Catalog& catalog) const;

  std::size_t tracked_count() const { return scores_.size(); }

 private:
  double forgetting_;
  std::unordered_map<std::uint64_t, double> scores_;
};

}  // namespace dtmsv::analysis
