#include "analysis/popularity.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace dtmsv::analysis {

PopularityAnalyzer::PopularityAnalyzer(double forgetting) : forgetting_(forgetting) {
  DTMSV_EXPECTS(forgetting > 0.0 && forgetting <= 1.0);
}

void PopularityAnalyzer::observe(std::uint64_t video_id, double watch_seconds) {
  DTMSV_EXPECTS(watch_seconds >= 0.0);
  scores_[video_id] += watch_seconds;
}

void PopularityAnalyzer::decay() {
  for (auto it = scores_.begin(); it != scores_.end();) {
    it->second *= forgetting_;
    if (it->second < 1e-6) {
      it = scores_.erase(it);  // prune dead entries to bound memory
    } else {
      ++it;
    }
  }
}

double PopularityAnalyzer::score(std::uint64_t video_id) const {
  const auto it = scores_.find(video_id);
  return it == scores_.end() ? 0.0 : it->second;
}

std::vector<std::uint64_t> PopularityAnalyzer::top_videos_in_category(
    std::size_t n, video::Category category, const video::Catalog& catalog) const {
  if (n == 0) {
    return {};
  }
  using Entry = std::pair<std::uint64_t, double>;
  std::vector<Entry> entries;
  for (const auto& [id, score] : scores_) {
    if (catalog.video(id).category == category) {
      entries.emplace_back(id, score);
    }
  }
  // Score descending, ties by id ascending: the order is total, so ranking
  // one category equals filtering the full ranking.
  n = std::min(n, entries.size());
  std::partial_sort(entries.begin(), entries.begin() + static_cast<std::ptrdiff_t>(n),
                    entries.end(), [](const Entry& a, const Entry& b) {
                      if (a.second != b.second) {
                        return a.second > b.second;
                      }
                      return a.first < b.first;
                    });
  std::vector<std::uint64_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = entries[i].first;
  }
  return out;
}

}  // namespace dtmsv::analysis
