#include "predict/demand.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace dtmsv::predict {

ResourceDemand& ResourceDemand::operator+=(const ResourceDemand& other) {
  radio_hz += other.radio_hz;
  compute_cycles += other.compute_cycles;
  transmitted_bits += other.transmitted_bits;
  expected_views += other.expected_views;
  distinct_videos += other.distinct_videos;
  rung = std::max(rung, other.rung);
  return *this;
}

ContentStats ContentStats::from_catalog(const video::Catalog& catalog) {
  ContentStats stats;
  std::array<double, video::kCategoryCount> sums{};
  std::array<std::size_t, video::kCategoryCount> counts{};
  std::vector<double> scales;
  scales.reserve(catalog.size());
  const double reference_bottom = video::BitrateLadder::standard().bottom_kbps();
  for (const auto& v : catalog.videos()) {
    const auto c = static_cast<std::size_t>(v.category);
    sums[c] += v.duration_s;
    ++counts[c];
    scales.push_back(v.ladder.bottom_kbps() / reference_bottom);
  }
  for (std::size_t c = 0; c < video::kCategoryCount; ++c) {
    stats.mean_duration_s[c] =
        counts[c] > 0 ? sums[c] / static_cast<double>(counts[c]) : 15.0;
  }
  stats.ladder_kbps = video::BitrateLadder::standard().rungs();
  if (!scales.empty()) {
    std::sort(scales.begin(), scales.end());
    stats.ladder_scale_quantiles.clear();
    for (int q = 1; q <= 9; ++q) {
      const auto idx = static_cast<std::size_t>(
          static_cast<double>(q) / 10.0 * static_cast<double>(scales.size() - 1));
      stats.ladder_scale_quantiles.push_back(scales[idx]);
    }
  }
  return stats;
}

ResourceDemand predict_group_demand(
    std::size_t member_count, const behavior::PreferenceVector& group_preference,
    const analysis::SwipingDistribution& swiping, double predicted_efficiency,
    const std::array<std::size_t, video::kCategoryCount>& playlist_per_category,
    const ContentStats& content, double interval_s, const DemandModelConfig& config) {
  GroupChannelForecast channel;
  channel.efficiency = std::max(predicted_efficiency, config.efficiency_floor);
  channel.min_series = {channel.efficiency};
  return predict_group_demand(member_count, group_preference, swiping, channel,
                              playlist_per_category, content, interval_s, config);
}

ResourceDemand predict_group_demand(
    std::size_t member_count, const behavior::PreferenceVector& group_preference,
    const analysis::SwipingDistribution& swiping,
    const GroupChannelForecast& channel,
    const std::array<std::size_t, video::kCategoryCount>& playlist_per_category,
    const ContentStats& content, double interval_s, const DemandModelConfig& config) {
  DTMSV_EXPECTS(member_count > 0);
  DTMSV_EXPECTS(interval_s > 0.0);
  DTMSV_EXPECTS(!content.ladder_kbps.empty());
  DTMSV_EXPECTS_MSG(!channel.min_series.empty(),
                    "predict_group_demand: empty channel forecast");

  // Played category mix: the recommender quota, falling back to the group
  // preference when the playlist is empty.
  behavior::PreferenceVector mix{};
  double quota_total = 0.0;
  for (std::size_t c = 0; c < video::kCategoryCount; ++c) {
    quota_total += static_cast<double>(playlist_per_category[c]);
  }
  if (quota_total > 0.0) {
    for (std::size_t c = 0; c < video::kCategoryCount; ++c) {
      mix[c] = static_cast<double>(playlist_per_category[c]) / quota_total;
    }
  } else {
    mix = behavior::normalized(group_preference);
  }

  // Average the link-adaptation decision over (a) the forecast channel
  // operating points and (b) the catalog's ladder-scale quantiles: at each
  // combination the scheduler would pick the highest rung fitting the
  // bandwidth budget. Averaging predicts the rung mixture the live
  // multicast will use next interval, including rung-boundary effects from
  // encoder variability.
  const std::size_t top_rung = content.ladder_kbps.size() - 1;
  static const std::vector<double> kUnitScale = {1.0};
  const std::vector<double>& scales = content.ladder_scale_quantiles.empty()
                                          ? kUnitScale
                                          : content.ladder_scale_quantiles;
  double mean_bitrate_kbps = 0.0;          // E[bitrate(rung(eff, scale))]
  double mean_bitrate_over_eff = 0.0;      // E[bitrate/eff] (kbps per b/s/Hz)
  double mean_transcode_bitrate = 0.0;     // E[bitrate · 1{rung < top}]
  std::vector<std::size_t> rung_counts(content.ladder_kbps.size(), 0);
  for (const double eff_raw : channel.min_series) {
    const double eff = std::max(eff_raw, config.efficiency_floor);
    const double budget_kbps = config.group_bandwidth_budget_hz * eff / 1e3;
    for (const double scale : scales) {
      std::size_t rung = 0;
      for (std::size_t i = 0; i < content.ladder_kbps.size(); ++i) {
        if (content.ladder_kbps[i] * scale <= budget_kbps) {
          rung = i;
        }
      }
      ++rung_counts[rung];
      const double bitrate = content.ladder_kbps[rung] * scale;
      mean_bitrate_kbps += bitrate;
      mean_bitrate_over_eff += bitrate / eff;
      if (rung < top_rung) {
        mean_transcode_bitrate += bitrate;
      }
    }
  }
  const auto n_points =
      static_cast<double>(channel.min_series.size() * scales.size());
  mean_bitrate_kbps /= n_points;
  mean_bitrate_over_eff /= n_points;
  mean_transcode_bitrate /= n_points;

  // Per-category on-air time: the clip stays up until its last viewer
  // (of `member_count` concurrent viewers) swipes, plus prefetch run-ahead,
  // bounded by the clip length.
  std::array<double, video::kCategoryCount> on_air_s{};
  double mean_cycle_s = 0.0;
  for (std::size_t c = 0; c < video::kCategoryCount; ++c) {
    const auto category = video::all_categories()[c];
    const double max_frac = swiping.expected_max_watch_fraction(category, member_count);
    const double duration = content.mean_duration_s[c];
    on_air_s[c] = std::min(max_frac * duration + config.prefetch_s, duration);
    mean_cycle_s += mix[c] * (on_air_s[c] + config.swipe_gap_s);
  }
  mean_cycle_s = std::max(mean_cycle_s, 0.5);

  // Clips played back-to-back over the interval.
  const double videos_played = interval_s / mean_cycle_s;

  ResourceDemand demand;
  demand.rung = static_cast<std::size_t>(std::distance(
      rung_counts.begin(), std::max_element(rung_counts.begin(), rung_counts.end())));
  demand.distinct_videos = videos_played;
  demand.expected_views = videos_played * static_cast<double>(member_count);

  double on_air_total_s = 0.0;
  for (std::size_t c = 0; c < video::kCategoryCount; ++c) {
    const double videos_c = videos_played * mix[c];
    if (videos_c <= 0.0) {
      continue;
    }
    on_air_total_s += videos_c * on_air_s[c];
  }
  demand.transmitted_bits = on_air_total_s * mean_bitrate_kbps * 1e3;
  demand.compute_cycles = on_air_total_s * mean_transcode_bitrate * 1e3 *
                          config.transcode.cycles_per_bit;
  demand.radio_hz = on_air_total_s * mean_bitrate_over_eff * 1e3 / interval_s;
  return demand;
}

}  // namespace dtmsv::predict
