// Unit tests for dtmsv::twin — ring semantics (ordering, eviction,
// windows, truncation reporting), the columnar ring-buffer store (SoA
// layout, slot recycling, pooled arena extraction and its thread-count
// invariance), one-user feature extraction, the twin store, and the
// per-attribute collector including loss/latency failure injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "analysis/swiping.hpp"
#include "behavior/session.hpp"
#include "mobility/random_waypoint.hpp"
#include "predict/channel_predictor.hpp"
#include "twin/collector.hpp"
#include "twin/column_store.hpp"
#include "twin/store.hpp"
#include "twin/udt.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "wireless/channel.hpp"

namespace {

using namespace dtmsv::twin;
using dtmsv::util::PreconditionError;
using dtmsv::util::Rng;

// ------------------------------------------------------- columnar rings

/// Physical slots of user `u`'s samples with time in [from, to).
template <typename Column>
std::vector<std::size_t> windowed_walk(const Column& column, std::size_t u, double from,
                                       double to) {
  std::vector<std::size_t> out;
  column.for_each_slot_in(u, from, to, [&](std::size_t at) { out.push_back(at); });
  return out;
}

TEST(TwinColumnStore, RingEvictsOldestAndReportsTruncation) {
  TwinColumnStore store(2, /*history_capacity=*/3);
  for (int i = 0; i < 6; ++i) {
    store.record_channel(0, static_cast<double>(i), {static_cast<double>(i), 2.0, 0});
  }
  const ChannelColumn& channel = store.channel_column();
  EXPECT_EQ(channel.size(0), 3u);
  EXPECT_EQ(channel.capacity(), 3u);
  EXPECT_DOUBLE_EQ(channel.time(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(channel.get(0, 2).snr_db, 5.0);
  // A read starting inside the evicted range must say so instead of
  // silently returning the shorter retained window.
  EXPECT_TRUE(channel.truncated_before(0, 2.0));
  EXPECT_FALSE(channel.truncated_before(0, 3.0));
  const std::vector<std::size_t> all = windowed_walk(channel, 0, 0.0, 10.0);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_DOUBLE_EQ(channel.at_slot(all.front()).snr_db, 3.0);
  // Windows before and after the retained samples are empty.
  EXPECT_TRUE(windowed_walk(channel, 0, 0.0, 3.0).empty());
  EXPECT_TRUE(windowed_walk(channel, 0, 6.0, 10.0).empty());
  // The neighbouring user's ring is untouched (fixed-stride slots).
  EXPECT_TRUE(channel.empty(1));
  EXPECT_FALSE(channel.truncated_before(1, 0.0));
  EXPECT_TRUE(windowed_walk(channel, 1, 0.0, 10.0).empty());
}

TEST(TwinColumnStore, RingRejectsTimeTravelPerUser) {
  TwinColumnStore store(2, 4);
  store.record_channel(0, 5.0, {1.0, 1.0, 0});
  EXPECT_THROW(store.record_channel(0, 4.0, {1.0, 1.0, 0}), PreconditionError);
  store.record_channel(0, 5.0, {2.0, 1.0, 0});  // equal timestamps allowed
  store.record_channel(1, 1.0, {3.0, 1.0, 0});  // other users independent
}

TEST(TwinColumnStore, NonFiniteTimestampsRejectedOnEveryRecordPath) {
  constexpr double kBad[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
  TwinColumnStore twin(1, 2048);
  WatchObservation w;
  w.watch_seconds = 4.0;
  w.watch_fraction = 0.5;
  const auto pref = twin.estimator(0).estimate();
  const auto record_all = [&](double t) {
    twin.record_channel(0, t, {12.0, 2.0, 0});
    twin.record_location(0, t, {10.0, 20.0});
    twin.record_watch(0, t, w);
    twin.record_preference(0, t, pref);
  };
  // Empty rings used to accept any time, and a NaN there made every later
  // record fail the non-decreasing check (t >= NaN is false).
  for (int round = 0; round < 2; ++round) {
    for (const double bad : kBad) {
      EXPECT_THROW(twin.record_channel(0, bad, {12.0, 2.0, 0}), PreconditionError);
      EXPECT_THROW(twin.record_location(0, bad, {10.0, 20.0}), PreconditionError);
      EXPECT_THROW(twin.record_watch(0, bad, w), PreconditionError);
      EXPECT_THROW(twin.record_preference(0, bad, pref), PreconditionError);
    }
    record_all(1.0 + round);
  }
  EXPECT_EQ(twin.channel_column().size(0), 2u);
  EXPECT_EQ(twin.location_column().size(0), 2u);
  EXPECT_EQ(twin.watch_column().size(0), 2u);
  EXPECT_EQ(twin.preference_column().size(0), 2u);
  EXPECT_DOUBLE_EQ(twin.channel_column().time(0, 1), 2.0);
}

// --------------------------------------------- windowed ring walk oracles

/// Samples of user `u` oldest first, filtered the way every windowed read
/// did before the binary search: a walk over the whole ring that skips
/// `t < from || t >= to`.
template <typename Column>
std::vector<std::size_t> full_ring_filter(const Column& column, std::size_t u,
                                          double from, double to) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < column.size(u); ++i) {
    const std::size_t at = column.slot(u, i);
    const double t = column.times()[at];
    if (t < from || t >= to) {
      continue;
    }
    out.push_back(at);
  }
  return out;
}

void record_sample(ChannelColumn& c, std::size_t u, double t) {
  c.record(u, t, {t, 2.0 * t, 1});
}
void record_sample(LocationColumn& c, std::size_t u, double t) {
  c.record(u, t, {t, -t});
}
void record_sample(WatchColumn& c, std::size_t u, double t) {
  WatchObservation w;
  w.watch_fraction = t;
  c.record(u, t, w);
}
void record_sample(PreferenceColumn& c, std::size_t u, double t) {
  dtmsv::behavior::PreferenceVector v{};
  v.fill(t);
  c.record(u, t, v);
}

/// Every bound the walk can meet: each sample time, points between and
/// beyond them, the infinities and NaN.
std::vector<double> probe_bounds(const std::vector<double>& times) {
  std::vector<double> bounds = {-1e9, 1e9, -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
  for (const double t : times) {
    bounds.push_back(t);
    bounds.push_back(t - 0.25);
    bounds.push_back(t + 0.25);
  }
  return bounds;
}

template <typename Column>
void expect_walk_matches_filter(std::size_t capacity, const std::vector<double>& times) {
  SCOPED_TRACE("capacity " + std::to_string(capacity) + ", " +
               std::to_string(times.size()) + " samples");
  // User 1 holds the data; users 0 and 2 hold other samples so a walk that
  // leaves its stride shows up.
  Column column(3, capacity);
  for (const double t : times) {
    record_sample(column, 1, t);
  }
  record_sample(column, 0, 0.5);
  record_sample(column, 2, 0.5);
  // The retained times, i.e. what the bounds should probe.
  std::vector<double> retained;
  for (std::size_t i = 0; i < column.size(1); ++i) {
    retained.push_back(column.time(1, i));
  }
  for (const double from : probe_bounds(retained)) {
    for (const double to : probe_bounds(retained)) {
      EXPECT_EQ(windowed_walk(column, 1, from, to), full_ring_filter(column, 1, from, to))
          << "window [" << from << ", " << to << ")";
    }
  }
}

template <typename Column>
void expect_walk_matches_filter_on_all_shapes() {
  // Empty ring.
  expect_walk_matches_filter<Column>(4, {});
  // Capacity 1: one sample, then one that evicted its predecessor.
  expect_walk_matches_filter<Column>(1, {3.0});
  expect_walk_matches_filter<Column>(1, {3.0, 5.0});
  // Partly filled, not wrapped.
  expect_walk_matches_filter<Column>(8, {1.0, 2.0, 4.0});
  // Exactly full (head 0).
  expect_walk_matches_filter<Column>(5, {1.0, 2.0, 3.0, 4.0, 5.0});
  // Wrapped (head > 0) with duplicate timestamps straddling the wrap point
  // and sitting on window bounds.
  expect_walk_matches_filter<Column>(5, {0.0, 1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 4.0});
  expect_walk_matches_filter<Column>(6, {1.0, 1.0, 1.0, 2.0, 2.0, 5.0, 5.0, 7.0, 7.0,
                                         7.0, 9.0});
  // Wrapped many times, all timestamps equal.
  expect_walk_matches_filter<Column>(4, std::vector<double>(11, 6.0));
}

TEST(RingWalk, ChannelColumnMatchesFullRingFilter) {
  expect_walk_matches_filter_on_all_shapes<ChannelColumn>();
}

TEST(RingWalk, LocationColumnMatchesFullRingFilter) {
  expect_walk_matches_filter_on_all_shapes<LocationColumn>();
}

TEST(RingWalk, WatchColumnMatchesFullRingFilter) {
  expect_walk_matches_filter_on_all_shapes<WatchColumn>();
}

TEST(RingWalk, PreferenceColumnMatchesFullRingFilter) {
  expect_walk_matches_filter_on_all_shapes<PreferenceColumn>();
}

TEST(RingWalk, WalkedSlotsReadTheirSamples) {
  TwinColumnStore store(1, 8);
  for (int i = 0; i < 13; ++i) {
    store.record_channel(0, static_cast<double>(i / 2),
                         {static_cast<double>(i), 1.0, static_cast<std::size_t>(i)});
  }
  // Retained: samples 5..12 at times 2, 3, 3, 4, 4, 5, 5, 6 (the ring has
  // wrapped, and sample 4 at t=2 was evicted).
  const ChannelColumn& channel = store.channel_column();
  const std::vector<std::size_t> window = windowed_walk(channel, 0, 2.0, 5.0);
  ASSERT_EQ(window.size(), 5u);
  for (std::size_t k = 0; k < window.size(); ++k) {
    EXPECT_DOUBLE_EQ(channel.times()[window[k]], static_cast<double>((k + 5) / 2));
    EXPECT_DOUBLE_EQ(channel.at_slot(window[k]).snr_db, static_cast<double>(k + 5));
    EXPECT_EQ(channel.at_slot(window[k]).serving_bs, k + 5);
  }
}

// Verbatim copies of the full-ring extraction loops that preceded the
// windowed walk (the hand-written time filter included), as bit-identity
// oracles for the current kernels.

template <typename Column, typename Fn>
void for_each_retained_slot(const Column& column, std::size_t u, Fn&& fn) {
  for (std::size_t i = 0; i < column.size(u); ++i) {
    fn(column.slot(u, i));
  }
}

void oracle_hold_write(float* out, std::size_t channel, std::size_t bins,
                       const double* sums, const std::size_t* counts) {
  float hold = 0.0f;
  for (std::size_t b = 0; b < bins; ++b) {
    if (counts[b] > 0) {
      hold = static_cast<float>(sums[b] / static_cast<double>(counts[b]));
    }
    out[channel * bins + b] = hold;
  }
}

std::vector<float> oracle_window_row(const TwinColumnStore& store, std::size_t u,
                                     const WindowSpec& spec) {
  constexpr std::size_t kCategories = dtmsv::video::kCategoryCount;
  std::vector<float> row(TwinColumnStore::kFeatureChannels * spec.timesteps);
  float* out = row.data();
  const std::size_t bins = spec.timesteps;
  const double from = spec.now - spec.window_s;
  const double bin_width = (spec.now - from) / static_cast<double>(bins);
  const FeatureScaling& scaling = spec.scaling;
  const auto bin_of = [&](double t) {
    auto b = static_cast<std::size_t>((t - from) / bin_width);
    return std::min(b, bins - 1);
  };
  std::vector<double> sums;
  std::vector<std::size_t> counts;
  const auto reset = [&](std::size_t lanes) {
    sums.assign(lanes * bins, 0.0);
    counts.assign(bins, 0);
  };

  reset(2);
  {
    const ChannelColumn& channel = store.channel_column();
    const auto& times = channel.times();
    for_each_retained_slot(channel, u, [&](std::size_t at) {
      const double t = times[at];
      if (t < from || t >= spec.now) {
        return;
      }
      const std::size_t b = bin_of(t);
      sums[b] += std::clamp(
          (channel.snr()[at] + scaling.snr_offset_db) / scaling.snr_scale_db, 0.0, 1.5);
      sums[bins + b] += std::clamp(channel.efficiency()[at] / 6.0, 0.0, 1.0);
      ++counts[b];
    });
    oracle_hold_write(out, 0, bins, sums.data(), counts.data());
    oracle_hold_write(out, 1, bins, sums.data() + bins, counts.data());
  }
  reset(2);
  {
    const LocationColumn& location = store.location_column();
    const auto& times = location.times();
    for_each_retained_slot(location, u, [&](std::size_t at) {
      const double t = times[at];
      if (t < from || t >= spec.now) {
        return;
      }
      const std::size_t b = bin_of(t);
      sums[b] += std::clamp(location.x()[at] / scaling.pos_x_scale, 0.0, 1.0);
      sums[bins + b] += std::clamp(location.y()[at] / scaling.pos_y_scale, 0.0, 1.0);
      ++counts[b];
    });
    oracle_hold_write(out, 2, bins, sums.data(), counts.data());
    oracle_hold_write(out, 3, bins, sums.data() + bins, counts.data());
  }
  reset(1);
  {
    const WatchColumn& watch = store.watch_column();
    const auto& times = watch.times();
    for_each_retained_slot(watch, u, [&](std::size_t at) {
      const double t = times[at];
      if (t < from || t >= spec.now) {
        return;
      }
      const std::size_t b = bin_of(t);
      sums[b] += std::clamp(watch.watch_fraction()[at], 0.0, 1.0);
      ++counts[b];
    });
    oracle_hold_write(out, 4, bins, sums.data(), counts.data());
  }
  reset(kCategories);
  {
    const PreferenceColumn& preference = store.preference_column();
    const auto& times = preference.times();
    for_each_retained_slot(preference, u, [&](std::size_t at) {
      const double t = times[at];
      if (t < from || t >= spec.now) {
        return;
      }
      const std::size_t b = bin_of(t);
      for (std::size_t c = 0; c < kCategories; ++c) {
        sums[c * bins + b] += preference.lane(c)[at];
      }
      ++counts[b];
    });
    for (std::size_t c = 0; c < kCategories; ++c) {
      oracle_hold_write(out, 5 + c, bins, sums.data() + c * bins, counts.data());
    }
  }
  return row;
}

std::vector<double> oracle_summary_row(const TwinColumnStore& store, std::size_t u,
                                       const SummarySpec& spec) {
  std::vector<double> row(TwinColumnStore::kSummaryDim);
  double* out = row.data();
  const double from = spec.now - spec.window_s;
  dtmsv::util::RunningStats snr;
  {
    const ChannelColumn& channel = store.channel_column();
    const auto& times = channel.times();
    for_each_retained_slot(channel, u, [&](std::size_t at) {
      if (times[at] >= from && times[at] < spec.now) {
        snr.add(channel.snr()[at]);
      }
    });
  }
  dtmsv::util::RunningStats x;
  dtmsv::util::RunningStats y;
  {
    const LocationColumn& location = store.location_column();
    const auto& times = location.times();
    for_each_retained_slot(location, u, [&](std::size_t at) {
      if (times[at] >= from && times[at] < spec.now) {
        x.add(location.x()[at]);
        y.add(location.y()[at]);
      }
    });
  }
  dtmsv::util::RunningStats frac;
  {
    const WatchColumn& watch = store.watch_column();
    const auto& times = watch.times();
    for_each_retained_slot(watch, u, [&](std::size_t at) {
      if (times[at] >= from && times[at] < spec.now) {
        frac.add(watch.watch_fraction()[at]);
      }
    });
  }
  const FeatureScaling& scaling = spec.scaling;
  out[0] = snr.empty()
               ? 0.0
               : std::clamp((snr.mean() + scaling.snr_offset_db) / scaling.snr_scale_db,
                            0.0, 1.5);
  out[1] = snr.empty() ? 0.0 : snr.stddev() / scaling.snr_scale_db;
  out[2] = x.empty() ? 0.0 : x.mean() / scaling.pos_x_scale;
  out[3] = y.empty() ? 0.0 : y.mean() / scaling.pos_y_scale;
  out[4] = frac.empty() ? 0.0 : frac.mean();
  out[5] = frac.empty() ? 0.0 : frac.stddev();
  const PreferenceColumn& preference = store.preference_column();
  const dtmsv::behavior::PreferenceVector pref =
      preference.empty(u) ? store.estimator(u).estimate()
                          : preference.get(u, preference.size(u) - 1);
  for (std::size_t c = 0; c < pref.size(); ++c) {
    out[6 + c] = pref[c];
  }
  return row;
}

dtmsv::predict::GroupChannelForecast oracle_forecast_group_channel(
    const std::vector<const UserDigitalTwin*>& members, double now, double window_s,
    double floor, double bin_s) {
  dtmsv::predict::GroupChannelForecast forecast;
  forecast.efficiency = floor;
  const auto bins = static_cast<std::size_t>(window_s / bin_s);
  if (bins == 0) {
    forecast.min_series.push_back(floor);
    return forecast;
  }
  const double from = now - window_s;
  constexpr double kUnset = std::numeric_limits<double>::infinity();
  std::vector<double> min_series(bins, kUnset);
  std::vector<double> member_series(bins);
  for (const auto* member : members) {
    std::fill(member_series.begin(), member_series.end(), kUnset);
    const ChannelColumn& column = member->columns().channel_column();
    const std::vector<double>& times = column.times();
    const std::vector<double>& efficiency = column.efficiency();
    for_each_retained_slot(column, member->slot(), [&](std::size_t at) {
      const double t = times[at];
      if (t < from || t >= now) {
        return;
      }
      auto b = static_cast<std::size_t>((t - from) / bin_s);
      b = std::min(b, bins - 1);
      member_series[b] = efficiency[at];
    });
    double hold = kUnset;
    for (std::size_t b = 0; b < bins; ++b) {
      if (member_series[b] != kUnset) {
        hold = member_series[b];
      } else if (hold != kUnset) {
        member_series[b] = hold;
      }
    }
    for (std::size_t b = 0; b < bins; ++b) {
      if (member_series[b] != kUnset) {
        min_series[b] = std::min(min_series[b], member_series[b]);
      }
    }
  }
  double inv_sum = 0.0;
  for (const double v : min_series) {
    if (v == kUnset) {
      continue;
    }
    const double floored = std::max(v, floor);
    forecast.min_series.push_back(floored);
    inv_sum += 1.0 / floored;
  }
  if (forecast.min_series.empty()) {
    forecast.min_series.push_back(floor);
    return forecast;
  }
  forecast.efficiency = std::max(
      static_cast<double>(forecast.min_series.size()) / inv_sum, floor);
  return forecast;
}

/// Full, wrapped rings at the collector's report rates (channel 1 Hz,
/// location 0.2 Hz, sparse watch and preference samples) with report loss,
/// duplicate timestamps and one user whose history ends before the window.
TwinStore wrapped_store(std::size_t users, std::size_t capacity) {
  TwinStore store(users, capacity);
  TwinColumnStore& columns = store.columns();
  Rng rng(41);
  for (std::size_t u = 0; u < users; ++u) {
    const int end = u == 3 ? 700 : 1000;
    for (int s = 0; s < end; ++s) {
      const double t = static_cast<double>(s) + (s % 7 == 0 ? 0.0 : 0.5);
      if (rng.uniform() < 0.9) {
        columns.record_channel(u, t, {rng.uniform(-15.0, 35.0), rng.uniform(0.0, 6.5), 0});
      }
      if (s % 11 == 0) {  // a second report with the same timestamp
        columns.record_channel(u, t, {rng.uniform(-15.0, 35.0), rng.uniform(0.0, 6.5), 0});
      }
      if (s % 5 == 0) {
        columns.record_location(u, t, {rng.uniform(-50.0, 1300.0), rng.uniform(0.0, 1000.0)});
      }
      if (s % 9 == 0 || s % 13 == 0) {
        WatchObservation w;
        w.category = dtmsv::video::all_categories()[static_cast<std::size_t>(s) %
                                                    dtmsv::video::kCategoryCount];
        w.watch_seconds = rng.uniform(0.0, 30.0);
        w.watch_fraction = rng.uniform(-0.1, 1.1);
        columns.record_watch(u, t, w);
      }
      if (s % 10 == 0) {
        columns.record_preference(u, t, columns.estimator(u).estimate());
      }
    }
  }
  return store;
}

TEST(RingWalk, ExtractionMatchesFullRingLoopsOnWrappedRings) {
  const TwinStore store = wrapped_store(5, 128);
  const TwinColumnStore& columns = store.columns();
  for (std::size_t u = 0; u < 5; ++u) {
    ASSERT_TRUE(columns.channel_column().truncated_before(u, 0.0)) << "user " << u;
    ASSERT_TRUE(columns.location_column().truncated_before(u, 0.0)) << "user " << u;
    ASSERT_TRUE(columns.watch_column().truncated_before(u, 0.0)) << "user " << u;
    ASSERT_TRUE(columns.preference_column().truncated_before(u, 0.0)) << "user " << u;
  }
  const FeatureScaling scaling{1200.0, 1000.0, 10.0, 40.0};
  for (const double now : {1000.0, 987.25, 920.5, 500.0}) {
    for (const double window_s : {60.0, 17.5, 2.0}) {
      SCOPED_TRACE("now " + std::to_string(now) + " window " + std::to_string(window_s));
      const WindowSpec wspec{now, window_s, 12, scaling};
      const SummarySpec sspec{now, window_s, scaling};
      for (std::size_t u = 0; u < 5; ++u) {
        std::vector<float> row(TwinColumnStore::kFeatureChannels * wspec.timesteps);
        columns.extract_window_row(u, wspec, row.data());
        const std::vector<float> expected_row = oracle_window_row(columns, u, wspec);
        ASSERT_EQ(std::memcmp(row.data(), expected_row.data(), row.size() * sizeof(float)),
                  0)
            << "window row of user " << u;
        std::vector<double> summary(TwinColumnStore::kSummaryDim);
        columns.extract_summary_row(u, sspec, summary.data());
        const std::vector<double> expected_summary = oracle_summary_row(columns, u, sspec);
        ASSERT_EQ(std::memcmp(summary.data(), expected_summary.data(),
                              summary.size() * sizeof(double)),
                  0)
            << "summary row of user " << u;
      }
      std::vector<const UserDigitalTwin*> group;
      for (std::size_t u = 0; u < 5; ++u) {
        group.push_back(&store.twin(u));
      }
      for (const double bin_s : {1.0, 2.5}) {
        const auto forecast =
            dtmsv::predict::forecast_group_channel(group, now, window_s, 0.05, bin_s);
        const auto expected = oracle_forecast_group_channel(group, now, window_s, 0.05, bin_s);
        ASSERT_EQ(std::memcmp(&forecast.efficiency, &expected.efficiency, sizeof(double)),
                  0);
        ASSERT_EQ(forecast.min_series.size(), expected.min_series.size());
        ASSERT_EQ(std::memcmp(forecast.min_series.data(), expected.min_series.data(),
                              forecast.min_series.size() * sizeof(double)),
                  0);
      }
    }
  }
}

TEST(RingWalk, NonFiniteNowRejected) {
  const TwinStore store = wrapped_store(5, 128);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const FeatureScaling scaling{};
  std::vector<float> row(TwinColumnStore::kFeatureChannels * 4);
  std::vector<double> summary(TwinColumnStore::kSummaryDim);
  EXPECT_THROW(store.columns().extract_window_row(0, {nan, 60.0, 4, scaling}, row.data()),
               PreconditionError);
  EXPECT_THROW(store.columns().extract_summary_row(0, {nan, 60.0, scaling}, summary.data()),
               PreconditionError);
  EXPECT_THROW(dtmsv::predict::forecast_group_channel({&store.twin(0)}, nan, 60.0),
               PreconditionError);
}

/// User `u`'s feature-window row, extracted on its own.
std::vector<float> window_row(const TwinColumnStore& store, std::size_t u,
                              const WindowSpec& spec) {
  std::vector<float> row(TwinColumnStore::kFeatureChannels * spec.timesteps);
  store.extract_window_row(u, spec, row.data());
  return row;
}

/// User `u`'s summary row, extracted on its own.
std::vector<double> summary_row(const TwinColumnStore& store, std::size_t u,
                                const SummarySpec& spec) {
  std::vector<double> row(TwinColumnStore::kSummaryDim);
  store.extract_summary_row(u, spec, row.data());
  return row;
}

TEST(TwinColumnStore, BatchRowsMatchSingleRowExtraction) {
  TwinColumnStore store(3, 2048);
  const FeatureScaling scaling{100.0, 100.0, 10.0, 40.0};
  for (int t = 0; t < 30; ++t) {
    store.record_channel(0, t, {10.0 + t, 2.0, 0});
    if (t % 3 == 0) {
      store.record_location(1, t, {50.0, 25.0});
    }
  }
  WatchObservation w;
  w.category = dtmsv::video::Category::kMusic;
  w.watch_seconds = 12.0;
  w.watch_fraction = 0.6;
  store.record_watch(2, 5.0, w);

  FeatureArena arena;
  const WindowSpec spec{30.0, 30.0, 8, scaling};
  const WindowBatch windows = store.feature_windows(spec, arena);
  const SummaryBatch summaries = store.summary_features({30.0, 30.0, scaling}, arena);
  ASSERT_EQ(windows.size(), 3u);
  ASSERT_EQ(summaries.size(), 3u);
  for (std::size_t u = 0; u < 3; ++u) {
    const auto row = windows.row(u);
    const auto single = window_row(store, u, spec);
    ASSERT_EQ(row.size(), single.size());
    for (std::size_t i = 0; i < single.size(); ++i) {
      EXPECT_EQ(row[i], single[i]) << "user " << u << " element " << i;
    }
    const auto srow = summaries.row(u);
    const auto ssingle = summary_row(store, u, {30.0, 30.0, scaling});
    ASSERT_EQ(srow.size(), ssingle.size());
    for (std::size_t i = 0; i < ssingle.size(); ++i) {
      EXPECT_EQ(srow[i], ssingle[i]) << "user " << u << " element " << i;
    }
  }
}

/// Fixed 64-slot rings whose users cycle through the shapes a block of
/// summary lanes must handle: no samples at all, channel samples but no
/// location or watch samples, ragged sample counts, a NaN SNR sample, a
/// history that ends before the window, and long histories that wrap.
TwinColumnStore ragged_store(std::size_t users) {
  TwinColumnStore store(users, ColumnCapacities{64, 64, 64, 64});
  Rng rng(57);
  for (std::size_t u = 0; u < users; ++u) {
    const std::size_t shape = u % 6;
    if (shape == 0) {
      continue;
    }
    const int seconds = shape == 5 ? 400 : 100;
    const int end = shape == 4 ? 30 : seconds;
    const int channel_every = 1 + static_cast<int>(u % 4);
    for (int s = 0; s < end; ++s) {
      const double t = static_cast<double>(s);
      if (s % channel_every == 0) {
        const bool nan = shape == 3 && s == seconds - 20;
        const double snr = nan ? std::numeric_limits<double>::quiet_NaN()
                               : rng.uniform(-15.0, 35.0);
        store.record_channel(u, t, {snr, rng.uniform(0.0, 6.5), 0});
      }
      if (shape == 1) {
        continue;
      }
      if (s % (3 + static_cast<int>(u % 5)) == 0) {
        store.record_location(u, t, {rng.uniform(0.0, 1200.0), rng.uniform(0.0, 1000.0)});
      }
      if (s % (4 + static_cast<int>(u % 7)) == 0) {
        WatchObservation w;
        w.category = dtmsv::video::all_categories()[u % dtmsv::video::kCategoryCount];
        w.watch_seconds = rng.uniform(0.0, 30.0);
        w.watch_fraction = rng.uniform(-0.1, 1.1);
        store.record_watch(u, t, w);
      }
      if (s % 10 == 0) {
        store.record_preference(u, t, store.estimator(u).estimate());
      }
    }
  }
  return store;
}

TEST(TwinColumnStore, BatchedSummaryRowsMatchTheReferenceByteForByte) {
  // summary_features extracts kSummaryLanes users per block; every block
  // size, every lane shape and every chunking of the pool must give the
  // bytes of one RunningStats per user (oracle_summary_row) and of the
  // one-lane extract_summary_row.
  constexpr std::size_t kLanes = TwinColumnStore::kSummaryLanes;
  const FeatureScaling scaling{1200.0, 1000.0, 10.0, 40.0};
  for (const std::size_t threads : {1u, 4u}) {
    dtmsv::util::set_thread_count(threads);
    for (const std::size_t users : {std::size_t{1}, kLanes - 1, kLanes + 1, 3 * kLanes + 2}) {
      const TwinStore wrapped = wrapped_store(users, 128);
      const TwinColumnStore ragged = ragged_store(users);
      for (const TwinColumnStore* store : {&wrapped.columns(), &ragged}) {
        for (const SummarySpec& spec :
             {SummarySpec{1000.0, 60.0, scaling}, SummarySpec{95.5, 60.0, scaling},
              SummarySpec{390.0, 17.5, scaling}}) {
          SCOPED_TRACE("threads " + std::to_string(threads) + " users " +
                       std::to_string(users) + " now " + std::to_string(spec.now));
          FeatureArena arena;
          const SummaryBatch batch = store->summary_features(spec, arena);
          ASSERT_EQ(batch.size(), users);
          for (std::size_t u = 0; u < users; ++u) {
            const std::vector<double> oracle = oracle_summary_row(*store, u, spec);
            const std::vector<double> single = summary_row(*store, u, spec);
            ASSERT_EQ(std::memcmp(batch.row(u).data(), oracle.data(),
                                  oracle.size() * sizeof(double)),
                      0)
                << "batched row of user " << u;
            ASSERT_EQ(std::memcmp(single.data(), oracle.data(), oracle.size() * sizeof(double)),
                      0)
                << "single row of user " << u;
          }
        }
      }
    }
  }
  dtmsv::util::set_thread_count(0);  // restore env/hardware default
}

TEST(TwinColumnStore, ReusedArenaMatchesFreshArenaAcrossStoresAndSpecs) {
  // One arena serving stores of different sizes and specs in turn must
  // return exactly the bytes a fresh arena would, every time.
  const TwinStore small = wrapped_store(5, 128);
  const TwinStore large = wrapped_store(9, 256);
  const FeatureScaling scaling{};
  const WindowSpec windows[] = {{990.0, 60.0, 8, scaling}, {800.0, 120.0, 16, scaling}};
  const SummarySpec summaries[] = {{990.0, 60.0, scaling}, {800.0, 120.0, scaling}};
  FeatureArena shared;
  for (const TwinStore* store : {&small, &large, &small, &large}) {
    for (std::size_t k = 0; k < 2; ++k) {
      const TwinColumnStore& columns = store->columns();
      FeatureArena fresh;
      const WindowBatch got = columns.feature_windows(windows[k], shared);
      const WindowBatch want = columns.feature_windows(windows[k], fresh);
      ASSERT_EQ(got.size(), want.size());
      ASSERT_EQ(got.window_size(), want.window_size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            want.size() * want.window_size() * sizeof(float)),
                0);
      EXPECT_EQ(shared.window_stats().refreshed, columns.user_count());
      EXPECT_EQ(shared.window_stats().reused, 0u);

      const SummaryBatch got_summary = columns.summary_features(summaries[k], shared);
      const SummaryBatch want_summary = columns.summary_features(summaries[k], fresh);
      ASSERT_EQ(got_summary.size(), want_summary.size());
      EXPECT_EQ(std::memcmp(got_summary.data(), want_summary.data(),
                            want_summary.size() * want_summary.dim() * sizeof(double)),
                0);
    }
  }
}

TEST(TwinColumnStore, BatchSummaryRejectsBadSpecBeforeThePoolRuns) {
  // A bad spec must surface as a PreconditionError from the calling thread,
  // not as a throw inside a pool job (which would terminate the process).
  dtmsv::util::set_thread_count(4);
  TwinStore store(64);
  for (std::size_t u = 0; u < 64; ++u) {
    store.columns().record_channel(u, 1.0, {10.0, 2.0, 0});
  }
  FeatureArena arena;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const FeatureScaling scaling{};
  FeatureScaling flat = scaling;
  flat.snr_scale_db = 0.0;
  for (const SummarySpec& bad :
       {SummarySpec{nan, 60.0, scaling}, SummarySpec{inf, 60.0, scaling},
        SummarySpec{10.0, 0.0, scaling}, SummarySpec{10.0, 60.0, flat}}) {
    EXPECT_THROW(store.columns().summary_features(bad, arena), PreconditionError);
  }
  dtmsv::util::set_thread_count(0);  // restore env/hardware default
}

TEST(TwinColumnStore, HandoverSlotRecyclingLeavesNoHistoryBehind) {
  TwinStore store(3);
  TwinColumnStore& columns = store.columns();
  const FeatureScaling scaling{100.0, 100.0, 10.0, 40.0};
  for (int t = 0; t < 40; ++t) {
    columns.record_channel(1, t, {25.0, 4.0, 0});
  }
  WatchObservation w;
  w.category = dtmsv::video::Category::kGame;
  w.watch_seconds = 30.0;
  w.watch_fraction = 0.9;
  columns.record_watch(1, 10.0, w);
  columns.record_preference(1, 20.0, columns.estimator(1).estimate());

  FeatureArena arena;
  const WindowSpec spec{40.0, 40.0, 8, scaling};
  const WindowBatch batch = store.columns().feature_windows(spec, arena);
  const std::vector<float> before(batch.data(),
                                  batch.data() + batch.size() * batch.window_size());
  bool any_nonzero = false;
  for (const float v : batch.row(1)) {
    any_nonzero |= v != 0.0f;
  }
  ASSERT_TRUE(any_nonzero);

  // Handover: the slot is recycled in place — no history, no estimator
  // evidence, no stale truncation flag.
  store.reset_user(1);
  EXPECT_TRUE(columns.channel_column().empty(1));
  EXPECT_TRUE(columns.watch_column().empty(1));
  EXPECT_TRUE(columns.preference_column().empty(1));
  EXPECT_DOUBLE_EQ(columns.estimator(1).evidence_seconds(), 0.0);
  EXPECT_FALSE(columns.channel_column().truncated_before(1, 0.0));

  // The next snapshot through the same arena must not leak the previous
  // user's rows: the recycled slot is all-zero, the other rows unchanged.
  const WindowBatch after = store.columns().feature_windows(spec, arena);
  for (const float v : after.row(1)) {
    EXPECT_EQ(v, 0.0f);
  }
  for (const std::size_t u : {0u, 2u}) {
    EXPECT_EQ(std::memcmp(after.row(u).data(), before.data() + u * after.window_size(),
                          after.window_size() * sizeof(float)),
              0)
        << "user " << u;
  }
  // Recording for the newcomer restarts cleanly from an empty ring.
  columns.record_channel(1, 41.0, {12.0, 2.0, 0});
  EXPECT_EQ(columns.channel_column().size(1), 1u);
}

TEST(TwinColumnStore, ExtractionThreadCountInvariant) {
  const FeatureScaling scaling{100.0, 100.0, 10.0, 40.0};
  const WindowSpec spec{60.0, 60.0, 16, scaling};
  const auto run_with_threads = [&](std::size_t threads) {
    dtmsv::util::set_thread_count(threads);
    TwinStore store(64);
    for (std::size_t u = 0; u < 64; ++u) {
      for (int t = 0; t < 60; ++t) {
        store.columns().record_channel(
            u, t, {5.0 + 0.1 * static_cast<double>(u * 60 + t), 2.0, 0});
      }
    }
    FeatureArena arena;
    store.columns().feature_windows(spec, arena);
    for (std::size_t u = 0; u < 64; u += 7) {
      store.columns().record_channel(u, 59.5, {30.0, 5.0, 0});
    }
    const WindowBatch batch = store.columns().feature_windows(spec, arena);
    std::vector<float> bytes(batch.data(),
                             batch.data() + batch.size() * batch.window_size());
    dtmsv::util::set_thread_count(0);  // restore env/hardware default
    return bytes;
  };
  const auto single = run_with_threads(1);
  const auto pooled = run_with_threads(5);
  ASSERT_EQ(single.size(), pooled.size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    ASSERT_EQ(single[i], pooled[i]) << "element " << i;
  }
}

// ------------------------------------------------------- retention by time

TEST(RetainingRing, GrowsAcrossAWrappedRingInsteadOfEvictingInsideTheSpan) {
  // Capacity 3, retain 3 s. User 1: t=0 ages out when t=12 arrives (0 < 9),
  // which leaves the ring wrapped (head 1); t=13 then finds the oldest
  // sample (10) inside the span and doubles the stride instead of evicting.
  ChannelColumn column(2, 3, 3.0);
  column.record(0, 0.0, {100.0, 1.0, 7});
  column.record(0, 1.0, {101.0, 1.0, 7});
  for (const double t : {0.0, 10.0, 11.0, 12.0}) {
    column.record(1, t, {t, 2.0 * t, 3});
  }
  ASSERT_EQ(column.capacity(), 3u);
  ASSERT_TRUE(column.truncated_before(1, 0.0));
  const std::size_t bytes_before = column.bytes();

  column.record(1, 13.0, {13.0, 26.0, 3});
  EXPECT_EQ(column.capacity(), 6u);
  // Every lane doubled: time, snr, efficiency (8 B each) and serving BS (4 B).
  EXPECT_EQ(column.bytes() - bytes_before, 2u * 3u * (8u + 8u + 8u + 4u));
  ASSERT_EQ(column.size(1), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const double t = 10.0 + static_cast<double>(i);
    EXPECT_EQ(column.time(1, i), t);
    EXPECT_EQ(column.get(1, i).snr_db, t);
    EXPECT_EQ(column.get(1, i).efficiency_bps_hz, 2.0 * t);
    EXPECT_EQ(column.get(1, i).serving_bs, 3u);
  }
  // The other user's ring moved to the new stride untouched.
  ASSERT_EQ(column.size(0), 2u);
  EXPECT_EQ(column.time(0, 1), 1.0);
  EXPECT_EQ(column.get(0, 1).snr_db, 101.0);
  EXPECT_EQ(column.get(0, 0).serving_bs, 7u);
  // The growth evicted nothing new: only t=0 is gone.
  EXPECT_FALSE(column.truncated_before(1, 0.5));

  // Once the oldest sample leaves the span the ring evicts again.
  column.record(1, 13.5, {13.5, 27.0, 3});
  column.record(1, 13.5, {13.5, 27.0, 3});
  column.record(1, 17.0, {17.0, 34.0, 3});  // 10 < 14: evicted, no growth
  EXPECT_EQ(column.capacity(), 6u);
  EXPECT_EQ(column.time(1, 0), 11.0);
  EXPECT_TRUE(column.truncated_before(1, 10.0));
}

TEST(RetainingRing, StopsGrowingAtItsCeilingAndThenEvictsLikeAFixedRing) {
  // Every sample is inside the 10 s span, so only the ceiling stops the
  // growth: 2 -> 4 -> 5 slots (the last doubling is clamped), then eviction.
  ChannelColumn column(1, 2, 10.0, 5);
  for (int i = 0; i < 7; ++i) {
    column.record(0, 1.0 + i, {static_cast<double>(i), 0.0, 0});
  }
  EXPECT_EQ(column.capacity(), 5u);
  ASSERT_EQ(column.size(0), 5u);
  EXPECT_EQ(column.time(0, 0), 3.0);
  EXPECT_EQ(column.get(0, 4).snr_db, 6.0);
  EXPECT_TRUE(column.truncated_before(0, 2.0));
  EXPECT_FALSE(column.truncated_before(0, 2.5));
  EXPECT_THROW(ChannelColumn(1, 8, 10.0, 4), PreconditionError);  // starts above it
}

TEST(RetainingRing, ZeroSpanIsAFixedRingAndBadSpansAreRejected) {
  ChannelColumn fixed(1, 2);
  for (int i = 0; i < 5; ++i) {
    fixed.record(0, 1.0, {0.0, 0.0, 0});  // equal timestamps never grow it
  }
  EXPECT_EQ(fixed.capacity(), 2u);
  EXPECT_EQ(fixed.size(0), 2u);
  EXPECT_THROW(ChannelColumn(1, 0), PreconditionError);
  EXPECT_THROW(ChannelColumn(1, 2, -1.0), PreconditionError);
  EXPECT_THROW(ChannelColumn(1, 2, std::numeric_limits<double>::quiet_NaN()),
               PreconditionError);
  EXPECT_THROW(TwinColumnStore(1, RetentionSpan{0.0}), PreconditionError);
  EXPECT_THROW(TwinStore(1, RetentionSpan{std::numeric_limits<double>::infinity()}),
               PreconditionError);
}

bool same_value(const ChannelObservation& a, const ChannelObservation& b) {
  return a.snr_db == b.snr_db && a.efficiency_bps_hz == b.efficiency_bps_hz &&
         a.serving_bs == b.serving_bs;
}
bool same_value(const dtmsv::mobility::Position& a, const dtmsv::mobility::Position& b) {
  return a.x == b.x && a.y == b.y;
}
bool same_value(const WatchObservation& a, const WatchObservation& b) {
  return a.video_id == b.video_id && a.category == b.category &&
         a.duration_s == b.duration_s && a.watch_seconds == b.watch_seconds &&
         a.watch_fraction == b.watch_fraction && a.completed == b.completed;
}
bool same_value(const dtmsv::behavior::PreferenceVector& a,
                const dtmsv::behavior::PreferenceVector& b) {
  return a == b;
}

/// User `u`'s newest sample is the same in both columns, time and value.
template <typename Column>
void expect_same_latest(const Column& windowed, const Column& fixed, std::size_t u,
                        const char* what) {
  ASSERT_EQ(windowed.empty(u), fixed.empty(u)) << what;
  if (fixed.empty(u)) {
    return;
  }
  const double a = windowed.time(u, windowed.size(u) - 1);
  const double b = fixed.time(u, fixed.size(u) - 1);
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0) << what;
  EXPECT_TRUE(same_value(windowed.get(u, windowed.size(u) - 1),
                         fixed.get(u, fixed.size(u) - 1)))
      << what;
}

void expect_same_bits(const std::vector<double>& a, const std::vector<double>& b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0) << what;
}

/// Everything a windowed read at `now` can see, from one store.
struct WindowReads {
  std::vector<float> windows;
  std::vector<double> summaries;
  std::vector<double> forecast;  // efficiency, then the per-bin minima
  std::vector<double> swiping;   // per category: mass, E[X], CDF on a grid
};

WindowReads read_window(const TwinStore& store, double now, double window_s) {
  const FeatureScaling scaling{1200.0, 1000.0, 10.0, 40.0};
  const WindowSpec wspec{now, window_s, 12, scaling};
  const SummarySpec sspec{now, window_s, scaling};
  const TwinColumnStore& columns = store.columns();
  WindowReads reads;
  std::vector<const UserDigitalTwin*> group;
  for (std::size_t u = 0; u < store.user_count(); ++u) {
    std::vector<float> row(TwinColumnStore::kFeatureChannels * wspec.timesteps);
    columns.extract_window_row(u, wspec, row.data());
    reads.windows.insert(reads.windows.end(), row.begin(), row.end());
    std::vector<double> summary(TwinColumnStore::kSummaryDim);
    columns.extract_summary_row(u, sspec, summary.data());
    reads.summaries.insert(reads.summaries.end(), summary.begin(), summary.end());
    group.push_back(&store.twin(u));
  }
  const auto forecast = dtmsv::predict::forecast_group_channel(group, now, window_s);
  reads.forecast.push_back(forecast.efficiency);
  reads.forecast.insert(reads.forecast.end(), forecast.min_series.begin(),
                        forecast.min_series.end());
  const auto swiping = dtmsv::analysis::build_group_swiping(group, now, window_s, 10, 0.7);
  for (const auto category : dtmsv::video::all_categories()) {
    reads.swiping.push_back(swiping.mass(category));
    reads.swiping.push_back(swiping.expected_watch_fraction(category));
    for (int k = 0; k <= 10; ++k) {
      reads.swiping.push_back(swiping.cumulative_swipe_probability(category, 0.1 * k));
    }
  }
  return reads;
}

TEST(RetainingRing, WindowedStoreReadsLikeANeverEvictingStore) {
  // Random multi-user streams shaped like the collector's: reports stamped
  // up to `latency` after the tick they were measured in (per-user offsets
  // in [0, latency]), bursts of equal or near-equal timestamps, sparse
  // location / preference reports, handover resets mid-stream. Every read
  // happens at now >= newest stamp - latency, the owners' invariant.
  constexpr std::size_t kUsers = 6;
  constexpr double kTick = 1.0;
  constexpr double kLatency = 2.5;
  constexpr double kWindow = 20.0;
  TwinStore windowed(kUsers, RetentionSpan{kWindow + kLatency + kTick});
  TwinStore fixed(kUsers, 8192);  // 8192/2048/1024/512 slots: never evicts here
  Rng rng(97);
  std::vector<double> offset(kUsers);
  for (double& o : offset) {
    o = std::round(rng.uniform(0.0, kLatency) * 4.0) / 4.0;
  }
  offset[0] = kLatency;  // reads at t1 sit right on the invariant's edge
  std::size_t reads = 0;
  bool grew_wrapped = false;  // a growth after some ring had evicted
  for (int tick = 0; tick < 400; ++tick) {
    const double t1 = kTick * (tick + 1);
    const std::size_t capacity_before = windowed.columns().channel_column().capacity();
    bool evicted_before = false;
    for (std::size_t u = 0; u < kUsers; ++u) {
      evicted_before = evicted_before || windowed.columns().channel_column().size(u) <
                                             fixed.columns().channel_column().size(u);
    }
    if (tick == 150 || tick == 260) {
      const std::size_t u = tick == 150 ? 2 : 0;
      windowed.reset_user(u);
      fixed.reset_user(u);
    }
    for (std::size_t u = 0; u < kUsers; ++u) {
      const double stamp = t1 + offset[u];
      // A burst: many channel and watch reports in this tick, some tied.
      const bool burst = rng.uniform() < 0.06;
      // One late burst outgrows every stride the stream has needed so far.
      const int channel_reports = tick == 300 && u == 3 ? 300
                                  : burst               ? 25
                                  : rng.uniform() < 0.9 ? 1
                                                        : 0;
      const int watch_reports = burst ? 12 : static_cast<int>(rng.uniform(0.0, 2.0));
      std::vector<double> times;
      for (int i = 0; i < channel_reports + watch_reports; ++i) {
        times.push_back(stamp - std::round(rng.uniform(0.0, kTick) * 4.0) / 4.0);
      }
      std::sort(times.begin(), times.begin() + channel_reports);
      std::sort(times.begin() + channel_reports, times.end());
      for (TwinStore* store : {&windowed, &fixed}) {
        Rng values(static_cast<std::uint64_t>(tick) * 131 + u);
        TwinColumnStore& columns = store->columns();
        for (int i = 0; i < channel_reports; ++i) {
          columns.record_channel(u, times[static_cast<std::size_t>(i)],
                                 {values.uniform(-15.0, 35.0), values.uniform(0.0, 6.5),
                                  static_cast<std::size_t>(u)});
        }
        for (int i = 0; i < watch_reports; ++i) {
          WatchObservation w;
          w.video_id = values.next() % 1000;
          w.category = dtmsv::video::all_categories()[values.next() %
                                                      dtmsv::video::kCategoryCount];
          w.duration_s = 30.0;
          w.watch_seconds = values.uniform(0.0, 30.0);
          w.watch_fraction = w.watch_seconds / w.duration_s;
          w.completed = w.watch_fraction > 0.95;
          columns.record_watch(u, times[static_cast<std::size_t>(channel_reports + i)], w);
        }
        if (tick % 5 == 0) {
          columns.record_location(u, stamp,
                                  {values.uniform(0.0, 1200.0), values.uniform(0.0, 1000.0)});
        }
        if (tick % 15 == 0 || burst) {
          columns.record_preference(u, stamp, columns.estimator(u).estimate());
        }
      }
    }
    grew_wrapped = grew_wrapped ||
                   (evicted_before &&
                    windowed.columns().channel_column().capacity() > capacity_before);
    if (tick % 9 != 4) {
      continue;
    }
    for (const double now : {t1, t1 + 0.4, t1 + kLatency}) {
      SCOPED_TRACE("tick " + std::to_string(tick) + " now " + std::to_string(now));
      const WindowReads a = read_window(windowed, now, kWindow);
      const WindowReads b = read_window(fixed, now, kWindow);
      ASSERT_EQ(a.windows.size(), b.windows.size());
      ASSERT_EQ(std::memcmp(a.windows.data(), b.windows.data(),
                            a.windows.size() * sizeof(float)),
                0);
      expect_same_bits(a.summaries, b.summaries, "summary rows");
      expect_same_bits(a.forecast, b.forecast, "group channel forecast");
      expect_same_bits(a.swiping, b.swiping, "group swiping");
      const TwinColumnStore& w = windowed.columns();
      const TwinColumnStore& f = fixed.columns();
      for (std::size_t u = 0; u < kUsers; ++u) {
        expect_same_latest(w.channel_column(), f.channel_column(), u, "channel");
        expect_same_latest(w.location_column(), f.location_column(), u, "location");
        expect_same_latest(w.watch_column(), f.watch_column(), u, "watch");
        expect_same_latest(w.preference_column(), f.preference_column(), u, "preference");
        EXPECT_FALSE(w.channel_column().truncated_before(u, now - kWindow));
        EXPECT_FALSE(w.watch_column().truncated_before(u, now - kWindow));
      }
      ++reads;
    }
  }
  EXPECT_GT(reads, 100u);
  EXPECT_TRUE(grew_wrapped);
  // The windowed store kept far less than the fixed one and did evict.
  EXPECT_LT(windowed.columns().bytes() * 8, fixed.columns().bytes());
  EXPECT_LT(windowed.columns().channel_column().size(1),
            fixed.columns().channel_column().size(1));
}

// ------------------------------------------------------- one-user store

TEST(OneUserStore, RecordsAllFourAttributes) {
  TwinColumnStore twin(1, 2048);
  twin.record_channel(0, 1.0, {12.0, 2.5, 0});
  twin.record_location(0, 1.0, {100.0, 200.0});
  WatchObservation w;
  w.category = dtmsv::video::Category::kNews;
  w.watch_seconds = 10.0;
  w.watch_fraction = 0.5;
  w.duration_s = 20.0;
  twin.record_watch(0, 2.0, w);
  twin.record_preference(0, 3.0, twin.estimator(0).estimate());

  EXPECT_EQ(twin.channel_column().size(0), 1u);
  EXPECT_EQ(twin.location_column().size(0), 1u);
  EXPECT_EQ(twin.watch_column().size(0), 1u);
  EXPECT_EQ(twin.preference_column().size(0), 1u);
}

TEST(OneUserStore, WatchIngestionFeedsPreferenceEstimator) {
  TwinColumnStore twin(1, 2048);
  WatchObservation w;
  w.category = dtmsv::video::Category::kMusic;
  w.watch_seconds = 42.0;
  twin.record_watch(0, 1.0, w);
  const auto est = twin.estimator(0).estimate();
  EXPECT_GT(est[static_cast<std::size_t>(dtmsv::video::Category::kMusic)], 0.5);
  EXPECT_DOUBLE_EQ(twin.estimator(0).evidence_seconds(), 42.0);
}

TEST(OneUserStore, LatestPreferenceIsTheNewestSnapshotElseTheEstimate) {
  TwinColumnStore twin(1, 2048);
  WatchObservation w;
  w.category = dtmsv::video::Category::kGame;
  w.watch_seconds = 30.0;
  twin.record_watch(0, 1.0, w);
  EXPECT_EQ(twin.latest_preference(0), twin.estimator(0).estimate());
  dtmsv::behavior::PreferenceVector snapshot{};
  snapshot[0] = 1.0;
  twin.record_preference(0, 2.0, snapshot);
  EXPECT_EQ(twin.latest_preference(0), snapshot);  // not the estimate
  twin.reset_user(0);
  EXPECT_EQ(twin.latest_preference(0), dtmsv::behavior::PreferenceEstimator{}.estimate());
}

TEST(OneUserStore, FeatureWindowShapeAndRange) {
  TwinColumnStore twin(1, 2048);
  const FeatureScaling scaling{1200.0, 1000.0, 10.0, 40.0};
  for (int t = 0; t < 60; ++t) {
    twin.record_channel(0, static_cast<double>(t), {15.0, 3.0, 0});
    twin.record_location(0, static_cast<double>(t), {600.0, 500.0});
  }
  const auto window = window_row(twin, 0, {60.0, 60.0, 16, scaling});
  ASSERT_EQ(window.size(), TwinColumnStore::kFeatureChannels * 16);
  for (const float v : window) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, -0.01f);
    EXPECT_LE(v, 1.5f);
  }
  // Channel 0 (normalised SNR) should be (15+10)/40 = 0.625 in every bin.
  for (std::size_t b = 0; b < 16; ++b) {
    EXPECT_NEAR(window[b], 0.625f, 1e-5);
  }
  // Channel 2 (x/width) = 0.5.
  for (std::size_t b = 0; b < 16; ++b) {
    EXPECT_NEAR(window[2 * 16 + b], 0.5f, 1e-5);
  }
}

TEST(OneUserStore, FeatureWindowZeroOrderHold) {
  TwinColumnStore twin(1, 2048);
  const FeatureScaling scaling{100.0, 100.0, 10.0, 40.0};
  // One sample early in the window; later bins must hold its value.
  twin.record_channel(0, 1.0, {10.0, 2.0, 0});
  const auto window = window_row(twin, 0, {32.0, 32.0, 8, scaling});
  const float expected = (10.0f + 10.0f) / 40.0f;
  EXPECT_NEAR(window[0], expected, 1e-5);
  EXPECT_NEAR(window[7], expected, 1e-5);  // held forward
}

TEST(OneUserStore, FeatureWindowEmptyTwinAllZero) {
  const TwinColumnStore twin(1, 2048);
  const FeatureScaling scaling{100.0, 100.0, 10.0, 40.0};
  const auto window = window_row(twin, 0, {100.0, 50.0, 8, scaling});
  // Preference channels hold zeros too (no snapshots yet).
  for (const float v : window) {
    EXPECT_EQ(v, 0.0f);
  }
}

TEST(OneUserStore, SummaryFeaturesContent) {
  TwinColumnStore twin(1, 2048);
  const FeatureScaling scaling{1000.0, 1000.0, 10.0, 40.0};
  for (int t = 0; t < 10; ++t) {
    twin.record_channel(0, static_cast<double>(t), {10.0, 2.0, 0});
    twin.record_location(0, static_cast<double>(t), {500.0, 250.0});
  }
  const auto features = summary_row(twin, 0, {10.0, 10.0, scaling});
  ASSERT_EQ(features.size(), 6u + dtmsv::video::kCategoryCount);
  EXPECT_NEAR(features[0], 0.5, 1e-9);   // mean snr normalised
  EXPECT_NEAR(features[1], 0.0, 1e-9);   // snr stddev
  EXPECT_NEAR(features[2], 0.5, 1e-9);   // x
  EXPECT_NEAR(features[3], 0.25, 1e-9);  // y
}

// ------------------------------------------------------------------- Store

TEST(TwinStore, OwnsOneTwinHandlePerUser) {
  TwinStore store(5);
  EXPECT_EQ(store.user_count(), 5u);
  for (std::uint64_t u = 0; u < 5; ++u) {
    EXPECT_EQ(store.twin(u).slot(), u);
    EXPECT_EQ(&store.twin(u).columns(), &store.columns());
  }
  EXPECT_THROW(store.twin(5), PreconditionError);
  EXPECT_THROW(UserDigitalTwin(&store.columns(), 5), PreconditionError);
  EXPECT_THROW(UserDigitalTwin(nullptr, 0), PreconditionError);
}

TEST(TwinStore, BulkFeatureExtraction) {
  TwinStore store(3);
  const FeatureScaling scaling{100.0, 100.0, 10.0, 40.0};
  store.columns().record_channel(0, 1.0, {20.0, 4.0, 0});
  // The WindowBatch/SummaryBatch views are the only bulk surface; their
  // rows must be bit-identical to the single-row extraction.
  FeatureArena arena;
  const WindowSpec spec{10.0, 10.0, 8, scaling};
  const WindowBatch batch = store.columns().feature_windows(spec, arena);
  ASSERT_EQ(batch.size(), 3u);
  for (std::size_t u = 0; u < 3; ++u) {
    const auto row = batch.row(u);
    ASSERT_EQ(row.size(), TwinColumnStore::kFeatureChannels * 8);
    const std::vector<float> single = window_row(store.columns(), u, spec);
    ASSERT_EQ(single.size(), row.size());
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(single[i], row[i]);
    }
  }
  const SummaryBatch summaries =
      store.columns().summary_features({10.0, 10.0, scaling}, arena);
  ASSERT_EQ(summaries.size(), 3u);
  for (std::size_t u = 0; u < 3; ++u) {
    const auto row = summaries.row(u);
    const std::vector<double> single = summary_row(store.columns(), u, {10.0, 10.0, scaling});
    ASSERT_EQ(single.size(), row.size());
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(single[i], row[i]);
    }
  }
}

TEST(TwinStore, DecayPreferencesAcrossAllTwins) {
  TwinStore store(2);
  TwinColumnStore& columns = store.columns();
  WatchObservation w;
  w.category = dtmsv::video::Category::kGame;
  w.watch_seconds = 100.0;
  columns.record_watch(0, 1.0, w);
  columns.record_watch(1, 1.0, w);
  const double before = columns.estimator(0).evidence_seconds();
  store.decay_preferences();
  EXPECT_LT(columns.estimator(0).evidence_seconds(), before);
  EXPECT_LT(columns.estimator(1).evidence_seconds(), before);
}

// --------------------------------------------------------------- Collector

struct CollectorFixture {
  dtmsv::mobility::CampusMap map = dtmsv::mobility::CampusMap::waterloo_campus();
  dtmsv::mobility::MobilityConfig mob_cfg{};
  Rng rng{99};
  std::size_t users = 4;
  dtmsv::mobility::MobilityField field{map, mob_cfg, users, rng};
  dtmsv::wireless::RadioConfig radio{};
  Rng channel_rng{100};
  dtmsv::wireless::ChannelModel channel{map, radio, users, 1.0, channel_rng};
  TwinStore store{users};

  void run(StatusCollector& collector, int seconds) {
    for (int t = 0; t < seconds; ++t) {
      field.advance(1.0);
      channel.step(field.snapshot());
      collector.tick(static_cast<double>(t + 1), 1.0, store, channel, field, {});
    }
  }
};

TEST(StatusCollector, RespectsPerAttributePeriods) {
  CollectorFixture fx;
  CollectionPolicy policy;
  policy.channel_period_s = 1.0;
  policy.location_period_s = 5.0;
  policy.preference_period_s = 20.0;
  StatusCollector collector(policy, fx.users, Rng(1));
  fx.run(collector, 20);

  const auto& stats = collector.stats();
  EXPECT_EQ(stats.channel_reports, 20u * fx.users);
  // Location fires at t=1 (first due) then every 5 s: t=1,5,10,15,20 → 5.
  EXPECT_EQ(stats.location_reports, 5u * fx.users);
  EXPECT_EQ(stats.dropped_reports, 0u);
  EXPECT_EQ(fx.store.columns().channel_column().size(0), 20u);
}

TEST(StatusCollector, ReportLossDropsShare) {
  CollectorFixture fx;
  CollectionPolicy policy;
  policy.report_loss_prob = 0.5;
  StatusCollector collector(policy, fx.users, Rng(2));
  fx.run(collector, 100);

  const auto& stats = collector.stats();
  const std::size_t delivered = stats.channel_reports + stats.location_reports +
                                stats.preference_reports;
  const double loss_rate =
      static_cast<double>(stats.dropped_reports) /
      static_cast<double>(delivered + stats.dropped_reports);
  EXPECT_NEAR(loss_rate, 0.5, 0.1);
  // Twins still usable, just sparser.
  EXPECT_GT(fx.store.columns().channel_column().size(0), 20u);
  EXPECT_LT(fx.store.columns().channel_column().size(0), 80u);
}

TEST(StatusCollector, LatencyShiftsVisibility) {
  CollectorFixture fx;
  CollectionPolicy policy;
  policy.latency_s = 10.0;
  StatusCollector collector(policy, fx.users, Rng(3));
  fx.run(collector, 5);
  // Measurements at t=1..5 are stamped 11..15: not visible in [0, 6).
  const ChannelColumn& channel = fx.store.columns().channel_column();
  EXPECT_TRUE(windowed_walk(channel, 0, 0.0, 6.0).empty());
  EXPECT_EQ(windowed_walk(channel, 0, 0.0, 16.0).size(), 5u);
}

TEST(StatusCollector, WatchEventsAreEventDriven) {
  CollectorFixture fx;
  CollectionPolicy policy;
  StatusCollector collector(policy, fx.users, Rng(4));

  fx.field.advance(1.0);
  fx.channel.step(fx.field.snapshot());
  dtmsv::behavior::ViewEvent ev;
  ev.user_id = 2;
  ev.video_id = 17;
  ev.category = dtmsv::video::Category::kComedy;
  ev.start_time = 0.2;
  ev.duration_s = 12.0;
  ev.watch_seconds = 6.0;
  ev.watch_fraction = 0.5;
  collector.tick(1.0, 1.0, fx.store, fx.channel, fx.field, {ev});

  EXPECT_EQ(collector.stats().watch_reports, 1u);
  const WatchColumn& watch = fx.store.columns().watch_column();
  ASSERT_EQ(watch.size(2), 1u);
  const WatchObservation obs = watch.get(2, 0);
  EXPECT_EQ(obs.video_id, 17u);
  EXPECT_DOUBLE_EQ(obs.watch_fraction, 0.5);
  // Other twins untouched.
  EXPECT_EQ(watch.size(0), 0u);
}

TEST(StatusCollector, InvalidPolicyRejected) {
  CollectionPolicy policy;
  policy.channel_period_s = 0.0;
  EXPECT_THROW(StatusCollector(policy, 2, Rng(5)), PreconditionError);
  CollectionPolicy p2;
  p2.report_loss_prob = 1.5;
  EXPECT_THROW(StatusCollector(p2, 2, Rng(6)), PreconditionError);
}

}  // namespace
