// Columnar twin storage: per-attribute SoA ring buffers.
//
// The seed kept one std::deque of timestamped samples per attribute per
// user — every window scan chased deque blocks and every handover
// reallocated a whole twin object. Here each attribute holds ONE
// contiguous time column and one contiguous column per value field,
// spanning all users with a common `capacity` stride: user u's slots live
// at [u*capacity, (u+1)*capacity), managed as a ring (head + size, oldest
// evicted first). A fixed ring keeps its capacity; a ring that retains by
// time (retain_s > 0) evicts only samples older than retain_s before the
// newest one and doubles the stride (up to a ceiling) when it fills with
// younger ones, so memory follows what a window can read rather than a
// worst-case slot count. Per-user times are non-decreasing and finite
// (push_slot enforces both), so a windowed read (for_each_slot_in)
// binary-searches the ring for its first sample and walks only the window:
// O(log capacity + samples in window), whatever the retention. Extraction
// kernels scan plain double arrays; reset_user is slot recycling (ring
// emptied, no allocation, nothing freed) instead of object replacement.
//
// Every reader walks a user's window with for_each_slot_in and reads the
// flat value lanes (or at_slot) at each physical slot, so no sample is
// copied out first. truncated_before carries the eviction-truncation
// contract: it says when a window whose `from` predates the evicted range
// is missing history, instead of letting the shorter window pass silently.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "behavior/preference.hpp"
#include "mobility/campus_map.hpp"
#include "twin/observations.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace dtmsv::twin {

/// Ring bookkeeping shared by every attribute column: the time lane, the
/// per-user {head, size} ring state, the eviction metadata backing the
/// truncation contract, and the retention rule. The value lanes live in the
/// derived `Column`, which lists them once in a static
/// `value_lanes(self, fn)`; the base allocates, re-lays and measures them
/// through it.
template <typename Column>
class RingColumnBase {
 public:
  /// Ring head and size are uint32: a stride must fit them.
  static constexpr std::size_t kMaxCapacity = std::numeric_limits<std::uint32_t>::max();

  /// `capacity`: slots per user to start with. `retain_s` = 0 keeps that
  /// capacity for good (a fixed ring, oldest evicted first); a positive
  /// span retains by time and grows the stride on demand, up to
  /// `max_capacity` slots per user (push_slot).
  RingColumnBase(std::size_t user_count, std::size_t capacity, double retain_s,
                 std::size_t max_capacity)
      : capacity_(capacity),
        max_capacity_(max_capacity),
        retain_s_(retain_s),
        rings_(user_count),
        times_(user_count * capacity, 0.0),
        last_evicted_(user_count, 0.0),
        evicted_(user_count, 0) {
    DTMSV_EXPECTS(capacity > 0 && capacity <= max_capacity && max_capacity <= kMaxCapacity);
    DTMSV_EXPECTS_MSG(std::isfinite(retain_s) && retain_s >= 0.0,
                      "twin column: retention span must be finite and >= 0");
  }

  std::size_t user_count() const { return rings_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::size_t size(std::size_t u) const { return rings_[u].size; }
  bool empty(std::size_t u) const { return rings_[u].size == 0; }

  /// Timestamp of user `u`'s i-th retained sample (0 = oldest).
  util::SimTime time(std::size_t u, std::size_t i) const {
    return times_[slot(u, i)];
  }

  /// Physical slot of user `u`'s i-th retained sample.
  std::size_t slot(std::size_t u, std::size_t i) const {
    const Ring& r = rings_[u];
    return u * capacity_ + (r.head + i) % capacity_;
  }

  /// True when capacity eviction dropped a sample of `u` with time >= from.
  bool truncated_before(std::size_t u, util::SimTime from) const {
    return evicted_[u] != 0 && last_evicted_[u] >= from;
  }

  /// Calls fn(physical_slot) over user `u`'s retained samples with time in
  /// [from, to), oldest first. A binary search over the ring finds the first
  /// sample with t >= from; the walk stops at the first t >= to. NaN bounds
  /// compare false: a NaN `from` starts at the oldest sample and a NaN `to`
  /// never stops the walk.
  template <typename Fn>
  void for_each_slot_in(std::size_t u, util::SimTime from, util::SimTime to,
                        Fn&& fn) const {
    const Ring& r = rings_[u];
    const double* times = times_.data() + u * capacity_;
    const auto physical = [&](std::size_t i) {
      const std::size_t p = r.head + i;
      return p < capacity_ ? p : p - capacity_;
    };
    std::size_t lo = 0;
    std::size_t hi = r.size;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (times[physical(mid)] < from) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    std::size_t p = physical(lo);
    for (std::size_t i = lo; i < r.size; ++i) {
      if (times[p] >= to) {
        return;
      }
      fn(u * capacity_ + p);
      if (++p == capacity_) {
        p = 0;
      }
    }
  }

  /// Recycles user `u`'s slots: empty ring, truncation metadata cleared.
  /// O(1) — nothing is deallocated or overwritten.
  void clear_user(std::size_t u) {
    rings_[u] = Ring{};
    last_evicted_[u] = 0.0;
    evicted_[u] = 0;
  }

  const std::vector<double>& times() const { return times_; }

  /// Bytes allocated by the column: time and value lanes plus the per-user
  /// ring and eviction state.
  std::size_t bytes() const {
    std::size_t total = lane_bytes(rings_) + lane_bytes(times_) +
                        lane_bytes(last_evicted_) + lane_bytes(evicted_);
    Column::value_lanes(static_cast<const Column&>(*this),
                        [&](const auto& lane) { total += lane_bytes(lane); });
    return total;
  }

 protected:
  /// Zero-fills every value lane to the time lane's size (derived
  /// constructors call this once their lanes exist).
  void allocate_value_lanes() {
    Column::value_lanes(static_cast<Column&>(*this),
                        [&](auto& lane) { lane.assign(times_.size(), {}); });
  }

  /// Claims the write slot for a new sample of `u` at `t` (finite and
  /// non-decreasing within the user). When the ring is full, the oldest
  /// sample is evicted if the ring is fixed (retain_s = 0), the stride is
  /// already max_capacity, or that sample is older than t - retain_s;
  /// otherwise the column's stride doubles (grow) and nothing is evicted.
  ///
  /// Why retaining by time is exact: a windowed read at `now` covers
  /// [now - window_s, now), and every read happens at now >= (newest
  /// ingested time - collection latency). Owners set retain_s = window_s +
  /// latency + one tick, so an evicted sample (older than t - retain_s, t
  /// ingested) lies more than a tick before any window a later read can
  /// ask for: no window ever misses a sample and truncated_before() stays
  /// false for all of them. The tick absorbs the rounding of now - window_s.
  /// The one exception is a user whose window holds more than max_capacity
  /// samples: the ceiling bounds memory against any input stream, and
  /// truncated_before() reports what it evicted, as for a fixed ring.
  std::size_t push_slot(std::size_t u, util::SimTime t) {
    DTMSV_EXPECTS_MSG(std::isfinite(t), "twin column: timestamps must be finite");
    Ring& r = rings_[u];
    DTMSV_EXPECTS_MSG(
        r.size == 0 || t >= times_[u * capacity_ + (r.head + r.size - 1) % capacity_],
        "twin column: timestamps must be non-decreasing");
    if (r.size == capacity_ && retain_s_ > 0.0 && capacity_ < max_capacity_ &&
        times_[u * capacity_ + r.head] >= t - retain_s_) {
      grow();
    }
    std::size_t at;
    if (r.size == capacity_) {
      at = u * capacity_ + r.head;
      last_evicted_[u] = times_[at];
      evicted_[u] = 1;
      r.head = static_cast<std::uint32_t>((r.head + 1) % capacity_);
    } else {
      at = u * capacity_ + (r.head + r.size) % capacity_;
      ++r.size;
    }
    times_[at] = t;
    return at;
  }

 private:
  struct Ring {
    std::uint32_t head = 0;
    std::uint32_t size = 0;
  };

  template <typename T>
  static std::size_t lane_bytes(const std::vector<T>& lane) {
    return lane.capacity() * sizeof(T);
  }

  /// Doubles the per-user stride, capped at max_capacity: every user's
  /// ring in the time lane and in each value lane is copied oldest-first
  /// into a lane of the new stride, and every head becomes 0. Ingestion is
  /// serial, so growth happens at the same samples for any DTMSV_THREADS.
  void grow() {
    const std::size_t from = capacity_;
    const std::size_t to = std::min(2 * from, max_capacity_);
    const auto relayout = [&](auto& lane) {
      std::remove_cvref_t<decltype(lane)> grown(rings_.size() * to);
      for (std::size_t u = 0; u < rings_.size(); ++u) {
        const Ring& r = rings_[u];
        const auto src = lane.begin() + static_cast<std::ptrdiff_t>(u * from);
        const auto dst = grown.begin() + static_cast<std::ptrdiff_t>(u * to);
        const std::size_t tail = std::min<std::size_t>(r.size, from - r.head);
        std::copy_n(src + r.head, tail, dst);
        std::copy_n(src, r.size - tail, dst + static_cast<std::ptrdiff_t>(tail));
      }
      lane.swap(grown);
    };
    relayout(times_);
    Column::value_lanes(static_cast<Column&>(*this), relayout);
    for (Ring& r : rings_) {
      r.head = 0;
    }
    capacity_ = to;
  }

  std::size_t capacity_;
  std::size_t max_capacity_;
  double retain_s_;
  std::vector<Ring> rings_;
  std::vector<double> times_;
  std::vector<double> last_evicted_;
  std::vector<std::uint8_t> evicted_;
};

/// Channel condition column: snr / spectral efficiency / serving BS.
class ChannelColumn : public RingColumnBase<ChannelColumn> {
 public:
  using value_type = ChannelObservation;

  ChannelColumn(std::size_t user_count, std::size_t capacity, double retain_s = 0.0,
                std::size_t max_capacity = kMaxCapacity)
      : RingColumnBase(user_count, capacity, retain_s, max_capacity) {
    allocate_value_lanes();
  }

  void record(std::size_t u, util::SimTime t, const ChannelObservation& obs) {
    const std::size_t at = push_slot(u, t);
    snr_[at] = obs.snr_db;
    efficiency_[at] = obs.efficiency_bps_hz;
    serving_bs_[at] = static_cast<std::uint32_t>(obs.serving_bs);
  }

  value_type get(std::size_t u, std::size_t i) const { return at_slot(slot(u, i)); }

  /// The sample stored at physical slot `at`.
  value_type at_slot(std::size_t at) const {
    return {snr_[at], efficiency_[at], serving_bs_[at]};
  }

  const std::vector<double>& snr() const { return snr_; }
  const std::vector<double>& efficiency() const { return efficiency_; }

 private:
  friend class RingColumnBase<ChannelColumn>;
  template <typename Self, typename Fn>
  static void value_lanes(Self& self, Fn&& fn) {
    fn(self.snr_);
    fn(self.efficiency_);
    fn(self.serving_bs_);
  }

  std::vector<double> snr_;
  std::vector<double> efficiency_;
  std::vector<std::uint32_t> serving_bs_;
};

/// Location column: campus position reports.
class LocationColumn : public RingColumnBase<LocationColumn> {
 public:
  using value_type = mobility::Position;

  LocationColumn(std::size_t user_count, std::size_t capacity, double retain_s = 0.0,
                 std::size_t max_capacity = kMaxCapacity)
      : RingColumnBase(user_count, capacity, retain_s, max_capacity) {
    allocate_value_lanes();
  }

  void record(std::size_t u, util::SimTime t, const mobility::Position& pos) {
    const std::size_t at = push_slot(u, t);
    x_[at] = pos.x;
    y_[at] = pos.y;
  }

  value_type get(std::size_t u, std::size_t i) const { return at_slot(slot(u, i)); }

  value_type at_slot(std::size_t at) const { return {x_[at], y_[at]}; }

  const std::vector<double>& x() const { return x_; }
  const std::vector<double>& y() const { return y_; }

 private:
  friend class RingColumnBase<LocationColumn>;
  template <typename Self, typename Fn>
  static void value_lanes(Self& self, Fn&& fn) {
    fn(self.x_);
    fn(self.y_);
  }

  std::vector<double> x_;
  std::vector<double> y_;
};

/// Watch-event column: one finished view per sample.
class WatchColumn : public RingColumnBase<WatchColumn> {
 public:
  using value_type = WatchObservation;

  WatchColumn(std::size_t user_count, std::size_t capacity, double retain_s = 0.0,
              std::size_t max_capacity = kMaxCapacity)
      : RingColumnBase(user_count, capacity, retain_s, max_capacity) {
    allocate_value_lanes();
  }

  void record(std::size_t u, util::SimTime t, const WatchObservation& obs) {
    const std::size_t at = push_slot(u, t);
    video_id_[at] = obs.video_id;
    category_[at] = static_cast<std::uint8_t>(obs.category);
    duration_[at] = obs.duration_s;
    watch_seconds_[at] = obs.watch_seconds;
    watch_fraction_[at] = obs.watch_fraction;
    completed_[at] = obs.completed ? 1 : 0;
  }

  value_type get(std::size_t u, std::size_t i) const { return at_slot(slot(u, i)); }

  value_type at_slot(std::size_t at) const {
    WatchObservation obs;
    obs.video_id = video_id_[at];
    obs.category = static_cast<video::Category>(category_[at]);
    obs.duration_s = duration_[at];
    obs.watch_seconds = watch_seconds_[at];
    obs.watch_fraction = watch_fraction_[at];
    obs.completed = completed_[at] != 0;
    return obs;
  }

  const std::vector<double>& watch_fraction() const { return watch_fraction_; }

 private:
  friend class RingColumnBase<WatchColumn>;
  template <typename Self, typename Fn>
  static void value_lanes(Self& self, Fn&& fn) {
    fn(self.video_id_);
    fn(self.category_);
    fn(self.duration_);
    fn(self.watch_seconds_);
    fn(self.watch_fraction_);
    fn(self.completed_);
  }

  std::vector<std::uint64_t> video_id_;
  std::vector<std::uint8_t> category_;
  std::vector<double> duration_;
  std::vector<double> watch_seconds_;
  std::vector<double> watch_fraction_;
  std::vector<std::uint8_t> completed_;
};

/// Preference-snapshot column: one contiguous lane per category, so the
/// per-category feature channels stream straight through a double array.
class PreferenceColumn : public RingColumnBase<PreferenceColumn> {
 public:
  using value_type = behavior::PreferenceVector;

  PreferenceColumn(std::size_t user_count, std::size_t capacity, double retain_s = 0.0,
                   std::size_t max_capacity = kMaxCapacity)
      : RingColumnBase(user_count, capacity, retain_s, max_capacity) {
    allocate_value_lanes();
  }

  void record(std::size_t u, util::SimTime t, const behavior::PreferenceVector& v) {
    const std::size_t at = push_slot(u, t);
    for (std::size_t c = 0; c < v.size(); ++c) {
      weights_[c][at] = v[c];
    }
  }

  value_type get(std::size_t u, std::size_t i) const { return at_slot(slot(u, i)); }

  value_type at_slot(std::size_t at) const {
    behavior::PreferenceVector v{};
    for (std::size_t c = 0; c < v.size(); ++c) {
      v[c] = weights_[c][at];
    }
    return v;
  }

  const std::vector<double>& lane(std::size_t category) const {
    return weights_[category];
  }

 private:
  friend class RingColumnBase<PreferenceColumn>;
  template <typename Self, typename Fn>
  static void value_lanes(Self& self, Fn&& fn) {
    for (auto& lane : self.weights_) {
      fn(lane);
    }
  }

  std::array<std::vector<double>, video::kCategoryCount> weights_;
};

}  // namespace dtmsv::twin
