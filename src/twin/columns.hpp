// Columnar twin storage: per-attribute SoA ring buffers.
//
// The seed kept one std::deque<Stamped<T>> per attribute per user — every
// window scan chased deque blocks and every handover reallocated a whole
// UserDigitalTwin. Here each attribute holds ONE contiguous time column and
// one contiguous column per value field, spanning all users with a fixed
// `capacity` stride: user u's slots live at [u*capacity, (u+1)*capacity),
// managed as a ring (head + size, oldest evicted first). Per-user times are
// non-decreasing and finite (push_slot enforces both), so a windowed read
// (for_each_slot_in) binary-searches the ring for its first sample and walks
// only the window: O(log capacity + samples in window), whatever the
// retention. Extraction kernels scan plain double arrays; reset_user is slot
// recycling (ring emptied, no allocation, nothing freed) instead of object
// replacement.
//
// SeriesView<Column> adapts one user's ring back to the AttributeSeries
// surface (size/latest/window/staleness/iteration, values materialised as
// Stamped<T> on access), so twin consumers — channel predictors, swiping
// aggregation, tests — read either storage through the same idioms,
// including the eviction-truncation contract (truncated_before /
// window_query, see twin/series.hpp).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "behavior/preference.hpp"
#include "mobility/campus_map.hpp"
#include "twin/observations.hpp"
#include "twin/series.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace dtmsv::twin {

/// Ring bookkeeping shared by every attribute column: the time column, the
/// per-user {head, size} ring state, and the eviction metadata backing the
/// truncation contract. Value columns live in the derived classes.
class RingColumnBase {
 public:
  RingColumnBase(std::size_t user_count, std::size_t capacity)
      : capacity_(capacity),
        rings_(user_count),
        times_(user_count * capacity, 0.0),
        last_evicted_(user_count, 0.0),
        evicted_(user_count, 0) {
    DTMSV_EXPECTS(capacity > 0);
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

 protected:
  /// Claims the write slot for a new sample of `u` at `t` (finite and
  /// non-decreasing within the user), evicting the oldest sample when the
  /// ring is full.
  std::size_t push_slot(std::size_t u, util::SimTime t) {
    DTMSV_EXPECTS_MSG(std::isfinite(t), "twin column: timestamps must be finite");
    Ring& r = rings_[u];
    DTMSV_EXPECTS_MSG(
        r.size == 0 || t >= times_[u * capacity_ + (r.head + r.size - 1) % capacity_],
        "twin column: timestamps must be non-decreasing");
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

  std::size_t capacity_;
  std::vector<Ring> rings_;
  std::vector<double> times_;
  std::vector<double> last_evicted_;
  std::vector<std::uint8_t> evicted_;
};

/// Channel condition column: snr / spectral efficiency / serving BS.
class ChannelColumn : public RingColumnBase {
 public:
  using value_type = ChannelObservation;

  ChannelColumn(std::size_t user_count, std::size_t capacity)
      : RingColumnBase(user_count, capacity),
        snr_(user_count * capacity, 0.0),
        efficiency_(user_count * capacity, 0.0),
        serving_bs_(user_count * capacity, 0) {}

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
  std::vector<double> snr_;
  std::vector<double> efficiency_;
  std::vector<std::uint32_t> serving_bs_;
};

/// Location column: campus position reports.
class LocationColumn : public RingColumnBase {
 public:
  using value_type = mobility::Position;

  LocationColumn(std::size_t user_count, std::size_t capacity)
      : RingColumnBase(user_count, capacity),
        x_(user_count * capacity, 0.0),
        y_(user_count * capacity, 0.0) {}

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
  std::vector<double> x_;
  std::vector<double> y_;
};

/// Watch-event column: one finished view per sample.
class WatchColumn : public RingColumnBase {
 public:
  using value_type = WatchObservation;

  WatchColumn(std::size_t user_count, std::size_t capacity)
      : RingColumnBase(user_count, capacity),
        video_id_(user_count * capacity, 0),
        category_(user_count * capacity, 0),
        duration_(user_count * capacity, 0.0),
        watch_seconds_(user_count * capacity, 0.0),
        watch_fraction_(user_count * capacity, 0.0),
        completed_(user_count * capacity, 0) {}

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
  std::vector<std::uint64_t> video_id_;
  std::vector<std::uint8_t> category_;
  std::vector<double> duration_;
  std::vector<double> watch_seconds_;
  std::vector<double> watch_fraction_;
  std::vector<std::uint8_t> completed_;
};

/// Preference-snapshot column: one contiguous lane per category, so the
/// per-category feature channels stream straight through a double array.
class PreferenceColumn : public RingColumnBase {
 public:
  using value_type = behavior::PreferenceVector;

  PreferenceColumn(std::size_t user_count, std::size_t capacity)
      : RingColumnBase(user_count, capacity) {
    for (auto& lane : weights_) {
      lane.assign(user_count * capacity, 0.0);
    }
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
  std::array<std::vector<double>, video::kCategoryCount> weights_;
};

/// Read view of one user's ring inside a column, with the AttributeSeries
/// query surface. Values are materialised Stamped<T> copies — the view
/// never exposes interior pointers, so it stays valid across appends (it
/// re-reads the ring on every call) and costs nothing to copy.
template <typename Column>
class SeriesView {
 public:
  using value_type = Stamped<typename Column::value_type>;

  SeriesView(const Column* column, std::size_t user)
      : column_(column), user_(user) {}

  std::size_t size() const { return column_->size(user_); }
  bool empty() const { return column_->empty(user_); }
  std::size_t capacity() const { return column_->capacity(); }

  value_type operator[](std::size_t i) const {
    return {column_->time(user_, i), column_->get(user_, i)};
  }

  value_type latest() const {
    DTMSV_EXPECTS(!empty());
    return (*this)[size() - 1];
  }

  value_type oldest() const {
    DTMSV_EXPECTS(!empty());
    return (*this)[0];
  }

  bool truncated_before(util::SimTime from) const {
    return column_->truncated_before(user_, from);
  }

  /// Samples with time in [from, to), oldest first.
  std::vector<value_type> window(util::SimTime from, util::SimTime to) const {
    DTMSV_EXPECTS(from <= to);
    std::vector<value_type> out;
    const std::vector<double>& times = column_->times();
    column_->for_each_slot_in(user_, from, to, [&](std::size_t at) {
      out.push_back({times[at], column_->at_slot(at)});
    });
    return out;
  }

  /// Window query reporting eviction truncation (twin/series.hpp contract).
  WindowQuery<typename Column::value_type> window_query(util::SimTime from,
                                                        util::SimTime to) const {
    return {window(from, to), truncated_before(from)};
  }

  /// Age of the newest sample relative to `now`; +inf when empty.
  double staleness(util::SimTime now) const {
    if (empty()) {
      return std::numeric_limits<double>::infinity();
    }
    return std::max(0.0, now - column_->time(user_, size() - 1));
  }

  /// Forward iterator yielding Stamped<T> by value (oldest -> newest).
  class const_iterator {
   public:
    using value_type = SeriesView::value_type;
    using difference_type = std::ptrdiff_t;

    const_iterator() = default;
    const_iterator(const SeriesView* view, std::size_t i) : view_(view), i_(i) {}

    value_type operator*() const { return (*view_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    const SeriesView* view_ = nullptr;
    std::size_t i_ = 0;
  };

  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

 private:
  const Column* column_;
  std::size_t user_;
};

using ChannelSeries = SeriesView<ChannelColumn>;
using LocationSeries = SeriesView<LocationColumn>;
using WatchSeries = SeriesView<WatchColumn>;
using PreferenceSeries = SeriesView<PreferenceColumn>;

}  // namespace dtmsv::twin
