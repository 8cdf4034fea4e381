// Bounded ingestion queue for the always-on serving mode (core/serve.hpp).
//
// Twin status reports arrive as TwinEvents and wait here until the serve
// loop drains them into the columnar store at the next interval boundary.
// The queue is the backpressure point: capacity is fixed up front, and when
// a producer outruns the drain the *oldest* queued event is shed to admit
// the newcomer (freshest-data-wins — a stale channel sample is worth less
// to the next prediction than the one that just arrived), with every shed
// counted so the loop can surface exact drop totals through the sink.
//
// Modelled on the event-queue idiom of arbor's time_sequence/generic_event
// headers: producers push in nondecreasing time order, the consumer pops
// everything up to a time horizon ("marks until t") per interval. Plain
// single-threaded ring buffer — the serve loop is the only consumer and
// ingestion happens between predictions, so no locks are needed and the
// drain order (and therefore the whole pipeline) stays bit-deterministic.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mobility/campus_map.hpp"
#include "twin/observations.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace dtmsv::core {

/// One uplink status report on its way into the twin columns. Exactly one
/// of the payload members is meaningful, selected by `kind` (a tagged
/// union spelled as a struct: the payloads are tiny PODs, and keeping the
/// ring's slots trivially copyable matters more than the few spare bytes).
struct TwinEvent {
  enum class Kind : std::uint8_t { kChannel, kLocation, kWatch };

  Kind kind = Kind::kChannel;
  std::uint32_t user = 0;
  util::SimTime time = 0.0;
  twin::ChannelObservation channel{};
  mobility::Position position{};
  twin::WatchObservation watch{};

  static TwinEvent channel_report(std::uint32_t user, util::SimTime time,
                                  const twin::ChannelObservation& obs) {
    TwinEvent e;
    e.kind = Kind::kChannel;
    e.user = user;
    e.time = time;
    e.channel = obs;
    return e;
  }
  static TwinEvent location_report(std::uint32_t user, util::SimTime time,
                                   const mobility::Position& pos) {
    TwinEvent e;
    e.kind = Kind::kLocation;
    e.user = user;
    e.time = time;
    e.position = pos;
    return e;
  }
  static TwinEvent watch_report(std::uint32_t user, util::SimTime time,
                                const twin::WatchObservation& obs) {
    TwinEvent e;
    e.kind = Kind::kWatch;
    e.user = user;
    e.time = time;
    e.watch = obs;
    return e;
  }
};

/// Lifetime counters of one EventQueue.
struct EventQueueStats {
  std::uint64_t offered = 0;  // push() calls
  std::uint64_t dropped = 0;  // events shed to admit newer ones
  std::uint64_t drained = 0;  // events handed to a drain_until consumer
};

class EventQueue {
 public:
  explicit EventQueue(std::size_t capacity) : ring_(capacity) {
    DTMSV_EXPECTS_MSG(capacity > 0, "EventQueue: capacity must be positive");
  }

  std::size_t capacity() const { return ring_.size(); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const EventQueueStats& stats() const { return stats_; }

  /// Admits `event`. Producers must push finite times in nondecreasing
  /// order (checked: a NaN time would never drain and would fail every
  /// later order check). When the queue is full the oldest queued event is
  /// shed to make room and counted in stats().dropped — the newcomer is
  /// always admitted.
  void push(const TwinEvent& event) {
    DTMSV_EXPECTS_MSG(std::isfinite(event.time), "EventQueue: event time must be finite");
    DTMSV_EXPECTS_MSG(size_ == 0 || ring_[wrap(head_ + size_ - 1)].time <= event.time,
                      "EventQueue: events must arrive in nondecreasing time order");
    ++stats_.offered;
    if (size_ == ring_.size()) {
      head_ = next(head_);
      --size_;
      ++stats_.dropped;
    }
    ring_[wrap(head_ + size_)] = event;
    ++size_;
  }

  /// Hands every queued event with time <= `horizon` to `consume` in
  /// arrival order and removes it, stopping at the first newer event.
  /// Returns the number of events drained.
  template <typename F>
  std::size_t drain_until(util::SimTime horizon, F&& consume) {
    std::size_t drained = 0;
    while (size_ > 0 && ring_[head_].time <= horizon) {
      consume(ring_[head_]);
      head_ = next(head_);
      --size_;
      ++drained;
    }
    stats_.drained += drained;
    return drained;
  }

 private:
  std::size_t next(std::size_t i) const { return i + 1 == ring_.size() ? 0 : i + 1; }
  std::size_t wrap(std::size_t i) const {
    return i >= ring_.size() ? i - ring_.size() : i;
  }

  std::vector<TwinEvent> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  EventQueueStats stats_;
};

}  // namespace dtmsv::core
