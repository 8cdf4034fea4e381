// Multicast PHY accounting: a multicast stream must be decodable by every
// group member, so the group's spectral efficiency is the worst member's.
// Radio resource demand is the bandwidth (or resource blocks) needed to
// carry the group's video bitrate at that efficiency.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "wireless/channel.hpp"

namespace dtmsv::wireless {

/// Multicast rate/resource calculator.
class MulticastPhy {
 public:
  /// `min_efficiency_floor` guards division for members in outage; a group
  /// containing an out-of-range member falls back to this efficiency
  /// (retransmissions/raptor coding in practice).
  explicit MulticastPhy(double min_efficiency_floor = 0.05);

  /// Group spectral efficiency: the minimum member efficiency, floored.
  /// Requires a non-empty member list.
  double group_efficiency(std::span<const double> member_efficiencies) const;

  /// Bandwidth in Hz needed to multicast `bitrate_kbps` at `efficiency`.
  double required_bandwidth_hz(double bitrate_kbps, double efficiency) const;

  /// Highest ladder rung sustainable within `bandwidth_budget_hz` for a
  /// group at `efficiency`; returns the rung index (0 = lowest).
  std::size_t sustainable_rung(std::span<const double> ladder_kbps,
                               double efficiency, double bandwidth_budget_hz) const;

  double min_efficiency_floor() const { return floor_; }

 private:
  double floor_;
};

}  // namespace dtmsv::wireless
