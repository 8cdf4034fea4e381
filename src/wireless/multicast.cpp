#include "wireless/multicast.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace dtmsv::wireless {

MulticastPhy::MulticastPhy(double min_efficiency_floor) : floor_(min_efficiency_floor) {
  DTMSV_EXPECTS(min_efficiency_floor > 0.0);
}

double MulticastPhy::group_efficiency(std::span<const double> member_efficiencies) const {
  DTMSV_EXPECTS_MSG(!member_efficiencies.empty(),
                    "group_efficiency: empty multicast group");
  double worst = member_efficiencies[0];
  for (const double e : member_efficiencies) {
    DTMSV_EXPECTS(e >= 0.0);
    worst = std::min(worst, e);
  }
  return std::max(worst, floor_);
}

double MulticastPhy::required_bandwidth_hz(double bitrate_kbps, double efficiency) const {
  DTMSV_EXPECTS(bitrate_kbps >= 0.0);
  DTMSV_EXPECTS(efficiency > 0.0);
  return bitrate_kbps * 1e3 / efficiency;
}

std::size_t MulticastPhy::sustainable_rung(std::span<const double> ladder_kbps,
                                           double efficiency,
                                           double bandwidth_budget_hz) const {
  DTMSV_EXPECTS(!ladder_kbps.empty());
  DTMSV_EXPECTS(efficiency > 0.0);
  DTMSV_EXPECTS(bandwidth_budget_hz > 0.0);
  const double budget_kbps = bandwidth_budget_hz * efficiency / 1e3;
  std::size_t best = 0;
  for (std::size_t i = 0; i < ladder_kbps.size(); ++i) {
    DTMSV_EXPECTS(i == 0 || ladder_kbps[i] > ladder_kbps[i - 1]);
    if (ladder_kbps[i] <= budget_kbps) {
      best = i;
    }
  }
  return best;
}

}  // namespace dtmsv::wireless
