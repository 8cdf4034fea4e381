#include "wireless/cqi.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/vmath.hpp"

namespace dtmsv::wireless {

CqiTable::CqiTable() {
  // 3GPP 36.213 Table 7.2.3-1 efficiencies with commonly used BLER-10%
  // SNR switching thresholds.
  entries_ = {
      {-6.7, 0.1523},  // CQI 1  QPSK 78/1024
      {-4.7, 0.2344},  // CQI 2
      {-2.3, 0.3770},  // CQI 3
      {0.2, 0.6016},   // CQI 4
      {2.4, 0.8770},   // CQI 5
      {4.3, 1.1758},   // CQI 6
      {5.9, 1.4766},   // CQI 7  16QAM
      {8.1, 1.9141},   // CQI 8
      {10.3, 2.4063},  // CQI 9
      {11.7, 2.7305},  // CQI 10 64QAM
      {14.1, 3.3223},  // CQI 11
      {16.3, 3.9023},  // CQI 12
      {18.7, 4.5234},  // CQI 13
      {21.0, 5.1152},  // CQI 14
      {22.7, 5.5547},  // CQI 15
  };
}

std::size_t CqiTable::cqi_for_snr(double snr_db) const {
  // Thresholds ascend, so the levels met are a prefix: count them without
  // a data-dependent branch.
  std::size_t cqi = 0;
  for (const CqiEntry& e : entries_) {
    cqi += snr_db >= e.min_snr_db ? 1 : 0;
  }
  return cqi;
}

double CqiTable::efficiency(double snr_db) const {
  const std::size_t cqi = cqi_for_snr(snr_db);
  return cqi == 0 ? 0.0 : entries_[cqi - 1].efficiency;
}

const CqiEntry& CqiTable::entry(std::size_t cqi) const {
  DTMSV_EXPECTS(cqi >= 1 && cqi <= entries_.size());
  return entries_[cqi - 1];
}

double db_to_linear(double db) { return std::pow(10.0, db / 10.0); }

double linear_to_db(double linear) {
  return 10.0 * util::vmath::log10(std::max(linear, 1e-30));
}

}  // namespace dtmsv::wireless
