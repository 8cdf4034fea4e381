// Link adaptation: SNR -> spectral efficiency, via the 15-level LTE CQI/MCS
// table or truncated Shannon capacity.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dtmsv::wireless {

/// One CQI table entry.
struct CqiEntry {
  double min_snr_db;   // lowest SNR at which this CQI is decodable
  double efficiency;   // bits/s/Hz delivered by its modulation+code rate
};

/// 15-level LTE CQI table (QPSK 78/1024 .. 64QAM 948/1024).
class CqiTable {
 public:
  CqiTable();

  /// CQI index in [0, 15]; 0 means out of range (no transmission).
  std::size_t cqi_for_snr(double snr_db) const;

  /// Spectral efficiency (bits/s/Hz) at the given SNR; 0 when below CQI 1.
  double efficiency(double snr_db) const;

  std::size_t level_count() const { return entries_.size(); }
  const CqiEntry& entry(std::size_t cqi) const;  // cqi in [1, 15]
  /// All levels, CQI 1 first; thresholds ascend.
  std::span<const CqiEntry> entries() const { return entries_; }

 private:
  std::vector<CqiEntry> entries_;  // index 0 <-> CQI 1
};

/// Truncated Shannon bound: eff = min(eff_max, alpha·log2(1 + snr)), with
/// snr linear. alpha models implementation loss.
double truncated_shannon(double snr_db, double alpha = 0.75, double eff_max = 5.55);

/// dB <-> linear helpers.
double db_to_linear(double db);
double linear_to_db(double linear);

}  // namespace dtmsv::wireless
