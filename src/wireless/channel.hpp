// Per-user downlink channel: combines path loss to the serving BS (strongest
// link), correlated shadowing, Rayleigh fading, and link adaptation into the
// per-user SNR / spectral-efficiency stream that feeds the UDTs.
#pragma once

#include <cstddef>
#include <vector>

#include "mobility/campus_map.hpp"
#include "wireless/cqi.hpp"
#include "wireless/fading.hpp"
#include "wireless/pathloss.hpp"

namespace dtmsv::wireless {

/// Radio parameters of the BS fleet.
struct RadioConfig {
  PathLossModel path_loss{};
  double tx_power_dbm = 43.0;        // macro BS
  double antenna_gain_db = 15.0;     // combined Tx+Rx gains
  double noise_figure_db = 7.0;
  double bandwidth_hz = 20e6;        // system bandwidth per BS
  double shadowing_sigma_db = 6.0;
  double shadowing_decorrelation_m = 50.0;
  double doppler_hz = 10.0;          // pedestrian at 2.6 GHz ≈ 10 Hz
  /// Spectral efficiency model: true -> CQI table, false -> truncated Shannon.
  bool use_cqi_table = true;
};

/// Thermal noise power in dBm over `bandwidth_hz` with the given noise figure.
double noise_power_dbm(double bandwidth_hz, double noise_figure_db);

/// One user's channel state at a sample instant.
struct ChannelSample {
  std::size_t serving_bs = 0;
  double snr_db = 0.0;
  double efficiency_bps_hz = 0.0;  // after link adaptation
};

/// Evolves every user's channel against the BS fleet.
class ChannelModel {
 public:
  /// `tick_s` is the simulated time between successive step() calls; the
  /// fading correlation over one step derives from it.
  ChannelModel(const mobility::CampusMap& map, const RadioConfig& config,
               std::size_t user_count, double tick_s, util::Rng& rng);

  /// Advances all users one tick given their current positions
  /// (positions.size() must equal user_count()).
  void step(const std::vector<mobility::Position>& positions);

  /// Re-draws one user's shadowing and fading processes from `rng` (a user
  /// handed over into this cell sees statistically fresh links; the old
  /// occupant's correlated state must not leak into the newcomer). The
  /// user's sample refreshes on the next step().
  void reset_user(std::size_t user, util::Rng& rng);

  std::size_t user_count() const { return last_samples_.size(); }
  std::size_t bs_count() const { return bs_positions_.size(); }

  /// Most recent sample of a user (requires at least one step()).
  const ChannelSample& sample_of(std::size_t user) const;

  const RadioConfig& config() const { return config_; }

 private:
  RadioConfig config_;
  double tick_s_;
  std::vector<mobility::Position> bs_positions_;
  CqiTable cqi_;
  double noise_dbm_;
  // Shadowing per (user, bs) link, flat [user × bs]; fading per user.
  std::vector<ShadowingProcess> shadowing_;
  std::vector<RayleighFading> fading_;
  std::vector<mobility::Position> last_positions_;
  std::vector<ChannelSample> last_samples_;
  bool stepped_ = false;
};

}  // namespace dtmsv::wireless
