// Per-user downlink channel: combines path loss to the serving BS (strongest
// link), correlated shadowing, Rayleigh fading, and link adaptation into the
// per-user SNR / spectral-efficiency stream that feeds the UDTs.
//
// The model's definition is per link: PathLossModel::loss_db, one
// ShadowingProcess per (user, BS) link, one RayleighFading per user and
// linear_to_db. ChannelModel computes exactly that, bit for bit, with its
// state in structure-of-arrays form so that a tick runs 8 users per vector:
// a scalar pass takes the distances and each link's normal draws, then a
// vector pass runs the rest through util/vmath.hpp's log10/exp, the same
// kernel the per-link definitions call in scalar form.
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
  // Users per block: the scalar pass fills a block's scratch, then the
  // vector pass consumes it while it is still in L1.
  static constexpr std::size_t kBlock = 64;

  void seat(std::size_t user, util::Rng& rng);
  void draw_block(const std::vector<mobility::Position>& positions, std::size_t first,
                  std::size_t count);
  void advance_block(std::size_t first, std::size_t count);

  RadioConfig config_;
  std::vector<mobility::Position> bs_positions_;
  CqiTable cqi_;
  double noise_dbm_;
  FadingStep fading_step_;
  // user_count() rounded up to a whole number of packs, so the vector pass
  // never needs a scalar tail.
  std::size_t lanes_;
  // Link state: shadowing in dB, flat [bs × lanes_]; fading taps [lanes_];
  // each link's normal stream, flat [user × bs]; each user's fading stream.
  std::vector<double> shadow_db_;
  std::vector<double> tap_re_;
  std::vector<double> tap_im_;
  std::vector<util::Rng> link_rng_;
  std::vector<util::Rng> fading_rng_;
  // One block's scratch, [quantity × kBlock]: displacement since the last
  // tick, distance to each BS, and the normals (one per BS, then the
  // fading tap's re and im).
  std::vector<double> moved_;
  std::vector<double> distance_;
  std::vector<double> normal_;
  std::vector<mobility::Position> last_positions_;
  std::vector<ChannelSample> last_samples_;
  bool stepped_ = false;
};

}  // namespace dtmsv::wireless
