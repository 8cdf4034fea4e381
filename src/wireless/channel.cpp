#include "wireless/channel.hpp"

#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace dtmsv::wireless {

double noise_power_dbm(double bandwidth_hz, double noise_figure_db) {
  DTMSV_EXPECTS(bandwidth_hz > 0.0);
  // Thermal floor: -174 dBm/Hz at 290 K.
  return -174.0 + 10.0 * std::log10(bandwidth_hz) + noise_figure_db;
}

ChannelModel::ChannelModel(const mobility::CampusMap& map, const RadioConfig& config,
                           std::size_t user_count, double tick_s, util::Rng& rng)
    : config_(config),
      tick_s_(tick_s),
      bs_positions_(map.base_stations()),
      noise_dbm_(noise_power_dbm(config.bandwidth_hz, config.noise_figure_db)) {
  DTMSV_EXPECTS(user_count > 0);
  DTMSV_EXPECTS(!bs_positions_.empty());
  DTMSV_EXPECTS(tick_s > 0.0);

  shadowing_.reserve(user_count * bs_positions_.size());
  fading_.reserve(user_count);
  for (std::size_t u = 0; u < user_count; ++u) {
    for (std::size_t b = 0; b < bs_positions_.size(); ++b) {
      shadowing_.emplace_back(config.shadowing_sigma_db,
                              config.shadowing_decorrelation_m, rng.fork(u * 131 + b));
    }
    fading_.emplace_back(config.doppler_hz, tick_s, rng.fork(0xFAD0 + u));
  }
  last_positions_.assign(user_count, {});
  last_samples_.assign(user_count, {});
}

void ChannelModel::step(const std::vector<mobility::Position>& positions) {
  DTMSV_EXPECTS_MSG(positions.size() == last_samples_.size(),
                    "ChannelModel::step: position count mismatch");

  const std::size_t sites = bs_positions_.size();
  for (std::size_t u = 0; u < positions.size(); ++u) {
    const double moved =
        stepped_ ? mobility::distance(positions[u], last_positions_[u]) : 0.0;
    const ShadowingStep ar1 = ShadowingProcess::coefficients(
        config_.shadowing_sigma_db, config_.shadowing_decorrelation_m, moved);
    ShadowingProcess* links = shadowing_.data() + u * sites;

    // Strongest-BS attachment on large-scale signal (path loss + shadowing).
    double best_rx_dbm = -std::numeric_limits<double>::infinity();
    std::size_t best_bs = 0;
    for (std::size_t b = 0; b < sites; ++b) {
      const double d = mobility::distance(positions[u], bs_positions_[b]);
      const double shadow_db = links[b].step(ar1);
      const double rx_dbm = config_.tx_power_dbm + config_.antenna_gain_db -
                            config_.path_loss.loss_db(d) - shadow_db;
      if (rx_dbm > best_rx_dbm) {
        best_rx_dbm = rx_dbm;
        best_bs = b;
      }
    }

    const double fading_db = linear_to_db(fading_[u].step());
    const double snr_db = best_rx_dbm + fading_db - noise_dbm_;

    ChannelSample sample;
    sample.serving_bs = best_bs;
    sample.snr_db = snr_db;
    sample.efficiency_bps_hz = config_.use_cqi_table
                                   ? cqi_.efficiency(snr_db)
                                   : truncated_shannon(snr_db);
    last_samples_[u] = sample;
    last_positions_[u] = positions[u];
  }
  stepped_ = true;
}

void ChannelModel::reset_user(std::size_t user, util::Rng& rng) {
  DTMSV_EXPECTS(user < last_samples_.size());
  ShadowingProcess* links = shadowing_.data() + user * bs_positions_.size();
  for (std::size_t b = 0; b < bs_positions_.size(); ++b) {
    links[b] = ShadowingProcess(config_.shadowing_sigma_db,
                                config_.shadowing_decorrelation_m,
                                rng.fork(user * 131 + b));
  }
  fading_[user] = RayleighFading(config_.doppler_hz, tick_s_, rng.fork(0xFAD0 + user));
}

const ChannelSample& ChannelModel::sample_of(std::size_t user) const {
  DTMSV_EXPECTS(user < last_samples_.size());
  DTMSV_EXPECTS_MSG(stepped_, "ChannelModel: no samples yet; call step() first");
  return last_samples_[user];
}

}  // namespace dtmsv::wireless
