#include "wireless/channel.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"
#include "util/simd.hpp"
#include "util/vmath.hpp"

namespace dtmsv::wireless {

namespace {
using Pack = util::simd::pack<double, util::simd::default_backend>;
}  // namespace

double noise_power_dbm(double bandwidth_hz, double noise_figure_db) {
  DTMSV_EXPECTS(bandwidth_hz > 0.0);
  // Thermal floor: -174 dBm/Hz at 290 K.
  return -174.0 + 10.0 * util::vmath::log10(bandwidth_hz) + noise_figure_db;
}

ChannelModel::ChannelModel(const mobility::CampusMap& map, const RadioConfig& config,
                           std::size_t user_count, double tick_s, util::Rng& rng)
    : config_(config),
      bs_positions_(map.base_stations()),
      noise_dbm_(noise_power_dbm(config.bandwidth_hz, config.noise_figure_db)),
      fading_step_(RayleighFading::coefficients(config.doppler_hz, tick_s)),
      lanes_((user_count + Pack::width - 1) / Pack::width * Pack::width) {
  static_assert(kBlock % Pack::width == 0, "blocks hold whole packs");
  DTMSV_EXPECTS(user_count > 0);
  DTMSV_EXPECTS(!bs_positions_.empty());
  DTMSV_EXPECTS(tick_s > 0.0);
  DTMSV_EXPECTS(config.path_loss.reference_m > 0.0);
  DTMSV_EXPECTS(config.shadowing_sigma_db >= 0.0);
  DTMSV_EXPECTS(config.shadowing_decorrelation_m > 0.0);

  const std::size_t sites = bs_positions_.size();
  shadow_db_.assign(sites * lanes_, 0.0);
  tap_re_.assign(lanes_, 0.0);
  tap_im_.assign(lanes_, 0.0);
  link_rng_.resize(user_count * sites);
  fading_rng_.resize(user_count);
  for (std::size_t u = 0; u < user_count; ++u) {
    seat(u, rng);
  }
  moved_.assign(kBlock, 0.0);
  distance_.assign(sites * kBlock, 0.0);
  normal_.assign((sites + 2) * kBlock, 0.0);
  last_positions_.assign(user_count, {});
  last_samples_.assign(user_count, {});
}

// Each link's initial state is its per-link constructor's: ShadowingProcess
// draws value = normal(0, sigma) from its fork, RayleighFading draws re then
// im from its own. The forks run in the per-link order (BS 0.., fading).
void ChannelModel::seat(std::size_t user, util::Rng& rng) {
  const std::size_t sites = bs_positions_.size();
  for (std::size_t b = 0; b < sites; ++b) {
    util::Rng& link = link_rng_[user * sites + b];
    link = rng.fork(user * 131 + b);
    shadow_db_[b * lanes_ + user] = link.normal(0.0, config_.shadowing_sigma_db);
  }
  util::Rng& fading = fading_rng_[user];
  fading = rng.fork(0xFAD0 + user);
  tap_re_[user] = fading.normal(0.0, RayleighFading::kTapSigma);
  tap_im_[user] = fading.normal(0.0, RayleighFading::kTapSigma);
}

void ChannelModel::step(const std::vector<mobility::Position>& positions) {
  DTMSV_EXPECTS_MSG(positions.size() == last_samples_.size(),
                    "ChannelModel::step: position count mismatch");
  for (std::size_t first = 0; first < positions.size(); first += kBlock) {
    const std::size_t count = std::min(kBlock, positions.size() - first);
    draw_block(positions, first, count);
    advance_block(first, count);
  }
  stepped_ = true;
}

// Scalar pass: everything that is not lane-wise arithmetic. Distances go
// through mobility::distance and each link's normal comes from its own
// stream in the per-link order (one per shadowing link, then re and im).
void ChannelModel::draw_block(const std::vector<mobility::Position>& positions,
                              std::size_t first, std::size_t count) {
  const std::size_t sites = bs_positions_.size();
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t u = first + i;
    const double moved =
        stepped_ ? mobility::distance(positions[u], last_positions_[u]) : 0.0;
    DTMSV_EXPECTS(moved >= 0.0);  // also rejects NaN positions
    moved_[i] = moved;
    util::Rng* links = link_rng_.data() + u * sites;
    for (std::size_t b = 0; b < sites; ++b) {
      const double d = mobility::distance(positions[u], bs_positions_[b]);
      DTMSV_EXPECTS(d >= 0.0);
      distance_[b * kBlock + i] = d;
      normal_[b * kBlock + i] = links[b].normal();
    }
    normal_[sites * kBlock + i] = fading_rng_[u].normal();
    normal_[(sites + 1) * kBlock + i] = fading_rng_[u].normal();
    last_positions_[u] = positions[u];
  }
}

// Vector pass: the per-link definitions, lane by lane, each expression
// grouped and fused (madd) as its scalar original is. std::max(a, b) is
// select_gt(b, a, b, a); normal(0, s) is 0 + s·z, i.e. madd(s, z, 0). No
// plain product feeds a sum, so FP contraction cannot reorder a rounding
// (see util/simd.hpp). Lanes past `count` run on stale in-domain scratch
// and padding state, and are never read.
void ChannelModel::advance_block(std::size_t first, std::size_t count) {
  using P = Pack;
  const std::size_t sites = bs_positions_.size();
  const PathLossModel& path_loss = config_.path_loss;
  const P zero = P::zero();
  const P one = P::broadcast(1.0);
  const P neg_decorrelation = P::broadcast(-config_.shadowing_decorrelation_m);
  const P sigma = P::broadcast(config_.shadowing_sigma_db);
  const P reference = P::broadcast(path_loss.reference_m);
  const P pl_ref = P::broadcast(path_loss.pl_ref_db);
  const P slope = P::broadcast(10.0 * path_loss.exponent);
  const P eirp = P::broadcast(config_.tx_power_dbm + config_.antenna_gain_db);
  const P fading_rho = P::broadcast(fading_step_.rho);
  const P fading_innovation = P::broadcast(fading_step_.innovation);
  const P tap_sigma = P::broadcast(RayleighFading::kTapSigma);
  const P power_floor = P::broadcast(1e-30);
  const P noise = P::broadcast(noise_dbm_);

  for (std::size_t i = 0; i < count; i += P::width) {
    // ShadowingProcess::coefficients: rho = exp(-moved / d_corr) and
    // sigma·sqrt(max(0, 1 - rho²)), once per user for all its links.
    const P rho = util::vmath::exp(P::load(&moved_[i]) / neg_decorrelation);
    const P decay = P::madd(zero - rho, rho, one);
    const P innovation = sigma * sqrt(select_gt(decay, zero, decay, zero));

    // Strongest-BS attachment on large-scale signal (path loss + shadowing);
    // ties keep the lower BS index.
    P best_rx = P::broadcast(-std::numeric_limits<double>::infinity());
    P serving = zero;
    for (std::size_t b = 0; b < sites; ++b) {
      const P d = P::load(&distance_[b * kBlock + i]);
      const P loss = P::madd(
          slope, util::vmath::log10(select_gt(reference, d, reference, d) / reference), pl_ref);
      double* shadow = &shadow_db_[b * lanes_ + first + i];
      const P shadow_db = P::madd(rho, P::load(shadow),
                                  P::madd(innovation, P::load(&normal_[b * kBlock + i]), zero));
      shadow_db.store(shadow);
      const P rx = (eirp - loss) - shadow_db;
      serving = select_gt(rx, best_rx, P::broadcast(static_cast<double>(b)), serving);
      best_rx = select_gt(rx, best_rx, rx, best_rx);
    }

    // RayleighFading::step, then linear_to_db of the tap power.
    const P re = P::madd(
        fading_rho, P::load(&tap_re_[first + i]),
        fading_innovation * P::madd(tap_sigma, P::load(&normal_[sites * kBlock + i]), zero));
    const P im = P::madd(
        fading_rho, P::load(&tap_im_[first + i]),
        fading_innovation * P::madd(tap_sigma, P::load(&normal_[(sites + 1) * kBlock + i]), zero));
    re.store(&tap_re_[first + i]);
    im.store(&tap_im_[first + i]);
    const P power = P::madd(re, re, im * im);
    // linear_to_db rounds 10·log10(p) before the caller adds it.
    const P fading_db = P::madd(
        P::broadcast(10.0),
        util::vmath::log10(select_gt(power_floor, power, power_floor, power)), zero);
    const P snr = (best_rx + fading_db) - noise;

    // CqiTable::efficiency: the thresholds ascend, so the last level met
    // is the count of levels met.
    P efficiency = zero;
    for (const CqiEntry& entry : cqi_.entries()) {
      efficiency = select_ge(snr, P::broadcast(entry.min_snr_db),
                             P::broadcast(entry.efficiency), efficiency);
    }

    double serving_lanes[P::width];
    double snr_lanes[P::width];
    double efficiency_lanes[P::width];
    serving.store(serving_lanes);
    snr.store(snr_lanes);
    efficiency.store(efficiency_lanes);
    for (std::size_t l = 0; l < P::width && i + l < count; ++l) {
      ChannelSample& sample = last_samples_[first + i + l];
      sample.serving_bs = static_cast<std::size_t>(serving_lanes[l]);
      sample.snr_db = snr_lanes[l];
      sample.efficiency_bps_hz = efficiency_lanes[l];
    }
  }
}

void ChannelModel::reset_user(std::size_t user, util::Rng& rng) {
  DTMSV_EXPECTS(user < last_samples_.size());
  seat(user, rng);
}

const ChannelSample& ChannelModel::sample_of(std::size_t user) const {
  DTMSV_EXPECTS(user < last_samples_.size());
  DTMSV_EXPECTS_MSG(stepped_, "ChannelModel: no samples yet; call step() first");
  return last_samples_[user];
}

}  // namespace dtmsv::wireless
