#include "core/fleet.hpp"

#include <cmath>
#include <optional>

#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace dtmsv::core {

namespace {

/// Shard seed derived from the fleet seed and the shard's creation index:
/// a pure function of the pair, so shard streams never depend on thread
/// count or on when surge shards join.
std::uint64_t shard_seed(std::uint64_t fleet_seed, std::uint64_t seq) {
  util::SplitMix64 sm(fleet_seed ^ (0xD1B54A32D192ED03ULL * (seq + 1)));
  return sm.next();
}

/// Per-shard streaming accumulator used in the parallel phase. Reduces the
/// shard's interval to the ShardSummary scalars and the per-group error
/// distribution on the fly; only when a caller sink is attached does it
/// additionally buffer the stream for the deterministic fixed-order replay
/// after the barrier.
class ShardAccumulator final : public ReportSink {
 public:
  void enable_buffering() { buffering_ = true; }

  void on_group(const GroupReport& group, util::IntervalId interval) override {
    if (group.actual_radio_hz > 0.0) {
      group_error.add(std::abs(group.predicted_radio_hz - group.actual_radio_hz) /
                      group.actual_radio_hz);
    }
    if (buffering_) {
      buffered_groups_.push_back(group);
      buffered_group_intervals_.push_back(interval);
    }
  }

  void on_interval(const EpochReport& report) override {
    summary.grouped = report.grouped;
    summary.has_prediction = report.has_prediction;
    summary.k = report.k;
    summary.silhouette = report.silhouette;
    summary.predicted_radio_hz_total = report.predicted_radio_hz_total;
    summary.actual_radio_hz_total = report.actual_radio_hz_total;
    summary.predicted_compute_total = report.predicted_compute_total;
    summary.actual_compute_total = report.actual_compute_total;
    summary.unicast_radio_hz_total = report.unicast_radio_hz_total;
    summary.radio_error = report.radio_error;
    summary.compute_error = report.compute_error;
    if (buffering_) {
      buffered_interval_ = report;
    }
  }

  /// Replays the buffered stream into the caller's sink (fixed shard order).
  void replay(ReportSink& sink) const {
    for (std::size_t i = 0; i < buffered_groups_.size(); ++i) {
      sink.on_group(buffered_groups_[i], buffered_group_intervals_[i]);
    }
    if (buffered_interval_.has_value()) {
      sink.on_interval(*buffered_interval_);
    }
  }

  ShardSummary summary;
  util::RunningStats group_error;

 private:
  bool buffering_ = false;
  std::vector<GroupReport> buffered_groups_;
  std::vector<util::IntervalId> buffered_group_intervals_;
  std::optional<EpochReport> buffered_interval_;
};

}  // namespace

void validate(const FleetConfig& config) {
  DTMSV_EXPECTS_MSG(config.cell_count > 0, "FleetConfig: cell_count must be > 0");
  DTMSV_EXPECTS_MSG(config.total_users >= config.cell_count,
                    "FleetConfig: every cell needs at least one user");
  validate(config.base);
}

SimulationFleet::SimulationFleet(const FleetConfig& config)
    : config_((validate(config), config)),
      churn_rng_(util::SplitMix64(config.seed ^ 0xF1EE7C0DEULL).next()) {
  shards_.reserve(config.cell_count);
  const std::size_t per_cell = config.total_users / config.cell_count;
  const std::size_t extra = config.total_users % config.cell_count;
  for (std::size_t c = 0; c < config.cell_count; ++c) {
    add_shard(c, per_cell + (c < extra ? 1 : 0));
  }
}

void SimulationFleet::add_shard(std::size_t cell, std::size_t users) {
  DTMSV_EXPECTS(cell < config_.cell_count);
  DTMSV_EXPECTS(users > 0);
  SchemeConfig cfg = config_.base;
  cfg.user_count = users;
  cfg.seed = shard_seed(config_.seed, shard_seq_++);
  Shard shard;
  shard.cell = cell;
  shard.sim = std::make_unique<Simulation>(cfg);
  shards_.push_back(std::move(shard));
}

void SimulationFleet::add_surge_shard(std::size_t cell, std::size_t users) {
  add_shard(cell, users);
}

std::size_t SimulationFleet::user_count() const {
  std::size_t total = 0;
  for (const auto& s : shards_) {
    total += s.sim->config().user_count;
  }
  return total;
}

Simulation& SimulationFleet::shard(std::size_t i) {
  DTMSV_EXPECTS(i < shards_.size());
  return *shards_[i].sim;
}

const Simulation& SimulationFleet::shard(std::size_t i) const {
  DTMSV_EXPECTS(i < shards_.size());
  return *shards_[i].sim;
}

std::size_t SimulationFleet::shard_cell(std::size_t i) const {
  DTMSV_EXPECTS(i < shards_.size());
  return shards_[i].cell;
}

FleetReport SimulationFleet::run_interval(ReportSink* sink) {
  FleetReport report;
  report.interval = interval_;
  report.cell_count = config_.cell_count;
  std::vector<ShardAccumulator> accumulators(shards_.size());
  if (sink != nullptr) {
    for (auto& acc : accumulators) {
      acc.enable_buffering();
    }
  }

  // Parallel phase: each worker owns a disjoint shard range, streams its
  // shards' reports into their private accumulators, and any parallel_for a
  // shard's pipeline issues runs inline on that worker (the pool is
  // reentrancy-safe but not nested-parallel). No cross-shard state is
  // touched; nothing is materialized beyond the per-shard scalars.
  util::parallel_for(0, shards_.size(), 1,
                     [&](std::size_t lo, std::size_t hi) {
                       for (std::size_t s = lo; s < hi; ++s) {
                         shards_[s].sim->run_interval(accumulators[s]);
                       }
                     });

  // Aggregation walks shards in fixed index order — never completion
  // order — so the report (and any sink replay) is independent of
  // scheduling and thread count.
  report.shards.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardAccumulator& acc = accumulators[s];
    acc.summary.cell = shards_[s].cell;
    acc.summary.users = shards_[s].sim->config().user_count;
    const ShardSummary& summary = acc.summary;
    report.user_count += summary.users;
    report.predicted_radio_hz_total += summary.predicted_radio_hz_total;
    report.actual_radio_hz_total += summary.actual_radio_hz_total;
    report.predicted_compute_total += summary.predicted_compute_total;
    report.actual_compute_total += summary.actual_compute_total;
    report.unicast_radio_hz_total += summary.unicast_radio_hz_total;
    if (summary.grouped) {
      ++report.grouped_shards;
    }
    if (summary.has_prediction) {
      report.shard_radio_error.add(summary.radio_error);
      report.shard_compute_error.add(summary.compute_error);
    }
    report.group_radio_error.merge(acc.group_error);
    if (sink != nullptr) {
      acc.replay(*sink);
    }
    report.shards.push_back(summary);
  }
  if (report.actual_radio_hz_total > 0.0) {
    report.radio_error =
        std::abs(report.predicted_radio_hz_total - report.actual_radio_hz_total) /
        report.actual_radio_hz_total;
  }
  if (report.actual_compute_total > 0.0) {
    report.compute_error =
        std::abs(report.predicted_compute_total - report.actual_compute_total) /
        report.actual_compute_total;
  }

  ++interval_;
  return report;
}

std::size_t SimulationFleet::churn(double fraction, ReportSink* sink) {
  DTMSV_EXPECTS(fraction >= 0.0 && fraction <= 1.0);
  if (shards_.size() < 2) {
    return 0;
  }
  const auto pairs = static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(user_count()) * 0.5));
  std::size_t handed_over = 0;
  std::vector<std::size_t> peers;  // shards in a different cell than a's
  for (std::size_t p = 0; p < pairs; ++p) {
    const auto a = static_cast<std::size_t>(churn_rng_.uniform_int(
        0, static_cast<std::int64_t>(shards_.size()) - 1));
    // Handovers are strictly inter-cell: the peer must live in a different
    // cell, not merely be a different shard (a surge shard shares its cell
    // with the base shard it joined).
    peers.clear();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (shards_[s].cell != shards_[a].cell) {
        peers.push_back(s);
      }
    }
    if (peers.empty()) {
      return handed_over;  // single-cell fleet: nowhere to hand over to
    }
    const std::size_t b = peers[static_cast<std::size_t>(churn_rng_.uniform_int(
        0, static_cast<std::int64_t>(peers.size()) - 1))];
    const auto slot_a = static_cast<std::size_t>(churn_rng_.uniform_int(
        0, static_cast<std::int64_t>(shards_[a].sim->config().user_count) - 1));
    const auto slot_b = static_cast<std::size_t>(churn_rng_.uniform_int(
        0, static_cast<std::int64_t>(shards_[b].sim->config().user_count) - 1));
    const behavior::PreferenceVector aff_a =
        shards_[a].sim->true_affinities()[slot_a];
    const behavior::PreferenceVector aff_b =
        shards_[b].sim->true_affinities()[slot_b];
    shards_[a].sim->handover_user(slot_a, aff_b);
    shards_[b].sim->handover_user(slot_b, aff_a);
    handed_over += 2;
    if (sink != nullptr) {
      HandoverEvent event;
      event.interval = interval_;
      event.shard_a = a;
      event.shard_b = b;
      event.slot_a = slot_a;
      event.slot_b = slot_b;
      sink->on_handover(event);
    }
  }
  return handed_over;
}

}  // namespace dtmsv::core
