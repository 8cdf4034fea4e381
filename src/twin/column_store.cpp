#include "twin/column_store.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace dtmsv::twin {

namespace {

/// Extraction rows shorter than this run inline; longer dirty lists split
/// across the pool (each row is written by exactly one worker, so the
/// bytes are identical for any DTMSV_THREADS).
constexpr std::size_t kExtractGrain = 8;

void validate_window_spec(const WindowSpec& spec) {
  DTMSV_EXPECTS(std::isfinite(spec.now));
  DTMSV_EXPECTS(spec.window_s > 0.0);
  DTMSV_EXPECTS(spec.timesteps > 0);
  DTMSV_EXPECTS(spec.scaling.pos_x_scale > 0.0 && spec.scaling.pos_y_scale > 0.0);
  DTMSV_EXPECTS(spec.scaling.snr_scale_db > 0.0);
}

/// The seed's per-channel resample: bin means over [from, now) with
/// zero-order hold through empty bins (zeros before the first sample).
/// Sums were accumulated oldest-first, so the division and hold chain
/// reproduce the AttributeSeries-era floats bit for bit.
void hold_write(float* out, std::size_t channel, std::size_t bins,
                const double* sums, const std::size_t* counts) {
  float hold = 0.0f;
  for (std::size_t b = 0; b < bins; ++b) {
    if (counts[b] > 0) {
      hold = static_cast<float>(sums[b] / static_cast<double>(counts[b]));
    }
    out[channel * bins + b] = hold;
  }
}

}  // namespace

struct TwinColumnStore::RowScratch {
  std::vector<double> sums;         // up to kCategoryCount lanes x bins
  std::vector<std::size_t> counts;  // one count lane (shared per attribute)

  void reset(std::size_t lanes, std::size_t bins) {
    sums.assign(lanes * bins, 0.0);
    counts.assign(bins, 0);
  }
};

namespace {

std::uint64_t next_store_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

ColumnCapacities ColumnCapacities::scaled(std::size_t history_capacity) {
  const auto lane = [history_capacity](std::size_t divisor) {
    return std::min(history_capacity,
                    std::max<std::size_t>(64, history_capacity / divisor));
  };
  return {history_capacity, lane(4), lane(8), lane(16)};
}

TwinColumnStore::TwinColumnStore(std::size_t user_count, std::size_t history_capacity)
    : TwinColumnStore(user_count, ColumnCapacities::scaled(history_capacity)) {}

TwinColumnStore::TwinColumnStore(std::size_t user_count,
                                 const ColumnCapacities& capacities)
    : store_id_(next_store_id()),
      channel_(user_count, capacities.channel),
      location_(user_count, capacities.location),
      watch_(user_count, capacities.watch),
      preference_(user_count, capacities.preference),
      estimators_(user_count),
      revisions_(user_count, 0) {
  DTMSV_EXPECTS(user_count > 0);
}

void TwinColumnStore::record_channel(std::size_t u, util::SimTime t,
                                     const ChannelObservation& obs) {
  DTMSV_EXPECTS(u < user_count());
  channel_.record(u, t, obs);
  ++revisions_[u];
}

void TwinColumnStore::record_location(std::size_t u, util::SimTime t,
                                      const mobility::Position& pos) {
  DTMSV_EXPECTS(u < user_count());
  location_.record(u, t, pos);
  ++revisions_[u];
}

void TwinColumnStore::record_watch(std::size_t u, util::SimTime t,
                                   const WatchObservation& obs) {
  DTMSV_EXPECTS(u < user_count());
  estimators_[u].observe(obs.category, obs.watch_seconds);
  watch_.record(u, t, obs);
  ++revisions_[u];
}

void TwinColumnStore::record_preference(std::size_t u, util::SimTime t,
                                        const behavior::PreferenceVector& estimate) {
  DTMSV_EXPECTS(u < user_count());
  preference_.record(u, t, estimate);
  ++revisions_[u];
}

void TwinColumnStore::decay_preference(std::size_t u) {
  DTMSV_EXPECTS(u < user_count());
  estimators_[u].decay();
  ++revisions_[u];
}

void TwinColumnStore::decay_preferences() {
  for (std::size_t u = 0; u < user_count(); ++u) {
    estimators_[u].decay();
    ++revisions_[u];
  }
}

void TwinColumnStore::reset_user(std::size_t u) {
  DTMSV_EXPECTS(u < user_count());
  channel_.clear_user(u);
  location_.clear_user(u);
  watch_.clear_user(u);
  preference_.clear_user(u);
  estimators_[u] = behavior::PreferenceEstimator{};
  ++revisions_[u];
}

void TwinColumnStore::extract_window_row(std::size_t u, const WindowSpec& spec,
                                         float* out, RowScratch& scratch) const {
  const std::size_t bins = spec.timesteps;
  const util::SimTime from = spec.now - spec.window_s;
  const double bin_width = (spec.now - from) / static_cast<double>(bins);
  const FeatureScaling& scaling = spec.scaling;

  const auto bin_of = [&](double t) {
    auto b = static_cast<std::size_t>((t - from) / bin_width);
    return std::min(b, bins - 1);
  };

  // Channels 0 (normalised SNR) and 1 (efficiency/6) from the channel
  // column, one fused pass over the time lane.
  scratch.reset(2, bins);
  {
    double* sums_snr = scratch.sums.data();
    double* sums_eff = scratch.sums.data() + bins;
    const std::vector<double>& times = channel_.times();
    const std::vector<double>& snr = channel_.snr();
    const std::vector<double>& eff = channel_.efficiency();
    channel_.for_each_slot_in(u, from, spec.now, [&](std::size_t at) {
      const std::size_t b = bin_of(times[at]);
      sums_snr[b] +=
          std::clamp((snr[at] + scaling.snr_offset_db) / scaling.snr_scale_db, 0.0, 1.5);
      sums_eff[b] += std::clamp(eff[at] / 6.0, 0.0, 1.0);
      ++scratch.counts[b];
    });
    hold_write(out, 0, bins, sums_snr, scratch.counts.data());
    hold_write(out, 1, bins, sums_eff, scratch.counts.data());
  }

  // Channels 2/3: normalised position.
  scratch.reset(2, bins);
  {
    double* sums_x = scratch.sums.data();
    double* sums_y = scratch.sums.data() + bins;
    const std::vector<double>& times = location_.times();
    const std::vector<double>& xs = location_.x();
    const std::vector<double>& ys = location_.y();
    location_.for_each_slot_in(u, from, spec.now, [&](std::size_t at) {
      const std::size_t b = bin_of(times[at]);
      sums_x[b] += std::clamp(xs[at] / scaling.pos_x_scale, 0.0, 1.0);
      sums_y[b] += std::clamp(ys[at] / scaling.pos_y_scale, 0.0, 1.0);
      ++scratch.counts[b];
    });
    hold_write(out, 2, bins, sums_x, scratch.counts.data());
    hold_write(out, 3, bins, sums_y, scratch.counts.data());
  }

  // Channel 4: mean watch fraction.
  scratch.reset(1, bins);
  {
    const std::vector<double>& times = watch_.times();
    const std::vector<double>& frac = watch_.watch_fraction();
    watch_.for_each_slot_in(u, from, spec.now, [&](std::size_t at) {
      const std::size_t b = bin_of(times[at]);
      scratch.sums[b] += std::clamp(frac[at], 0.0, 1.0);
      ++scratch.counts[b];
    });
    hold_write(out, 4, bins, scratch.sums.data(), scratch.counts.data());
  }

  // Channels 5..: preference weight per category (the per-category lanes
  // are contiguous, so this is kCategoryCount strided sums in one pass).
  scratch.reset(video::kCategoryCount, bins);
  {
    const std::vector<double>& times = preference_.times();
    preference_.for_each_slot_in(u, from, spec.now, [&](std::size_t at) {
      const std::size_t b = bin_of(times[at]);
      for (std::size_t c = 0; c < video::kCategoryCount; ++c) {
        scratch.sums[c * bins + b] += preference_.lane(c)[at];
      }
      ++scratch.counts[b];
    });
    for (std::size_t c = 0; c < video::kCategoryCount; ++c) {
      hold_write(out, 5 + c, bins, scratch.sums.data() + c * bins,
                 scratch.counts.data());
    }
  }
}

void TwinColumnStore::extract_window_row(std::size_t u, const WindowSpec& spec,
                                         float* out) const {
  DTMSV_EXPECTS(u < user_count());
  validate_window_spec(spec);
  RowScratch scratch;
  extract_window_row(u, spec, out, scratch);
}

void TwinColumnStore::extract_summary_row(std::size_t u, const SummarySpec& spec,
                                          double* out) const {
  DTMSV_EXPECTS(u < user_count());
  DTMSV_EXPECTS(std::isfinite(spec.now));
  DTMSV_EXPECTS(spec.window_s > 0.0);
  const util::SimTime from = spec.now - spec.window_s;

  util::RunningStats snr;
  {
    const std::vector<double>& vals = channel_.snr();
    channel_.for_each_slot_in(u, from, spec.now,
                              [&](std::size_t at) { snr.add(vals[at]); });
  }
  util::RunningStats x;
  util::RunningStats y;
  {
    const std::vector<double>& xs = location_.x();
    const std::vector<double>& ys = location_.y();
    location_.for_each_slot_in(u, from, spec.now, [&](std::size_t at) {
      x.add(xs[at]);
      y.add(ys[at]);
    });
  }
  util::RunningStats frac;
  {
    const std::vector<double>& vals = watch_.watch_fraction();
    watch_.for_each_slot_in(u, from, spec.now,
                            [&](std::size_t at) { frac.add(vals[at]); });
  }

  const FeatureScaling& scaling = spec.scaling;
  out[0] = snr.empty()
               ? 0.0
               : std::clamp((snr.mean() + scaling.snr_offset_db) / scaling.snr_scale_db,
                            0.0, 1.5);
  out[1] = snr.empty() ? 0.0 : snr.stddev() / scaling.snr_scale_db;
  out[2] = x.empty() ? 0.0 : x.mean() / scaling.pos_x_scale;
  out[3] = y.empty() ? 0.0 : y.mean() / scaling.pos_y_scale;
  out[4] = frac.empty() ? 0.0 : frac.mean();
  out[5] = frac.empty() ? 0.0 : frac.stddev();
  const behavior::PreferenceVector pref =
      preference_.empty(u) ? estimators_[u].estimate()
                           : preference_.get(u, preference_.size(u) - 1);
  for (std::size_t c = 0; c < pref.size(); ++c) {
    out[6 + c] = pref[c];
  }
}

namespace {

/// The shared incremental-refresh machinery behind both batch extractions:
/// validate the arena cache (same store generation, same geometry, same
/// population), build the dirty-user list, re-extract dirty rows on the
/// pool (disjoint rows — bit-identical for any thread count), and rebind
/// the cache metadata. `make_row_fn()` is invoked once per worker chunk so
/// row extractors can carry per-chunk scratch.
template <typename Value, typename MakeRowFn>
void refresh_rows(const std::vector<std::uint64_t>& store_revisions,
                  std::uint64_t store_id, std::size_t width, bool force_full,
                  bool same_geometry, std::vector<Value>& buffer,
                  std::vector<std::uint64_t>& cached_revisions, bool& valid,
                  std::uint64_t& bound_store_id, ExtractStats& stats,
                  const MakeRowFn& make_row_fn) {
  const std::size_t users = store_revisions.size();
  const bool cache_usable = !force_full && valid && bound_store_id == store_id &&
                            same_geometry && buffer.size() == users * width &&
                            cached_revisions.size() == users;
  buffer.resize(users * width);
  cached_revisions.resize(users);

  std::vector<std::size_t> dirty;
  if (cache_usable) {
    for (std::size_t u = 0; u < users; ++u) {
      if (cached_revisions[u] != store_revisions[u]) {
        dirty.push_back(u);
      }
    }
  } else {
    dirty.resize(users);
    for (std::size_t u = 0; u < users; ++u) {
      dirty[u] = u;
    }
  }

  Value* data = buffer.data();
  util::parallel_for(0, dirty.size(), kExtractGrain,
                     [&](std::size_t begin, std::size_t end) {
                       auto extract_row = make_row_fn();
                       for (std::size_t i = begin; i < end; ++i) {
                         const std::size_t u = dirty[i];
                         extract_row(u, data + u * width);
                         cached_revisions[u] = store_revisions[u];
                       }
                     });

  bound_store_id = store_id;
  valid = true;
  stats = {dirty.size(), users - dirty.size()};
}

}  // namespace

WindowBatch TwinColumnStore::feature_windows(const WindowSpec& spec,
                                             FeatureArena& arena,
                                             bool force_full) const {
  validate_window_spec(spec);
  const std::size_t width = kFeatureChannels * spec.timesteps;
  refresh_rows(revisions_, store_id_, width, force_full,
               arena.window_spec_ == spec, arena.windows_,
               arena.window_revisions_, arena.windows_valid_,
               arena.window_store_id_, arena.window_stats_, [&] {
                 return [this, &spec, scratch = RowScratch{}](
                            std::size_t u, float* out) mutable {
                   extract_window_row(u, spec, out, scratch);
                 };
               });
  arena.window_spec_ = spec;
  return WindowBatch(arena.windows_.data(), user_count(), width);
}

SummaryBatch TwinColumnStore::summary_features(const SummarySpec& spec,
                                               FeatureArena& arena,
                                               bool force_full) const {
  DTMSV_EXPECTS(spec.window_s > 0.0);
  refresh_rows(revisions_, store_id_, kSummaryDim, force_full,
               arena.summary_spec_ == spec, arena.summaries_,
               arena.summary_revisions_, arena.summaries_valid_,
               arena.summary_store_id_, arena.summary_stats_, [&] {
                 return [this, &spec](std::size_t u, double* out) {
                   extract_summary_row(u, spec, out);
                 };
               });
  arena.summary_spec_ = spec;
  return SummaryBatch(arena.summaries_.data(), user_count(), kSummaryDim);
}

}  // namespace dtmsv::twin
