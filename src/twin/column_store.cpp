#include "twin/column_store.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace dtmsv::twin {

namespace {

/// Extractions of fewer rows than this run inline; larger ones split across
/// the pool (each row is written by exactly one worker, so the bytes are
/// identical for any DTMSV_THREADS).
constexpr std::size_t kExtractGrain = 8;

/// Slots per user a ring that retains by time starts with, and the most it
/// grows to: the fixed-ring defaults, so memory is bounded whatever the
/// input stream (past the ceiling the ring evicts like a fixed one).
constexpr std::size_t kRetainingStartCapacity = 8;
constexpr ColumnCapacities kRetainingCeiling{};

void validate_summary_spec(const SummarySpec& spec) {
  DTMSV_EXPECTS(std::isfinite(spec.now));
  DTMSV_EXPECTS(spec.window_s > 0.0);
  DTMSV_EXPECTS(spec.scaling.pos_x_scale > 0.0 && spec.scaling.pos_y_scale > 0.0);
  DTMSV_EXPECTS(spec.scaling.snr_scale_db > 0.0);
}

void validate_window_spec(const WindowSpec& spec) {
  validate_summary_spec({spec.now, spec.window_s, spec.scaling});
  DTMSV_EXPECTS(spec.timesteps > 0);
}

/// The seed's per-channel resample: bin means over [from, now) with
/// zero-order hold through empty bins (zeros before the first sample).
/// Sums are accumulated oldest-first, so the division and hold chain give
/// the same floats as a per-sample walk over one user's series.
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

constexpr std::size_t kSummaryLanes = TwinColumnStore::kSummaryLanes;
// The recurrence is latency-bound: two 4-wide packs per block keep two
// divide chains in flight, where one 8-wide pack would be a single chain
// with a slower divide (BM_TwinSummaryFullRing read ~187 us with 4-wide and
// ~215 us with 8-wide packs, on one thread of a 4-vCPU AVX-512 Xeon VM).
#if defined(__AVX2__)
using LanePack = util::simd::pack<double, util::simd::avx2_backend>;
#else
using LanePack = util::simd::pack<double, util::simd::scalar_backend>;
#endif
static_assert(kSummaryLanes % LanePack::width == 0);

/// Count, mean and sum of squared deviations (util::RunningStats' state) of
/// each lane of a block.
struct LaneMoments {
  std::array<std::size_t, kSummaryLanes> count{};
  std::array<double, kSummaryLanes> mean{};
  std::array<double, kSummaryLanes> m2{};

  bool empty(std::size_t l) const { return count[l] == 0; }
  /// util::RunningStats::stddev(): sqrt of the unbiased sample variance.
  double stddev(std::size_t l) const {
    return std::sqrt(count[l] < 2 ? 0.0 : m2[l] / static_cast<double>(count[l] - 1));
  }
};

/// Copies the samples of users [first, first + lanes) with time in
/// [from, to) into `blocks`, sample-major (lane l's i-th sample, oldest
/// first, at i * kSummaryLanes + l): copy(out, position, slot) copies each
/// value lane the walk reads into its block's data `out[k]`. Sets each
/// lane's count. The blocks (all of one size) grow to what the longest
/// window needs, in multiples of kSummaryLanes, so welford_lanes' loads of
/// whole sample rows stay inside them.
template <std::size_t N, typename Column, typename Copy>
void gather_lanes(const Column& column, std::size_t first, std::size_t lanes,
                  util::SimTime from, util::SimTime to, LaneMoments& moments,
                  const std::array<std::vector<double>*, N>& blocks, const Copy& copy) {
  std::size_t size = blocks[0]->size();
  std::array<double*, N> out;
  for (std::size_t k = 0; k < N; ++k) {
    out[k] = blocks[k]->data();
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    std::size_t at = l;
    column.for_each_slot_in(first + l, from, to, [&](std::size_t slot) {
      if (at >= size) [[unlikely]] {
        size = std::max(2 * size, 64 * kSummaryLanes);
        for (std::size_t k = 0; k < N; ++k) {
          blocks[k]->resize(size);
          out[k] = blocks[k]->data();
        }
      }
      copy(out, at, slot);
      at += kSummaryLanes;
    });
    moments.count[l] = at / kSummaryLanes;
  }
}

/// util::RunningStats::add's mean and m2 updates over the samples `block`
/// holds for lanes [0, lanes), each lane on its own samples in order, so
/// every lane ends bit-identical to a RunningStats fed them. All lanes step
/// together as packs up to the shortest lane's count, then each finishes
/// its own tail. Lanes past `lanes` compute on stale values and are never
/// read.
void welford_lanes(const double* block, std::size_t lanes, LaneMoments& moments) {
  constexpr std::size_t kPacks = kSummaryLanes / LanePack::width;
  const std::size_t shortest =
      *std::min_element(moments.count.begin(), moments.count.begin() + lanes);
  LanePack mean[kPacks];
  LanePack m2[kPacks];
  for (std::size_t p = 0; p < kPacks; ++p) {
    mean[p] = LanePack::zero();
    m2[p] = LanePack::zero();
  }
  for (std::size_t i = 0; i < shortest; ++i) {
    const LanePack n = LanePack::broadcast(static_cast<double>(i + 1));
    for (std::size_t p = 0; p < kPacks; ++p) {
      const LanePack x = LanePack::load(block + i * kSummaryLanes + p * LanePack::width);
      const LanePack delta = x - mean[p];
      mean[p] = mean[p] + delta / n;
      m2[p] = m2[p] + LanePack::madd(delta, x - mean[p], LanePack::zero());
    }
  }
  for (std::size_t p = 0; p < kPacks; ++p) {
    mean[p].store(moments.mean.data() + p * LanePack::width);
    m2[p].store(moments.m2.data() + p * LanePack::width);
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    double& lane_mean = moments.mean[l];
    double& lane_m2 = moments.m2[l];
    for (std::size_t i = shortest; i < moments.count[l]; ++i) {
      const double x = block[i * kSummaryLanes + l];
      const double delta = x - lane_mean;
      lane_mean += delta / static_cast<double>(i + 1);
      lane_m2 += util::simd::madd(delta, x - lane_mean, 0.0);
    }
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
    : channel_(user_count, capacities.channel),
      location_(user_count, capacities.location),
      watch_(user_count, capacities.watch),
      preference_(user_count, capacities.preference),
      estimators_(user_count) {
  DTMSV_EXPECTS(user_count > 0);
}

TwinColumnStore::TwinColumnStore(std::size_t user_count, RetentionSpan retention)
    : channel_(user_count, kRetainingStartCapacity, retention.seconds,
               kRetainingCeiling.channel),
      location_(user_count, kRetainingStartCapacity, retention.seconds,
                kRetainingCeiling.location),
      watch_(user_count, kRetainingStartCapacity, retention.seconds,
             kRetainingCeiling.watch),
      preference_(user_count, kRetainingStartCapacity, retention.seconds,
                  kRetainingCeiling.preference),
      estimators_(user_count) {
  DTMSV_EXPECTS(user_count > 0);
  DTMSV_EXPECTS_MSG(retention.seconds > 0.0,
                    "TwinColumnStore: retention span must be positive");
}

std::size_t TwinColumnStore::bytes() const {
  return channel_.bytes() + location_.bytes() + watch_.bytes() + preference_.bytes();
}

void TwinColumnStore::record_channel(std::size_t u, util::SimTime t,
                                     const ChannelObservation& obs) {
  DTMSV_EXPECTS(u < user_count());
  channel_.record(u, t, obs);
}

void TwinColumnStore::record_location(std::size_t u, util::SimTime t,
                                      const mobility::Position& pos) {
  DTMSV_EXPECTS(u < user_count());
  location_.record(u, t, pos);
}

void TwinColumnStore::record_watch(std::size_t u, util::SimTime t,
                                   const WatchObservation& obs) {
  DTMSV_EXPECTS(u < user_count());
  estimators_[u].observe(obs.category, obs.watch_seconds);
  watch_.record(u, t, obs);
}

void TwinColumnStore::record_preference(std::size_t u, util::SimTime t,
                                        const behavior::PreferenceVector& estimate) {
  DTMSV_EXPECTS(u < user_count());
  preference_.record(u, t, estimate);
}

void TwinColumnStore::decay_preferences() {
  for (behavior::PreferenceEstimator& estimator : estimators_) {
    estimator.decay();
  }
}

behavior::PreferenceVector TwinColumnStore::latest_preference(std::size_t u) const {
  return preference_.empty(u) ? estimators_[u].estimate()
                              : preference_.get(u, preference_.size(u) - 1);
}

void TwinColumnStore::reset_user(std::size_t u) {
  DTMSV_EXPECTS(u < user_count());
  channel_.clear_user(u);
  location_.clear_user(u);
  watch_.clear_user(u);
  preference_.clear_user(u);
  estimators_[u] = behavior::PreferenceEstimator{};
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

/// Gather blocks of extract_summary_rows (sample-major, see gather_lanes),
/// one set per worker chunk and call. Kept across calls in thread-local
/// storage, these ~16 KB raised serve_degraded_1k's peak RSS by ~0.6 MB
/// (perfbench, 10/10 runs on a 4-vCPU Xeon VM), while four small
/// allocations per call cost nothing measurable.
struct TwinColumnStore::SummaryScratch {
  std::vector<double> snr;
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> frac;
};

void TwinColumnStore::extract_summary_rows(std::size_t first, std::size_t lanes,
                                           const SummarySpec& spec, double* out,
                                           SummaryScratch& scratch) const {
  const util::SimTime from = spec.now - spec.window_s;

  LaneMoments snr;
  {
    const std::vector<double>& vals = channel_.snr();
    gather_lanes<1>(channel_, first, lanes, from, spec.now, snr, {&scratch.snr},
                    [&](const auto& out, std::size_t at, std::size_t slot) {
                      out[0][at] = vals[slot];
                    });
    welford_lanes(scratch.snr.data(), lanes, snr);
  }
  LaneMoments x;
  LaneMoments y;
  {
    const std::vector<double>& xs = location_.x();
    const std::vector<double>& ys = location_.y();
    gather_lanes<2>(location_, first, lanes, from, spec.now, x, {&scratch.x, &scratch.y},
                    [&](const auto& out, std::size_t at, std::size_t slot) {
                      out[0][at] = xs[slot];
                      out[1][at] = ys[slot];
                    });
    y.count = x.count;
    welford_lanes(scratch.x.data(), lanes, x);
    welford_lanes(scratch.y.data(), lanes, y);
  }
  LaneMoments frac;
  {
    const std::vector<double>& vals = watch_.watch_fraction();
    gather_lanes<1>(watch_, first, lanes, from, spec.now, frac, {&scratch.frac},
                    [&](const auto& out, std::size_t at, std::size_t slot) {
                      out[0][at] = vals[slot];
                    });
    welford_lanes(scratch.frac.data(), lanes, frac);
  }

  const FeatureScaling& scaling = spec.scaling;
  for (std::size_t l = 0; l < lanes; ++l) {
    double* row = out + l * kSummaryDim;
    row[0] = snr.empty(l) ? 0.0
                          : std::clamp((snr.mean[l] + scaling.snr_offset_db) /
                                           scaling.snr_scale_db,
                                       0.0, 1.5);
    row[1] = snr.empty(l) ? 0.0 : snr.stddev(l) / scaling.snr_scale_db;
    row[2] = x.empty(l) ? 0.0 : x.mean[l] / scaling.pos_x_scale;
    row[3] = y.empty(l) ? 0.0 : y.mean[l] / scaling.pos_y_scale;
    row[4] = frac.empty(l) ? 0.0 : frac.mean[l];
    row[5] = frac.empty(l) ? 0.0 : frac.stddev(l);
    const behavior::PreferenceVector pref = latest_preference(first + l);
    for (std::size_t c = 0; c < pref.size(); ++c) {
      row[6 + c] = pref[c];
    }
  }
}

void TwinColumnStore::extract_summary_row(std::size_t u, const SummarySpec& spec,
                                          double* out) const {
  DTMSV_EXPECTS(u < user_count());
  validate_summary_spec(spec);
  SummaryScratch scratch;
  extract_summary_rows(u, 1, spec, out, scratch);
}

namespace {

/// Extracts every row of a batch into `buffer` on the pool (disjoint rows —
/// bit-identical for any thread count): extract_chunk(begin, end, data)
/// writes rows [begin, end) of `data`, once per worker chunk, so extractors
/// can carry per-chunk scratch. Specs are validated before this runs: pool
/// jobs must not throw.
template <typename Value, typename ExtractChunk>
void extract_rows(std::size_t users, std::size_t width, std::vector<Value>& buffer,
                  ExtractStats& stats, const ExtractChunk& extract_chunk) {
  buffer.resize(users * width);
  Value* data = buffer.data();
  util::parallel_for(0, users, kExtractGrain, [&](std::size_t begin, std::size_t end) {
    extract_chunk(begin, end, data);
  });
  stats = {users, 0};
}

}  // namespace

WindowBatch TwinColumnStore::feature_windows(const WindowSpec& spec,
                                             FeatureArena& arena) const {
  validate_window_spec(spec);
  const std::size_t width = kFeatureChannels * spec.timesteps;
  extract_rows(user_count(), width, arena.windows_, arena.window_stats_,
               [&](std::size_t begin, std::size_t end, float* data) {
                 RowScratch scratch;
                 for (std::size_t u = begin; u < end; ++u) {
                   extract_window_row(u, spec, data + u * width, scratch);
                 }
               });
  return WindowBatch(arena.windows_.data(), user_count(), width);
}

SummaryBatch TwinColumnStore::summary_features(const SummarySpec& spec,
                                               FeatureArena& arena) const {
  validate_summary_spec(spec);
  extract_rows(user_count(), kSummaryDim, arena.summaries_, arena.summary_stats_,
               [&](std::size_t begin, std::size_t end, double* data) {
                 SummaryScratch scratch;
                 for (std::size_t u = begin; u < end; u += kSummaryLanes) {
                   extract_summary_rows(u, std::min(kSummaryLanes, end - u), spec,
                                        data + u * kSummaryDim, scratch);
                 }
               });
  return SummaryBatch(arena.summaries_.data(), user_count(), kSummaryDim);
}

}  // namespace dtmsv::twin
