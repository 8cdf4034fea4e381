// Pooled extraction buffers and zero-copy batch views for the twin data
// plane. A FeatureArena (one per Simulation) owns the flat feature-window
// and summary-feature matrices the per-interval pipeline reads; every
// TwinColumnStore batch extraction rewrites all of its rows on the thread
// pool, reusing the buffers' capacity across calls (see column_store.hpp).
//
// Aliasing rules for stage authors: WindowBatch / SummaryBatch are
// non-owning views into the arena, valid until the next extraction call
// that uses the same arena (in the built-in pipeline: until the next
// interval's FeatureStage::extract). Copy rows out if you keep them.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "twin/observations.hpp"
#include "util/clock.hpp"

namespace dtmsv::twin {

class TwinColumnStore;

/// Geometry of a feature-window extraction.
struct WindowSpec {
  util::SimTime now = 0.0;
  double window_s = 0.0;
  std::size_t timesteps = 0;
  FeatureScaling scaling{};
};

/// Geometry of a summary-feature extraction.
struct SummarySpec {
  util::SimTime now = 0.0;
  double window_s = 0.0;
  FeatureScaling scaling{};
};

/// Rows the last extraction wrote. Held for the perfbench harness, which
/// reads both fields: `refreshed` counts every row, `reused` is always 0.
struct ExtractStats {
  std::size_t refreshed = 0;
  std::size_t reused = 0;
};

/// Flat [users x channels*timesteps] float view over the arena.
class WindowBatch {
 public:
  explicit WindowBatch() = default;
  explicit WindowBatch(const float* data, std::size_t count, std::size_t window_size)
      : data_(data), count_(count), window_(window_size) {}

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Elements per row (channels * timesteps).
  std::size_t window_size() const { return window_; }
  std::span<const float> row(std::size_t i) const {
    return {data_ + i * window_, window_};
  }
  const float* data() const { return data_; }

 private:
  const float* data_ = nullptr;
  std::size_t count_ = 0;
  std::size_t window_ = 0;
};

/// Flat [users x dim] double view over the arena.
class SummaryBatch {
 public:
  explicit SummaryBatch() = default;
  explicit SummaryBatch(const double* data, std::size_t count, std::size_t dim)
      : data_(data), count_(count), dim_(dim) {}

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  std::size_t dim() const { return dim_; }
  std::span<const double> row(std::size_t i) const {
    return {data_ + i * dim_, dim_};
  }
  const double* data() const { return data_; }

 private:
  const double* data_ = nullptr;
  std::size_t count_ = 0;
  std::size_t dim_ = 0;
};

/// Reusable extraction buffers, owned by the consumer (core::Simulation
/// owns one per cell). Any store may extract into any arena; each call
/// resizes the buffer it writes and overwrites every row.
class FeatureArena {
 public:
  /// Held for the perfbench harness (see ExtractStats).
  const ExtractStats& window_stats() const { return window_stats_; }
  const ExtractStats& summary_stats() const { return summary_stats_; }

 private:
  friend class TwinColumnStore;

  std::vector<float> windows_;
  std::vector<double> summaries_;
  ExtractStats window_stats_{};
  ExtractStats summary_stats_{};
};

}  // namespace dtmsv::twin
