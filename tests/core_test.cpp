// Unit tests for dtmsv::core — the 1D-CNN feature compressor (training,
// embedding, discrimination), the DDQN+K-means++ group constructor (state
// encoding, learning loop, decision validity), and scheme configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "clustering/kmeans.hpp"
#include "core/feature_compressor.hpp"
#include "core/group_constructor.hpp"
#include "nn/tensor.hpp"
#include "twin/arena.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace {

using namespace dtmsv::core;
using dtmsv::clustering::Points;
using dtmsv::twin::WindowBatch;
using dtmsv::util::PreconditionError;
using dtmsv::util::Rng;

// ------------------------------------------------------- FeatureCompressor

CompressorConfig small_compressor() {
  CompressorConfig cfg;
  cfg.channels = 3;
  cfg.timesteps = 16;
  cfg.embedding_dim = 4;
  cfg.conv1_filters = 8;
  cfg.conv2_filters = 8;
  cfg.decoder_hidden = 32;
  cfg.epochs_per_fit = 3;
  return cfg;
}

/// Flat window rows, one channels*timesteps row per user, and their batch
/// view: the layout the compressor reads out of the extraction arena.
struct WindowRows {
  std::vector<float> data;
  std::size_t width = 0;

  std::size_t size() const { return data.size() / width; }
  float* row(std::size_t i) { return data.data() + i * width; }
  WindowBatch batch() const { return WindowBatch(data.data(), size(), width); }
};

/// Windows with two latent modes: flat-low and oscillating-high.
WindowRows two_mode_windows(std::size_t per_mode, Rng& rng) {
  const CompressorConfig cfg = small_compressor();
  WindowRows windows{{}, cfg.channels * cfg.timesteps};
  for (std::size_t m = 0; m < 2; ++m) {
    for (std::size_t i = 0; i < per_mode; ++i) {
      for (std::size_t c = 0; c < cfg.channels; ++c) {
        for (std::size_t t = 0; t < cfg.timesteps; ++t) {
          const double base =
              m == 0 ? 0.2
                     : 0.8 + 0.2 * std::sin(2.0 * M_PI * static_cast<double>(t) / 8.0);
          windows.data.push_back(static_cast<float>(base + rng.normal(0.0, 0.02)));
        }
      }
    }
  }
  return windows;
}

TEST(FeatureCompressor, EmbeddingShape) {
  FeatureCompressor comp(small_compressor(), 1);
  Rng rng(1);
  const auto windows = two_mode_windows(5, rng);
  const Points points = comp.embed(windows.batch());
  ASSERT_EQ(points.size(), windows.size());
  for (const auto& p : points) {
    EXPECT_EQ(p.size(), 4u);
    for (const double v : p) {
      EXPECT_TRUE(std::isfinite(v));
    }
  }
}

TEST(FeatureCompressor, TrainingReducesReconstructionLoss) {
  FeatureCompressor comp(small_compressor(), 2);
  Rng rng(2);
  const auto windows = two_mode_windows(16, rng);
  const float before = comp.reconstruction_loss(windows.batch());
  for (int i = 0; i < 25; ++i) {
    comp.fit(windows.batch());
  }
  const float after = comp.reconstruction_loss(windows.batch());
  EXPECT_LT(after, 0.5f * before)
      << "autoencoder failed to learn: " << before << " -> " << after;
}

TEST(FeatureCompressor, EmbeddingSeparatesModes) {
  FeatureCompressor comp(small_compressor(), 3);
  Rng rng(3);
  const auto windows = two_mode_windows(12, rng);
  for (int i = 0; i < 15; ++i) {
    comp.fit(windows.batch());
  }
  const Points points = comp.embed(windows.batch());
  // Mean intra-mode distance must be far below the inter-mode distance.
  const auto mean_dist = [&](std::size_t a_begin, std::size_t a_end,
                             std::size_t b_begin, std::size_t b_end) {
    double total = 0.0;
    std::size_t n = 0;
    for (std::size_t i = a_begin; i < a_end; ++i) {
      for (std::size_t j = b_begin; j < b_end; ++j) {
        if (i != j) {
          total += dtmsv::clustering::distance(points[i], points[j]);
          ++n;
        }
      }
    }
    return total / static_cast<double>(n);
  };
  const double intra = 0.5 * (mean_dist(0, 12, 0, 12) + mean_dist(12, 24, 12, 24));
  const double inter = mean_dist(0, 12, 12, 24);
  EXPECT_GT(inter, 2.0 * intra);
}

TEST(FeatureCompressor, DeterministicGivenSeed) {
  FeatureCompressor a(small_compressor(), 7);
  FeatureCompressor b(small_compressor(), 7);
  Rng rng(4);
  const auto windows = two_mode_windows(4, rng);
  const Points pa = a.embed(windows.batch());
  const Points pb = b.embed(windows.batch());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::size_t d = 0; d < pa[i].size(); ++d) {
      EXPECT_DOUBLE_EQ(pa[i][d], pb[i][d]);
    }
  }
}

TEST(FeatureCompressor, EmbedIsChunkInvariant) {
  // embed runs the encoder over batch_size-row chunks. Every encoder layer
  // works row by row, so a row's embedding must carry the same bits however
  // the rows are chunked: in batch_size chunks with a ragged tail, one row
  // at a time, or in one direct whole-batch forward of the encoder. A NaN
  // in one row must stay in that row.
  CompressorConfig cfg = small_compressor();
  cfg.batch_size = 32;
  const std::size_t width = cfg.channels * cfg.timesteps;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const std::size_t n : {1, 7, 8, 31, 32, 33, 100}) {
    SCOPED_TRACE(n);
    Rng rng(20 + n);
    WindowRows windows{std::vector<float>(n * width), width};
    for (float& v : windows.data) {
      v = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    const std::size_t poisoned = n / 2;
    windows.row(poisoned)[5] = std::nanf("");

    FeatureCompressor comp(cfg, 9);
    const Points chunked = comp.embed(windows.batch());
    ASSERT_EQ(chunked.size(), n);

    dtmsv::nn::Tensor input({n, cfg.channels, cfg.timesteps}, windows.data);
    const dtmsv::nn::Tensor whole = comp.encoder().forward(input);
    for (std::size_t i = 0; i < n; ++i) {
      const Points single = comp.embed(WindowBatch(windows.row(i), 1, width));
      for (std::size_t d = 0; d < cfg.embedding_dim; ++d) {
        ASSERT_EQ(bits(chunked[i][d]), bits(single[0][d])) << "row " << i << " dim " << d;
        ASSERT_EQ(bits(chunked[i][d]), bits(static_cast<double>(whole.at2(i, d))))
            << "row " << i << " dim " << d;
        if (i != poisoned) {
          ASSERT_TRUE(std::isfinite(chunked[i][d])) << "row " << i << " dim " << d;
        }
      }
    }
  }
}

TEST(FeatureCompressor, NonFiniteBatchLeavesModelUntouched) {
  // One NaN in one window makes that batch's gradient norm NaN. The fit
  // must drop the batch instead of writing NaN into every weight and both
  // Adam moments, so the model embeds exactly as before and keeps training.
  FeatureCompressor comp(small_compressor(), 8);
  Rng rng(8);
  const auto windows = two_mode_windows(16, rng);  // one batch of 32
  for (int i = 0; i < 3; ++i) {
    comp.fit(windows.batch());
  }
  const Points before = comp.embed(windows.batch());

  auto poisoned = windows;
  poisoned.row(5)[7] = std::nanf("");
  EXPECT_TRUE(std::isnan(comp.fit(poisoned.batch())));
  const Points after = comp.embed(windows.batch());
  for (std::size_t i = 0; i < before.size(); ++i) {
    for (std::size_t d = 0; d < before[i].size(); ++d) {
      ASSERT_EQ(after[i][d], before[i][d]) << "user " << i << " dim " << d;
    }
  }

  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::isfinite(comp.fit(windows.batch())));
  }
  for (const auto& p : comp.embed(windows.batch())) {
    for (const double v : p) {
      ASSERT_TRUE(std::isfinite(v));
    }
  }
}

TEST(FeatureCompressor, WindowSizeMismatchRejected) {
  FeatureCompressor comp(small_compressor(), 5);
  const WindowRows bad{{1.0f, 2.0f}, 2};
  EXPECT_THROW(comp.embed(bad.batch()), PreconditionError);
  EXPECT_THROW(comp.fit(bad.batch()), PreconditionError);
}

TEST(FeatureCompressor, EmptyInputRejected) {
  FeatureCompressor comp(small_compressor(), 6);
  EXPECT_THROW(comp.embed(WindowBatch{}), PreconditionError);
  EXPECT_THROW(comp.fit(WindowBatch{}), PreconditionError);
}

// -------------------------------------------------------- GroupConstructor

GroupConstructorConfig small_grouping() {
  GroupConstructorConfig cfg;
  cfg.k_min = 2;
  cfg.k_max = 6;
  cfg.ddqn.hidden = {32};
  cfg.ddqn.min_replay_before_train = 8;
  cfg.ddqn.batch_size = 8;
  cfg.ddqn.epsilon_decay_steps = 50;
  cfg.train_steps_per_interval = 4;
  return cfg;
}

Points blob_points(std::size_t blobs, std::size_t per_blob, double sep, Rng& rng) {
  Points points;
  for (std::size_t b = 0; b < blobs; ++b) {
    for (std::size_t i = 0; i < per_blob; ++i) {
      points.push_back({sep * static_cast<double>(b) + rng.normal(0.0, 0.3),
                        rng.normal(0.0, 0.3)});
    }
  }
  return points;
}

TEST(GroupConstructor, StateDimensionMatchesEncoder) {
  const GroupConstructorConfig cfg = small_grouping();
  GroupConstructor ctor(cfg, 1);
  Rng rng(1);
  const Points points = blob_points(3, 10, 10.0, rng);
  const auto state = ctor.encode_state(points, 3);
  EXPECT_EQ(state.size(), GroupConstructor::state_dimension(cfg));
  for (const float v : state) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(GroupConstructor, StateHistogramIsDistribution) {
  const GroupConstructorConfig cfg = small_grouping();
  GroupConstructor ctor(cfg, 2);
  Rng rng(2);
  const Points points = blob_points(2, 20, 5.0, rng);
  const auto state = ctor.encode_state(points, 2);
  double hist_sum = 0.0;
  for (std::size_t i = 0; i < cfg.distance_histogram_bins; ++i) {
    hist_sum += state[i];
  }
  EXPECT_NEAR(hist_sum, 1.0, 1e-5);
}

/// The DDQN state encoder as it walked all n(n-1)/2 pairs before it
/// sampled them directly: the oracle the direct sampler must match bit
/// for bit.
std::vector<float> encode_state_all_pairs(const GroupConstructorConfig& config,
                                          const Points& embeddings,
                                          std::size_t previous_k) {
  const std::size_t n = embeddings.size();
  dtmsv::util::RunningStats dist_stats;
  std::vector<double> distances;
  const std::size_t total_pairs = n * (n - 1) / 2;
  const std::size_t stride = std::max<std::size_t>(1, total_pairs / 2000);
  std::size_t pair_index = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (pair_index++ % stride != 0) {
        continue;
      }
      const double d = dtmsv::clustering::distance(embeddings[i], embeddings[j]);
      distances.push_back(d);
      dist_stats.add(d);
    }
  }

  const double max_d = dist_stats.empty() ? 1.0 : std::max(dist_stats.max(), 1e-9);
  dtmsv::util::Histogram hist(0.0, max_d, config.distance_histogram_bins);
  for (const double d : distances) {
    hist.add(d);
  }

  std::vector<float> state;
  for (const double density : hist.densities()) {
    state.push_back(static_cast<float>(density));
  }
  state.push_back(
      static_cast<float>(dist_stats.empty() ? 0.0 : dist_stats.mean() / max_d));
  state.push_back(
      static_cast<float>(dist_stats.empty() ? 0.0 : dist_stats.stddev() / max_d));
  state.push_back(static_cast<float>(std::log1p(static_cast<double>(n)) / 8.0));
  const double k_span = std::max<double>(1.0, static_cast<double>(config.k_max - config.k_min));
  state.push_back(static_cast<float>(
      static_cast<double>(previous_k - std::min(previous_k, config.k_min)) / k_span));
  return state;
}

TEST(GroupConstructor, StateBitIdenticalToAllPairsWalk) {
  // Sizes cover no pairs (1 user), every pair kept (stride 1 up to 89
  // users), the first strided sizes (stride 2 from 90) and long strides
  // whose last sampled pair falls mid-row (1000 and 2001 users).
  const GroupConstructorConfig cfg;
  const GroupConstructor ctor(cfg, 11);
  Rng rng(11);
  for (const std::size_t n : {1u, 2u, 3u, 63u, 64u, 65u, 90u, 91u, 1000u, 2001u}) {
    Points points(n, 12);
    for (std::size_t i = 0; i < n * 12; ++i) {
      points.data()[i] = rng.uniform(-2.0, 2.0);
    }
    const std::vector<float> got = ctor.encode_state(points, 5);
    const std::vector<float> want = encode_state_all_pairs(cfg, points, 5);
    ASSERT_EQ(got.size(), want.size()) << "n=" << n;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                std::bit_cast<std::uint32_t>(want[i]))
          << "n=" << n << " state[" << i << "]";
    }
  }
}

TEST(GroupConstructor, DecisionWithinConfiguredRange) {
  GroupConstructor ctor(small_grouping(), 3);
  Rng rng(3);
  const Points points = blob_points(3, 10, 8.0, rng);
  for (int i = 0; i < 10; ++i) {
    const GroupingOutcome d = ctor.construct(points, rng);
    EXPECT_GE(d.k, 2u);
    EXPECT_LE(d.k, 6u);
    ASSERT_EQ(d.assignment.size(), points.size());
    for (const std::size_t a : d.assignment) {
      EXPECT_LT(a, d.k);
    }
    EXPECT_GE(d.silhouette, -1.0);
    EXPECT_LE(d.silhouette, 1.0);
  }
}

TEST(GroupConstructor, ClampsKToPointCount) {
  GroupConstructorConfig cfg = small_grouping();
  cfg.k_min = 4;
  cfg.k_max = 12;
  GroupConstructor ctor(cfg, 4);
  Rng rng(4);
  const Points tiny = blob_points(1, 3, 1.0, rng);  // 3 points
  const GroupingOutcome d = ctor.construct(tiny, rng);
  EXPECT_LE(d.k, 3u);
}

TEST(GroupConstructor, LearningLoopRunsAndEpsilonDecays) {
  GroupConstructor ctor(small_grouping(), 5);
  Rng rng(5);
  const Points points = blob_points(3, 12, 10.0, rng);
  const double eps0 = ctor.construct(points, rng).epsilon;
  for (int i = 0; i < 60; ++i) {
    ctor.report_outcome(0.1);
    ctor.construct(points, rng);
  }
  const double eps1 = ctor.construct(points, rng).epsilon;
  EXPECT_LT(eps1, eps0);
  EXPECT_GT(ctor.agent().replay_size(), 30u);
  EXPECT_GT(ctor.agent().train_steps(), 0u);
}

TEST(GroupConstructor, LearnsTowardGoodKOnSeparableData) {
  // With three well-separated blobs, silhouette rewards K=3 strongly.
  // After exploration decays, the greedy decision should cluster near 3.
  GroupConstructorConfig cfg = small_grouping();
  cfg.ddqn.epsilon_decay_steps = 120;
  cfg.ddqn.learning_rate = 2e-3;
  cfg.k_cost_weight = 0.05;
  GroupConstructor ctor(cfg, 6);
  Rng rng(6);
  const Points points = blob_points(3, 15, 20.0, rng);

  for (int i = 0; i < 160; ++i) {
    ctor.report_outcome(0.05);
    ctor.construct(points, rng);
  }
  // Greedy phase: collect the last decisions.
  std::vector<std::size_t> ks;
  for (int i = 0; i < 10; ++i) {
    ctor.report_outcome(0.05);
    ks.push_back(ctor.construct(points, rng).k);
  }
  // Majority of late decisions in {3, 4} (silhouette at 3 dominates).
  std::size_t good = 0;
  for (const std::size_t k : ks) {
    if (k == 3 || k == 4) {
      ++good;
    }
  }
  EXPECT_GE(good, 6u) << "DDQN failed to concentrate on the separable K";
}

TEST(GroupConstructor, ReportOutcomeValidation) {
  GroupConstructor ctor(small_grouping(), 7);
  EXPECT_THROW(ctor.report_outcome(-0.1), PreconditionError);
  ctor.report_outcome(0.5);  // fine
}

TEST(GroupConstructor, EmptyEmbeddingsRejected) {
  GroupConstructor ctor(small_grouping(), 8);
  Rng rng(8);
  Points empty;
  EXPECT_THROW(ctor.construct(empty, rng), PreconditionError);
}

TEST(GroupConstructor, InvalidConfigRejected) {
  GroupConstructorConfig cfg = small_grouping();
  cfg.k_min = 0;
  EXPECT_THROW(GroupConstructor(cfg, 1), PreconditionError);
  cfg = small_grouping();
  cfg.k_max = 1;
  cfg.k_min = 3;
  EXPECT_THROW(GroupConstructor(cfg, 1), PreconditionError);
}

}  // namespace
