#include "core/feature_compressor.hpp"

#include <algorithm>
#include <cmath>

#include "nn/activations.hpp"
#include "nn/conv1d.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/pooling.hpp"
#include "util/error.hpp"

namespace dtmsv::core {

FeatureCompressor::FeatureCompressor(const CompressorConfig& config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  DTMSV_EXPECTS(config.channels > 0);
  DTMSV_EXPECTS(config.timesteps >= 8);
  DTMSV_EXPECTS(config.embedding_dim > 0);
  DTMSV_EXPECTS(config.batch_size > 0);

  encoder_ = std::make_unique<nn::Sequential>();
  encoder_->emplace<nn::Conv1D>(config.channels, config.conv1_filters,
                                /*kernel=*/5, rng_, /*stride=*/1, /*padding=*/2);
  encoder_->emplace<nn::ReLU>();
  encoder_->emplace<nn::MaxPool1D>(2);
  encoder_->emplace<nn::Conv1D>(config.conv1_filters, config.conv2_filters,
                                /*kernel=*/3, rng_, /*stride=*/1, /*padding=*/1);
  encoder_->emplace<nn::ReLU>();
  encoder_->emplace<nn::GlobalAvgPool1D>();
  encoder_->emplace<nn::Linear>(config.conv2_filters, config.embedding_dim, rng_);

  decoder_ = std::make_unique<nn::Sequential>();
  decoder_->emplace<nn::Linear>(config.embedding_dim, config.decoder_hidden, rng_);
  decoder_->emplace<nn::ReLU>();
  decoder_->emplace<nn::Linear>(config.decoder_hidden,
                                config.channels * config.timesteps, rng_);

  auto params = encoder_->parameters();
  for (auto& p : decoder_->parameters()) {
    params.push_back(p);
  }
  optimizer_ = std::make_unique<nn::Adam>(std::move(params), config.learning_rate);
}

nn::Tensor& FeatureCompressor::gather_batch(const twin::WindowBatch& windows,
                                            const std::size_t* indices,
                                            std::size_t begin, std::size_t end) {
  DTMSV_EXPECTS(begin < end && end <= windows.size());
  DTMSV_EXPECTS_MSG(windows.window_size() == input_size(),
                    "FeatureCompressor: window size mismatch");
  const std::size_t n = end - begin;
  if (batch_.rank() != 3 || batch_.dim(0) != n) {
    batch_ = nn::Tensor({n, config_.channels, config_.timesteps});
  }
  auto data = batch_.data();
  if (indices == nullptr) {
    // Contiguous fleet slice (the embed path): WindowBatch rows are
    // adjacent in the arena, so the whole batch stages as one bulk copy.
    const float* src = windows.data() + begin * windows.window_size();
    std::copy(src, src + n * windows.window_size(), data.begin());
    return batch_;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto w = windows.row(indices[begin + i]);
    std::copy(w.begin(), w.end(), data.begin() + static_cast<std::ptrdiff_t>(i * w.size()));
  }
  return batch_;
}

twin::WindowBatch FeatureCompressor::stage_windows(
    const std::vector<std::vector<float>>& windows) {
  DTMSV_EXPECTS(!windows.empty());
  staging_.resize(windows.size() * input_size());
  float* out = staging_.data();
  for (const auto& w : windows) {
    DTMSV_EXPECTS_MSG(w.size() == input_size(),
                      "FeatureCompressor: window size mismatch");
    out = std::copy(w.begin(), w.end(), out);
  }
  return twin::WindowBatch(staging_.data(), windows.size(), input_size());
}

float FeatureCompressor::fit(const std::vector<std::vector<float>>& windows) {
  return fit(stage_windows(windows));
}

clustering::Points FeatureCompressor::embed(
    const std::vector<std::vector<float>>& windows) {
  return embed(stage_windows(windows));
}

float FeatureCompressor::reconstruction_loss(
    const std::vector<std::vector<float>>& windows) {
  return reconstruction_loss(stage_windows(windows));
}

float FeatureCompressor::fit(const twin::WindowBatch& windows) {
  DTMSV_EXPECTS(!windows.empty());
  float last_epoch_loss = 0.0f;
  std::vector<std::size_t> order(windows.size());
  for (std::size_t epoch = 0; epoch < config_.epochs_per_fit; ++epoch) {
    // Shuffled minibatch order each epoch.
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    rng_.shuffle(order);

    float epoch_loss = 0.0f;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < order.size(); start += config_.batch_size) {
      const std::size_t stop = std::min(start + config_.batch_size, order.size());
      const nn::Tensor& input = gather_batch(windows, order.data(), start, stop);
      const nn::Tensor target = input.reshaped({stop - start, input_size()});

      const nn::Tensor embedding = encoder_->forward(input);
      const nn::Tensor reconstruction = decoder_->forward(embedding);
      const auto loss = nn::mse_loss(reconstruction, target);

      encoder_->zero_grad();
      decoder_->zero_grad();
      const nn::Tensor grad_embedding = decoder_->backward(loss.grad);
      encoder_->backward_params(grad_embedding);
      // A non-finite norm means a NaN/inf window reached the gradients;
      // stepping would write it into every weight and both Adam moments,
      // so the batch is dropped and the model stays as it was.
      if (std::isfinite(optimizer_->clip_grad_norm(10.0))) {
        optimizer_->step();
      }

      epoch_loss += loss.value;
      ++batches;
    }
    last_epoch_loss = batches > 0 ? epoch_loss / static_cast<float>(batches) : 0.0f;
  }
  return last_epoch_loss;
}

clustering::Points FeatureCompressor::embed(const twin::WindowBatch& windows) {
  DTMSV_EXPECTS(!windows.empty());
  const nn::Tensor& input = gather_batch(windows, nullptr, 0, windows.size());
  const nn::Tensor embedding = encoder_->forward(input);

  // Write straight into the flat point matrix: one allocation for the
  // whole embedding cloud instead of one per user.
  clustering::Points points(windows.size(), config_.embedding_dim);
  double* rows = points.data();
  const float* emb = embedding.data().data();
  for (std::size_t i = 0; i < windows.size() * config_.embedding_dim; ++i) {
    rows[i] = static_cast<double>(emb[i]);
  }
  return points;
}

float FeatureCompressor::reconstruction_loss(const twin::WindowBatch& windows) {
  DTMSV_EXPECTS(!windows.empty());
  const nn::Tensor& input = gather_batch(windows, nullptr, 0, windows.size());
  const nn::Tensor target = input.reshaped({windows.size(), input_size()});
  const nn::Tensor reconstruction = decoder_->forward(encoder_->forward(input));
  return nn::mse_loss(reconstruction, target).value;
}

}  // namespace dtmsv::core
