// Pooling layers for the 1D-CNN stack.
#pragma once

#include <cstdint>

#include "nn/layer.hpp"

namespace dtmsv::nn {

/// Max pooling over the time axis: [N, C, L] -> [N, C, L/window] (floor;
/// a trailing partial window is pooled too when `L % window != 0`).
class MaxPool1D final : public Layer {
 public:
  explicit MaxPool1D(std::size_t window);

  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& grad_output) override;

  std::size_t window() const { return window_; }
  std::size_t output_length(std::size_t input_length) const;

 private:
  std::size_t window_;
  Shape input_shape_;
  std::vector<std::uint32_t> argmax_;  // flat input index per output element
  Tensor output_;
  Tensor grad_input_;
};

/// Global average pooling over the time axis: [N, C, L] -> [N, C].
class GlobalAvgPool1D final : public Layer {
 public:
  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& grad_output) override;

 private:
  Shape input_shape_;
  Tensor output_;
  Tensor grad_input_;
};

}  // namespace dtmsv::nn
