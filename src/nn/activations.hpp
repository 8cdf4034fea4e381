// The ReLU activation layer (elementwise, shape preserving).
#pragma once

#include "nn/layer.hpp"

namespace dtmsv::nn {

/// Rectified linear unit: x where x > 0, else +0 (NaN and -0 included).
class ReLU final : public Layer {
 public:
  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& grad_output) override;

 private:
  Tensor output_;  // last forward output; > 0 exactly where the input was
  Tensor grad_input_;
};

}  // namespace dtmsv::nn
