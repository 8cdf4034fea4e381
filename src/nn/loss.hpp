// Loss functions returning (value, gradient-w.r.t.-prediction) pairs.
#pragma once

#include <span>

#include "nn/tensor.hpp"

namespace dtmsv::nn {

/// Loss value plus dL/dprediction, ready to feed into Layer::backward.
struct LossResult {
  float value = 0.0f;
  Tensor grad;
};

/// Mean squared error averaged over all elements.
LossResult mse_loss(const Tensor& prediction, const Tensor& target);

/// mse_loss into a caller-owned gradient: writes dL/dprediction into `grad`
/// (resized to the prediction's shape, see Tensor::resize) and returns the
/// loss. `target` is any view of prediction.size() values in row-major
/// order, so a training loop passes its input batch without reshaping it.
float mse_loss(const Tensor& prediction, std::span<const float> target, Tensor& grad);

/// Huber (smooth-L1) loss restricted to elements where mask != 0 and
/// averaged over the masked element count: quadratic within |err| <= delta,
/// linear outside. DDQN trains only the Q-value of the action actually taken
/// with it.
LossResult masked_huber_loss(const Tensor& prediction, const Tensor& target,
                             const Tensor& mask, float delta = 1.0f);

}  // namespace dtmsv::nn
