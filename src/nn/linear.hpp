// Fully connected layer: y = x·Wᵀ + b, batched over rows.
#pragma once

#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace dtmsv::nn {

/// Linear (dense) layer mapping [N, in_features] -> [N, out_features].
class Linear final : public Layer {
 public:
  /// Weights are Xavier-initialised from `rng`; biases start at zero.
  Linear(std::size_t in_features, std::size_t out_features, util::Rng& rng);

  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<ParamRef> parameters() override;

  /// Direct parameter access (used by serialisation and tests).
  Tensor& weights() { return w_; }
  Tensor& bias() { return b_; }

 private:
  /// The body of backward() and backward_params(): accumulates the
  /// parameter gradients and, when `input_grad`, writes dL/dinput into
  /// grad_input_.
  void backward_pass(const Tensor& grad_output, bool input_grad);

  std::size_t in_features_;
  std::size_t out_features_;
  Tensor w_;       // [out, in]
  Tensor b_;       // [out]
  Tensor w_grad_;  // [out, in]
  Tensor b_grad_;  // [out]
  // Owned buffers, resized within capacity per batch shape.
  Tensor input_;       // cached forward input [N, in]
  Tensor output_;      // [N, out]
  Tensor grad_input_;  // [N, in]
  Tensor w_grad_step_;  // this backward's dL/dW, added onto w_grad_
  std::vector<float> w_t_;  // Wᵀ for matmul_bt's batch path
};

}  // namespace dtmsv::nn
