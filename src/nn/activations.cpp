#include "nn/activations.hpp"

#include <cmath>

namespace dtmsv::nn {

Tensor ReLU::forward(const Tensor& input) {
  Tensor out = input;
  for (float& v : out.data()) {
    v = v > 0.0f ? v : 0.0f;
  }
  output_ = out;
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  DTMSV_EXPECTS_MSG(!output_.empty(), "ReLU: backward before forward");
  DTMSV_EXPECTS(same_shape(grad_output, output_));
  Tensor grad = grad_output;
  auto g = grad.data();
  auto y = output_.data();
  // The 0/1 mask is a product, not a select, so a NaN or infinite
  // gradient under a clamped unit still yields NaN and a negative one -0.
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] *= y[i] > 0.0f ? 1.0f : 0.0f;
  }
  return grad;
}

Tensor Tanh::forward(const Tensor& input) {
  Tensor out = input;
  for (float& v : out.data()) {
    v = std::tanh(v);
  }
  output_ = out;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  DTMSV_EXPECTS_MSG(!output_.empty(), "Tanh: backward before forward");
  DTMSV_EXPECTS(same_shape(grad_output, output_));
  Tensor grad = grad_output;
  auto g = grad.data();
  auto y = output_.data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] *= 1.0f - y[i] * y[i];
  }
  return grad;
}

Tensor Sigmoid::forward(const Tensor& input) {
  Tensor out = input;
  for (float& v : out.data()) {
    v = 1.0f / (1.0f + std::exp(-v));
  }
  output_ = out;
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  DTMSV_EXPECTS_MSG(!output_.empty(), "Sigmoid: backward before forward");
  DTMSV_EXPECTS(same_shape(grad_output, output_));
  Tensor grad = grad_output;
  auto g = grad.data();
  auto y = output_.data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] *= y[i] * (1.0f - y[i]);
  }
  return grad;
}

}  // namespace dtmsv::nn
