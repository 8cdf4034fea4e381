#include "nn/activations.hpp"

namespace dtmsv::nn {

namespace {

/// output = f(input) elementwise, into the layer's output buffer.
template <typename F>
const Tensor& map_into(const Tensor& input, Tensor& output, F f) {
  output.resize(input.shape());
  const auto x = input.data();
  auto y = output.data();
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] = f(x[i]);
  }
  return output;
}

/// grad_input = grad_output * dydx(y) elementwise, from the cached output y.
template <typename F>
const Tensor& scale_into(const Tensor& grad_output, const Tensor& output,
                         Tensor& grad_input, F dydx) {
  DTMSV_EXPECTS(same_shape(grad_output, output));
  grad_input.resize(output.shape());
  const auto go = grad_output.data();
  const auto y = output.data();
  auto g = grad_input.data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] = go[i] * dydx(y[i]);
  }
  return grad_input;
}

}  // namespace

const Tensor& ReLU::forward(const Tensor& input) {
  return map_into(input, output_, [](float v) { return v > 0.0f ? v : 0.0f; });
}

const Tensor& ReLU::backward(const Tensor& grad_output) {
  DTMSV_EXPECTS_MSG(!output_.empty(), "ReLU: backward before forward");
  // The 0/1 mask is a product, not a select, so a NaN or infinite
  // gradient under a clamped unit still yields NaN and a negative one -0.
  return scale_into(grad_output, output_, grad_input_,
                    [](float y) { return y > 0.0f ? 1.0f : 0.0f; });
}

}  // namespace dtmsv::nn
