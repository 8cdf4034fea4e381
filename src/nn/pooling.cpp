#include "nn/pooling.hpp"

#include <algorithm>
#include <limits>

namespace dtmsv::nn {

namespace {

/// Max and first argmax of `count` back-to-back windows of `width` inputs
/// from x (input index `first` onward), as selects: the strict `>` keeps
/// the first of equal maxima and never takes a NaN, and a window of NaN or
/// -inf only yields -inf at its first position. A nonzero Width fixes the
/// width at compile time, which lets the loop vectorise across windows.
template <std::size_t Width>
void max_windows(const float* x, float* out, std::uint32_t* arg, std::size_t first,
                 std::size_t width, std::size_t count) {
  const std::size_t w = Width > 0 ? Width : width;
  for (std::size_t t = 0; t < count; ++t) {
    float best = -std::numeric_limits<float>::infinity();
    auto idx = static_cast<std::uint32_t>(first + t * w);
    for (std::size_t k = 0; k < w; ++k) {
      const float v = x[t * w + k];
      const std::uint32_t take = v > best ? ~0u : 0u;
      best = std::max(best, v);
      idx += (static_cast<std::uint32_t>(first + t * w + k) - idx) & take;
    }
    out[t] = best;
    arg[t] = idx;
  }
}

}  // namespace

MaxPool1D::MaxPool1D(std::size_t window) : window_(window) {
  DTMSV_EXPECTS(window > 0);
}

std::size_t MaxPool1D::output_length(std::size_t input_length) const {
  DTMSV_EXPECTS(input_length > 0);
  return (input_length + window_ - 1) / window_;
}

const Tensor& MaxPool1D::forward(const Tensor& input) {
  DTMSV_EXPECTS_MSG(input.rank() == 3, "MaxPool1D: input must be [N, C, L]");
  input_shape_ = input.shape();
  const std::size_t n = input.dim(0);
  const std::size_t c = input.dim(1);
  const std::size_t len = input.dim(2);
  const std::size_t out_len = output_length(len);

  DTMSV_EXPECTS_MSG(input.size() <= std::numeric_limits<std::uint32_t>::max(),
                    "MaxPool1D: input too large for 32-bit argmax");

  output_.resize({n, c, out_len});
  argmax_.resize(n * c * out_len);
  const float* in = input.data().data();
  float* op = output_.data().data();
  std::uint32_t* ap = argmax_.data();
  const auto pool = [](const float* x, float* o, std::uint32_t* a, std::size_t first,
                           std::size_t width, std::size_t count) {
    if (width == 2) {
      max_windows<2>(x, o, a, first, width, count);
    } else {
      max_windows<0>(x, o, a, first, width, count);
    }
  };
  const std::size_t full = len / window_;
  if (full == out_len) {
    // No partial window: the rows are one run of back-to-back windows.
    pool(in, op, ap, 0, window_, n * c * out_len);
    return output_;
  }
  for (std::size_t row = 0; row < n * c; ++row) {
    const std::size_t o = row * out_len;
    const std::size_t i = row * len;
    pool(in + i, op + o, ap + o, i, window_, full);
    pool(in + i + full * window_, op + o + full, ap + o + full, i + full * window_,
         len - full * window_, 1);
  }
  return output_;
}

const Tensor& MaxPool1D::backward(const Tensor& grad_output) {
  DTMSV_EXPECTS_MSG(!input_shape_.empty(), "MaxPool1D: backward before forward");
  const std::size_t n = input_shape_[0];
  const std::size_t c = input_shape_[1];
  const std::size_t len = input_shape_[2];
  const std::size_t out_len = output_length(len);
  DTMSV_EXPECTS(grad_output.rank() == 3 && grad_output.dim(0) == n &&
                grad_output.dim(1) == c && grad_output.dim(2) == out_len);

  grad_input_.resize(input_shape_);
  grad_input_.zero();
  auto gi = grad_input_.data();
  const auto go = grad_output.data();
  for (std::size_t i = 0; i < go.size(); ++i) {
    gi[argmax_[i]] += go[i];
  }
  return grad_input_;
}

const Tensor& GlobalAvgPool1D::forward(const Tensor& input) {
  DTMSV_EXPECTS_MSG(input.rank() == 3, "GlobalAvgPool1D: input must be [N, C, L]");
  input_shape_ = input.shape();
  const std::size_t n = input.dim(0);
  const std::size_t c = input.dim(1);
  const std::size_t len = input.dim(2);

  output_.resize({n, c});
  const float* in = input.data().data();
  float* op = output_.data().data();
  for (std::size_t row = 0; row < n * c; ++row) {
    const float* irow = in + row * len;
    float acc = 0.0f;
    for (std::size_t l = 0; l < len; ++l) {
      acc += irow[l];
    }
    op[row] = acc / static_cast<float>(len);
  }
  return output_;
}

const Tensor& GlobalAvgPool1D::backward(const Tensor& grad_output) {
  DTMSV_EXPECTS_MSG(!input_shape_.empty(), "GlobalAvgPool1D: backward before forward");
  const std::size_t n = input_shape_[0];
  const std::size_t c = input_shape_[1];
  const std::size_t len = input_shape_[2];
  DTMSV_EXPECTS(grad_output.rank() == 2 && grad_output.dim(0) == n &&
                grad_output.dim(1) == c);

  grad_input_.resize(input_shape_);
  const float scale = 1.0f / static_cast<float>(len);
  const float* go = grad_output.data().data();
  float* gi = grad_input_.data().data();
  for (std::size_t row = 0; row < n * c; ++row) {
    const float g = go[row] * scale;
    float* grow = gi + row * len;
    for (std::size_t l = 0; l < len; ++l) {
      grow[l] = g;
    }
  }
  return grad_input_;
}

}  // namespace dtmsv::nn
