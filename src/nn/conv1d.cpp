#include "nn/conv1d.hpp"

#include <algorithm>

#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace dtmsv::nn {

namespace {

using Backend = util::simd::default_backend;

// Samples per parallel chunk are sized so each chunk carries at least this
// many forward multiply-adds; smaller batches run on the calling thread.
constexpr std::size_t kParallelFlops = 1u << 17;

}  // namespace

Conv1D::Conv1D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               util::Rng& rng, std::size_t stride, std::size_t padding)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      w_({out_channels, in_channels, kernel}),
      b_({out_channels}),
      w_grad_({out_channels, in_channels, kernel}),
      b_grad_({out_channels}) {
  DTMSV_EXPECTS(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0);
  xavier_uniform(w_, in_channels * kernel, out_channels * kernel, rng);
}

std::size_t Conv1D::output_length(std::size_t input_length) const {
  const std::size_t padded = input_length + 2 * padding_;
  DTMSV_EXPECTS_MSG(padded >= kernel_, "Conv1D: input shorter than kernel");
  return (padded - kernel_) / stride_ + 1;
}

Tensor Conv1D::forward(const Tensor& input) {
  DTMSV_EXPECTS_MSG(input.rank() == 3 && input.dim(1) == in_channels_,
                    "Conv1D: input must be [N, in_channels, L]");
  input_shape_ = input.shape();
  const std::size_t n = input.dim(0);
  const std::size_t len = input.dim(2);
  const std::size_t out_len = output_length(len);
  const std::size_t patch = in_channels_ * kernel_;
  cols_.resize(n * patch * out_len);

  // The weights transposed to [patch, F]: the forward product then reads
  // its left operand down columns, where the row-blocked kernel's per-row
  // broadcasts sit at fixed offsets from one pointer.
  std::vector<float> w_t(patch * out_channels_);
  kernels::transpose(w_.data().data(), w_t.data(), out_channels_, patch);

  Tensor out({n, out_channels_, out_len});
  const float* in = input.data().data();
  const float* wt = w_t.data();
  const float* bias = b_.data().data();
  float* cols = cols_.data();
  float* o = out.data().data();
  const std::size_t plen = len + 2 * padding_;
  const std::size_t sample_flops = out_channels_ * patch * out_len;
  const std::size_t grain = std::max<std::size_t>(1, kParallelFlops / sample_flops);
  util::parallel_for(0, n, grain, [&](std::size_t b0, std::size_t b1) {
    // Each input channel staged once with its zero padding, so every tap
    // row below is one bounds-free read: row (c, k) of the sample's
    // [patch, L_out] im2col block is padded channel c from offset k.
    std::vector<float> padded(in_channels_ * plen, 0.0f);
    for (std::size_t b = b0; b < b1; ++b) {
      float* cb = cols + b * patch * out_len;
      for (std::size_t c = 0; c < in_channels_; ++c) {
        float* prow = padded.data() + c * plen;
        util::simd::copy_row<Backend>(prow + padding_, in + (b * in_channels_ + c) * len,
                                      len);
        for (std::size_t k = 0; k < kernel_; ++k) {
          float* row = cb + (c * kernel_ + k) * out_len;
          if (stride_ == 1) {
            util::simd::copy_row<Backend>(row, prow + k, out_len);
          } else {
            for (std::size_t t = 0; t < out_len; ++t) {
              row[t] = prow[t * stride_ + k];
            }
          }
        }
      }
      // [patch, F]ᵀ · [patch, L_out] -> this sample's [F, L_out] output
      // block; each element is the ascending-tap chain, then the bias.
      float* ob = o + b * out_channels_ * out_len;
      kernels::matmul_at_rows<Backend>(wt, cb, ob, 0, out_channels_, patch,
                                       out_channels_, out_len);
      for (std::size_t f = 0; f < out_channels_; ++f) {
        float* orow = ob + f * out_len;
        const float bf = bias[f];
        for (std::size_t t = 0; t < out_len; ++t) {
          orow[t] += bf;
        }
      }
    }
  });
  return out;
}

Tensor Conv1D::backward(const Tensor& grad_output) {
  DTMSV_EXPECTS_MSG(!input_shape_.empty(), "Conv1D: backward before forward");
  const std::size_t n = input_shape_[0];
  const std::size_t len = input_shape_[2];
  const std::size_t out_len = output_length(len);
  DTMSV_EXPECTS(grad_output.rank() == 3 && grad_output.dim(0) == n &&
                grad_output.dim(1) == out_channels_ && grad_output.dim(2) == out_len);
  const std::size_t patch = in_channels_ * kernel_;
  const std::size_t fch = out_channels_;
  const std::size_t plen = len + 2 * padding_;
  // Per-call scratch in one block: the sample's output gradient transposed
  // [L_out, F] and its bias gradient [F], the weight gradient transposed
  // and summed over the batch [patch, F], the sample's im2col gradient
  // [patch, L_out] and its input gradient zero-padded [in_ch, L + 2*padding].
  std::vector<float> scratch(
      out_len * fch + fch + patch * fch + patch * out_len + in_channels_ * plen, 0.0f);
  float* gt = scratch.data();
  float* gbias = gt + out_len * fch;
  float* gwt = gbias + fch;
  float* gcols = gwt + patch * fch;
  float* gpad = gcols + patch * out_len;

  Tensor grad_input(input_shape_);
  const float* g = grad_output.data().data();
  const float* w = w_.data().data();
  const float* cols = cols_.data();
  float* bg = b_grad_.data().data();
  float* gi = grad_input.data().data();
  // Samples run in order, so every gradient element accumulates over
  // (sample, position) ascending — the chain of one [N*L_out]-deep product.
  for (std::size_t b = 0; b < n; ++b) {
    const float* gb = g + b * fch * out_len;
    // The output gradient transposed to [L_out, F], then the bias gradient
    // summed down its rows: lane f adds channel f's gradients in ascending
    // t, the same chain as a per-channel loop, with the channels side by
    // side instead of one serial chain after another.
    kernels::transpose(gb, gt, fch, out_len);
    std::fill(gbias, gbias + fch, 0.0f);
    for (std::size_t t = 0; t < out_len; ++t) {
      util::simd::add_rows<Backend>(gbias, gt + t * fch, fch);
    }
    util::simd::add_rows<Backend>(bg, gbias, fch);

    // dL/dWᵀ += cols[b] · gradᵀ  ([patch, L_out] · [L_out, F]).
    const float* cb = cols + b * patch * out_len;
    kernels::matmul_rows<Backend>(cb, gt, gwt, 0, patch, out_len, fch);

    // dL/dcols = Wᵀ · grad  ([F, patch]ᵀ · [F, L_out]).
    std::fill(gcols, gcols + patch * out_len, 0.0f);
    kernels::matmul_at_rows<Backend>(w, gb, gcols, 0, patch, fch, patch, out_len);

    // col2im: scatter-add each tap row back onto its zero-padded input
    // channel, then keep the unpadded middle. Taps run in descending k, so
    // every input position receives its contributions in ascending output
    // position t. Channels are the inner loop so that consecutive adds
    // touch different rows: a shifted add that re-read the row the previous
    // add had just stored would stall on store forwarding.
    std::fill(gpad, gpad + in_channels_ * plen, 0.0f);
    for (std::size_t k = kernel_; k-- > 0;) {
      for (std::size_t c = 0; c < in_channels_; ++c) {
        float* prow = gpad + c * plen;
        const float* row = gcols + (c * kernel_ + k) * out_len;
        if (stride_ == 1) {
          util::simd::add_rows<Backend>(prow + k, row, out_len);
        } else {
          for (std::size_t t = 0; t < out_len; ++t) {
            prow[t * stride_ + k] += row[t];
          }
        }
      }
    }
    for (std::size_t c = 0; c < in_channels_; ++c) {
      util::simd::copy_row<Backend>(gi + (b * in_channels_ + c) * len,
                                    gpad + c * plen + padding_, len);
    }
  }

  float* wg = w_grad_.data().data();
  for (std::size_t f = 0; f < fch; ++f) {
    for (std::size_t p = 0; p < patch; ++p) {
      wg[f * patch + p] += gwt[p * fch + f];
    }
  }
  return grad_input;
}

std::vector<ParamRef> Conv1D::parameters() {
  return {{&w_, &w_grad_, "weight"}, {&b_, &b_grad_, "bias"}};
}

}  // namespace dtmsv::nn
