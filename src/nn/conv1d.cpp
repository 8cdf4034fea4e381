#include "nn/conv1d.hpp"

#include <algorithm>

#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace dtmsv::nn {

namespace {

using Backend = util::simd::default_backend;

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

const Tensor& Conv1D::forward(const Tensor& input) {
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
  w_t_.resize(patch * out_channels_);
  kernels::transpose(w_.data().data(), w_t_.data(), out_channels_, patch);

  output_.resize({n, out_channels_, out_len});
  const float* in = input.data().data();
  const float* wt = w_t_.data();
  const float* bias = b_.data().data();
  float* cols = cols_.data();
  float* o = output_.data().data();
  // Each input channel staged once with its zero padding, so every tap
  // row below is one bounds-free read: row (c, k) of a sample's [patch,
  // L_out] im2col block is padded channel c from offset k. A chunk stages
  // into the padded_ slot of its first sample, so concurrent chunks never
  // share rows, and zeroes it once: the pads are never written after.
  const std::size_t plen = len + 2 * padding_;
  padded_.resize(n * in_channels_ * plen);
  float* padded = padded_.data();
  const std::size_t sample_flops = out_channels_ * patch * out_len;
  // Batches below util::kParallelMinMadds forward multiply-adds run on the
  // calling thread.
  const std::size_t grain = std::max<std::size_t>(1, util::kParallelMinMadds / sample_flops);
  util::parallel_for(0, n, grain, [&](std::size_t b0, std::size_t b1) {
    float* pchunk = padded + b0 * in_channels_ * plen;
    std::fill(pchunk, pchunk + in_channels_ * plen, 0.0f);
    for (std::size_t b = b0; b < b1; ++b) {
      float* cb = cols + b * patch * out_len;
      for (std::size_t c = 0; c < in_channels_; ++c) {
        float* prow = pchunk + c * plen;
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
      std::fill(ob, ob + out_channels_ * out_len, 0.0f);
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
  return output_;
}

const Tensor& Conv1D::backward(const Tensor& grad_output) {
  backward_pass(grad_output, true);
  return grad_input_;
}

void Conv1D::backward_params(const Tensor& grad_output) {
  backward_pass(grad_output, false);
}

void Conv1D::backward_pass(const Tensor& grad_output, bool input_grad) {
  DTMSV_EXPECTS_MSG(!input_shape_.empty(), "Conv1D: backward before forward");
  const std::size_t n = input_shape_[0];
  const std::size_t len = input_shape_[2];
  const std::size_t out_len = output_length(len);
  DTMSV_EXPECTS(grad_output.rank() == 3 && grad_output.dim(0) == n &&
                grad_output.dim(1) == out_channels_ && grad_output.dim(2) == out_len);
  const std::size_t patch = in_channels_ * kernel_;
  const std::size_t fch = out_channels_;
  const std::size_t plen = len + 2 * padding_;
  // The input gradient's Wᵀ·grad product runs over groups of samples side
  // by side, as many as fill one vector: an output row shorter than the
  // vector width would otherwise leave lanes idle. Wider groups measured
  // slower, their operands falling out of L1.
  const std::size_t group =
      std::clamp<std::size_t>(util::simd::pack<float, Backend>::width / out_len, 1, n);
  const std::size_t max_width = group * out_len;
  // scratch_ holds, in order: a sample's output gradient transposed
  // [L_out, F] and its bias gradient [F]; the weight gradient transposed
  // and summed over the batch [patch, F]; and, for the input gradient, a
  // group's output gradient side by side [F, group*L_out] (its sample j's
  // positions at columns j*L_out..), the group's im2col gradient
  // [patch, group*L_out] and one sample's input gradient zero-padded
  // [in_ch, L + 2*padding].
  scratch_.resize(out_len * fch + fch + patch * fch +
                  (input_grad ? (fch + patch) * max_width + in_channels_ * plen : 0));
  float* gt = scratch_.data();
  float* gbias = gt + out_len * fch;
  float* gwt = gbias + fch;
  float* ggroup = gwt + patch * fch;
  float* gcols = ggroup + fch * max_width;
  float* gpad = gcols + patch * max_width;
  std::fill(gwt, gwt + patch * fch, 0.0f);

  const float* g = grad_output.data().data();
  const float* w = w_.data().data();
  const float* cols = cols_.data();
  float* bg = b_grad_.data().data();
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
  }

  float* wg = w_grad_.data().data();
  for (std::size_t f = 0; f < fch; ++f) {
    for (std::size_t p = 0; p < patch; ++p) {
      wg[f * patch + p] += gwt[p * fch + f];
    }
  }
  if (!input_grad) {
    return;
  }

  grad_input_.resize(input_shape_);
  float* gi = grad_input_.data().data();
  for (std::size_t b0 = 0; b0 < n; b0 += group) {
    const std::size_t b1 = std::min(n, b0 + group);
    const std::size_t width = (b1 - b0) * out_len;
    // dL/dcols = Wᵀ · grad  ([F, patch]ᵀ · [F, group*L_out]) for the whole
    // group in one product: each element is the same ascending-f chain as
    // a per-sample product.
    for (std::size_t b = b0; b < b1; ++b) {
      for (std::size_t f = 0; f < fch; ++f) {
        util::simd::copy_row<Backend>(ggroup + f * width + (b - b0) * out_len,
                                      g + (b * fch + f) * out_len, out_len);
      }
    }
    std::fill(gcols, gcols + patch * width, 0.0f);
    kernels::matmul_at_rows<Backend>(w, ggroup, gcols, 0, patch, fch, patch, width);

    for (std::size_t b = b0; b < b1; ++b) {
      // col2im: scatter-add each tap row back onto its zero-padded input
      // channel, then keep the unpadded middle. Taps run in descending k,
      // so every input position receives its contributions in ascending
      // output position t. Channels are the inner loop so that consecutive
      // adds touch different rows: a shifted add that re-read the row the
      // previous add had just stored would stall on store forwarding.
      std::fill(gpad, gpad + in_channels_ * plen, 0.0f);
      for (std::size_t k = kernel_; k-- > 0;) {
        for (std::size_t c = 0; c < in_channels_; ++c) {
          float* prow = gpad + c * plen;
          const float* row = gcols + (c * kernel_ + k) * width + (b - b0) * out_len;
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
  }
}

std::vector<ParamRef> Conv1D::parameters() {
  return {{&w_, &w_grad_, "weight"}, {&b_, &b_grad_, "bias"}};
}

}  // namespace dtmsv::nn
