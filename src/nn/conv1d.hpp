// 1-D convolution over time-series data — the compressor the paper applies
// to UDT attribute histories ("we first utilize a one-dimensional
// convolution neural network to compress the time-series UDTs' data").
#pragma once

#include <vector>

#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace dtmsv::nn {

/// Conv1D mapping [N, in_channels, L] -> [N, out_channels, L_out]
/// with L_out = (L + 2*padding - kernel) / stride + 1 (zero padding).
class Conv1D final : public Layer {
 public:
  Conv1D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         util::Rng& rng, std::size_t stride = 1, std::size_t padding = 0);

  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<ParamRef> parameters() override;
  std::string name() const override { return "Conv1D"; }

  std::size_t in_channels() const { return in_channels_; }
  std::size_t out_channels() const { return out_channels_; }
  std::size_t kernel() const { return kernel_; }
  std::size_t stride() const { return stride_; }
  std::size_t padding() const { return padding_; }

  /// Output length for a given input length; throws if the geometry is invalid.
  std::size_t output_length(std::size_t input_length) const;

  Tensor& weights() { return w_; }
  Tensor& bias() { return b_; }

 private:
  /// The body of backward() and backward_params(): accumulates the
  /// parameter gradients and, when `input_grad`, writes dL/dinput into
  /// grad_input_.
  void backward_pass(const Tensor& grad_output, bool input_grad);

  std::size_t in_channels_;
  std::size_t out_channels_;
  std::size_t kernel_;
  std::size_t stride_;
  std::size_t padding_;
  Tensor w_;        // [out_ch, in_ch, kernel]
  Tensor b_;        // [out_ch]
  Tensor w_grad_;
  Tensor b_grad_;
  // im2col of the last forward input, kept for backward and reused across
  // calls (resized per call; capacity only grows, so it retains what the
  // largest batch needs: one minibatch in the compressor, whose embed runs
  // in batch_size chunks too). Laid out [N][in_ch*kernel][L_out]: row
  // (c, k) of sample b is input channel c shifted by tap k across every
  // output position, so the forward product per sample lands straight in
  // [out_ch, L_out].
  std::vector<float> cols_;
  Shape input_shape_;
  // The remaining buffers are reused the same way.
  Tensor output_;      // [N, out_ch, L_out]
  Tensor grad_input_;  // [N, in_ch, L]
  std::vector<float> w_t_;      // the weights transposed, [in_ch*kernel, out_ch]
  std::vector<float> padded_;   // zero-padded staging, [N, in_ch, L + 2*padding]
  std::vector<float> scratch_;  // backward_pass's working set (laid out there)
};

}  // namespace dtmsv::nn
