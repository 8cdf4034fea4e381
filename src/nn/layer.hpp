// Layer abstraction. Layers own their parameters and parameter gradients,
// and their output and input-gradient buffers too; forward() caches
// whatever backward() needs. No autograd graph — the caller (Sequential or
// a loss) drives the backward pass explicitly.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.hpp"

namespace dtmsv::nn {

/// Non-owning view of a parameter tensor and its gradient accumulator.
/// Lifetime: valid while the owning layer is alive (Core Guidelines I.11 —
/// these are views, ownership stays with the layer).
struct ParamRef {
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  std::string name;
};

/// Base class for differentiable layers.
class Layer {
 public:
  virtual ~Layer() = default;

  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Computes outputs; caches activations needed by backward(). The
  /// result is the layer's own output buffer: it stays valid until the
  /// next forward(), which overwrites it, so a caller that keeps an output
  /// across a second forward of the same layer copies it. The buffer is
  /// resized within its capacity, so a forward at a batch size already
  /// seen allocates nothing.
  virtual const Tensor& forward(const Tensor& input) = 0;

  /// Propagates `grad_output` (dL/doutput) to dL/dinput, accumulating
  /// parameter gradients. Must be preceded by a matching forward(). The
  /// result is the layer's own input-gradient buffer, valid until the next
  /// backward().
  virtual const Tensor& backward(const Tensor& grad_output) = 0;

  /// backward() without dL/dinput: accumulates the parameter gradients
  /// only. For the first layer of a network, whose input gradient nobody
  /// reads. Default: backward() with its result dropped; layers whose input
  /// gradient costs real work override it.
  virtual void backward_params(const Tensor& grad_output) { backward(grad_output); }

  /// Parameter views for the optimiser. Default: no parameters.
  virtual std::vector<ParamRef> parameters() { return {}; }

  /// Zeroes all parameter gradients. Builds the parameters() list, so a
  /// training loop zeroes through its optimiser's list instead
  /// (Adam::zero_grad).
  void zero_grad();

  virtual std::string name() const = 0;
};

inline void Layer::zero_grad() {
  for (auto& p : parameters()) {
    p.grad->zero();
  }
}

}  // namespace dtmsv::nn
