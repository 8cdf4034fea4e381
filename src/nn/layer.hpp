// Layer abstraction. Layers own their parameters and parameter gradients;
// forward() caches whatever backward() needs. No autograd graph — the
// caller (Sequential or a loss) drives the backward pass explicitly.
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

  /// Computes outputs; caches activations needed by backward().
  virtual Tensor forward(const Tensor& input) = 0;

  /// Propagates `grad_output` (dL/doutput) to dL/dinput, accumulating
  /// parameter gradients. Must be preceded by a matching forward().
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// backward() without dL/dinput: accumulates the parameter gradients
  /// only. For the first layer of a network, whose input gradient nobody
  /// reads. Default: backward() with its result dropped; layers whose input
  /// gradient costs real work override it.
  virtual void backward_params(const Tensor& grad_output) { backward(grad_output); }

  /// Parameter views for the optimiser. Default: no parameters.
  virtual std::vector<ParamRef> parameters() { return {}; }

  /// Zeroes all parameter gradients.
  void zero_grad();

  virtual std::string name() const = 0;
};

inline void Layer::zero_grad() {
  for (auto& p : parameters()) {
    p.grad->zero();
  }
}

}  // namespace dtmsv::nn
