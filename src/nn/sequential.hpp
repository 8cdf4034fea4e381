// Sequential layer container: owns layers, chains forward/backward, and
// aggregates parameters for the optimiser.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace dtmsv::nn {

/// A feed-forward stack of layers executed in order. It owns no buffers of
/// its own: forward() hands each layer the previous layer's output buffer
/// and returns the last one's, backward() likewise.
class Sequential final : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer; returns *this for fluent construction.
  Sequential& add(std::unique_ptr<Layer> layer);

  /// Convenience: constructs the layer in place.
  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& grad_output) override;
  /// Backward through every layer, with the first layer's input gradient
  /// skipped (Layer::backward_params) — the training step's form.
  void backward_params(const Tensor& grad_output) override;
  std::vector<ParamRef> parameters() override;
  std::string name() const override { return "Sequential"; }

  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i);

  /// Total number of learnable scalars.
  std::size_t parameter_count();

 private:
  /// Shared body: layers last to second run backward(); the first runs
  /// backward() when `input_grad`, else backward_params(). Returns the
  /// first layer's input gradient, or null without `input_grad`.
  const Tensor* backward_pass(const Tensor& grad_output, bool input_grad);

  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace dtmsv::nn
