// First-order optimisers operating on ParamRef views.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace dtmsv::nn {

/// Optimiser interface: step() applies accumulated gradients and the caller
/// is responsible for zeroing them before the next backward (zero_grad()).
class Optimizer {
 public:
  virtual ~Optimizer() = default;
  Optimizer() = default;
  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  virtual void step() = 0;

  /// Zeroes the gradient of every parameter this optimiser steps, through
  /// the ParamRef list it holds — no per-step list is built.
  void zero_grad();

  /// Clips the global gradient L2 norm to `max_norm` (no-op when below).
  /// Returns the pre-clip norm: the sequential sum's whenever clipping can
  /// fire, else a lane-order sum's, whose last bits may differ by backend.
  /// A NaN or inf gradient returns a non-finite norm and leaves the
  /// gradients as they are.
  double clip_grad_norm(double max_norm);

 protected:
  explicit Optimizer(std::vector<ParamRef> params) : params_(std::move(params)) {}
  std::vector<ParamRef> params_;
};

/// Stochastic gradient descent with optional momentum.
class Sgd final : public Optimizer {
 public:
  Sgd(std::vector<ParamRef> params, double learning_rate, double momentum = 0.0);

  void step() override;

  double learning_rate() const { return lr_; }
  void set_learning_rate(double lr);

 private:
  double lr_;
  double momentum_;
  std::vector<Tensor> velocity_;
};

/// Adam (Kingma & Ba) with bias correction.
class Adam final : public Optimizer {
 public:
  Adam(std::vector<ParamRef> params, double learning_rate, double beta1 = 0.9,
       double beta2 = 0.999, double epsilon = 1e-8);

  void step() override;

  double learning_rate() const { return lr_; }
  void set_learning_rate(double lr);
  std::size_t step_count() const { return t_; }

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double epsilon_;
  std::size_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace dtmsv::nn
