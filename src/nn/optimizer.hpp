// The Adam optimiser, operating on ParamRef views.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace dtmsv::nn {

/// Adam (Kingma & Ba) with bias correction. step() applies accumulated
/// gradients and the caller is responsible for zeroing them before the
/// next backward (zero_grad()).
class Adam {
 public:
  Adam(std::vector<ParamRef> params, double learning_rate, double beta1 = 0.9,
       double beta2 = 0.999, double epsilon = 1e-8);
  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  void step();

  /// Zeroes the gradient of every parameter this optimiser steps, through
  /// the ParamRef list it holds — no per-step list is built.
  void zero_grad();

  /// Clips the global gradient L2 norm to `max_norm` (no-op when below).
  /// Returns the pre-clip norm: the sequential sum's whenever clipping can
  /// fire, else a lane-order sum's, whose last bits may differ by backend.
  /// A NaN or inf gradient returns a non-finite norm and leaves the
  /// gradients as they are.
  double clip_grad_norm(double max_norm);

  std::size_t step_count() const { return t_; }

 private:
  std::vector<ParamRef> params_;
  double lr_;
  double beta1_;
  double beta2_;
  double epsilon_;
  std::size_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace dtmsv::nn
