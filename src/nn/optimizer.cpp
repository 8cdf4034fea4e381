#include "nn/optimizer.hpp"

#include <cmath>

#include "nn/kernels.hpp"

namespace dtmsv::nn {

void Adam::zero_grad() {
  for (auto& p : params_) {
    p.grad->zero();
  }
}

double Adam::clip_grad_norm(double max_norm) {
  DTMSV_EXPECTS(max_norm > 0.0);
  // Decide with a lane-order sum first. Each g² is exact in double and
  // both this sum and the sequential chain below are within (n - 1)·2^-53
  // relative of the exact sum, so a lane sum at most max_norm²/4 puts the
  // chain's norm far below max_norm: nothing would be scaled. A non-finite
  // lane sum means a NaN or inf gradient (float squares cannot overflow
  // double), where the chain is non-finite too.
  double lane_sq = 0.0;
  for (const auto& p : params_) {
    lane_sq += kernels::sum_squares<util::simd::default_backend>(
        p.grad->data().data(), p.grad->size());
  }
  if (lane_sq <= 0.25 * max_norm * max_norm || !std::isfinite(lane_sq)) {
    return std::sqrt(lane_sq);
  }
  double sq = 0.0;
  for (const auto& p : params_) {
    for (const float g : p.grad->data()) {
      sq += static_cast<double>(g) * static_cast<double>(g);
    }
  }
  const double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    const auto scale = static_cast<float>(max_norm / norm);
    for (auto& p : params_) {
      *p.grad *= scale;
    }
  }
  return norm;
}

Adam::Adam(std::vector<ParamRef> params, double learning_rate, double beta1,
           double beta2, double epsilon)
    : params_(std::move(params)),
      lr_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon) {
  DTMSV_EXPECTS(learning_rate > 0.0);
  DTMSV_EXPECTS(beta1 >= 0.0 && beta1 < 1.0);
  DTMSV_EXPECTS(beta2 >= 0.0 && beta2 < 1.0);
  DTMSV_EXPECTS(epsilon > 0.0);
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(p.value->shape());
    v_.emplace_back(p.value->shape());
  }
}

void Adam::step() {
  ++t_;
  const kernels::AdamCoefficients c{
      beta1_,
      beta2_,
      1.0 - beta1_,
      1.0 - beta2_,
      1.0 - std::pow(beta1_, static_cast<double>(t_)),
      1.0 - std::pow(beta2_, static_cast<double>(t_)),
      lr_,
      epsilon_};
  for (std::size_t i = 0; i < params_.size(); ++i) {
    kernels::adam_step<util::simd::default_backend>(
        params_[i].value->data().data(), params_[i].grad->data().data(),
        m_[i].data().data(), v_[i].data().data(), params_[i].value->size(), c);
  }
}

}  // namespace dtmsv::nn
