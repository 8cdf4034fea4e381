#include "nn/loss.hpp"

#include <cmath>

namespace dtmsv::nn {

LossResult mse_loss(const Tensor& prediction, const Tensor& target) {
  DTMSV_EXPECTS_MSG(same_shape(prediction, target), "mse_loss: shape mismatch");
  LossResult result;
  result.value = mse_loss(prediction, target.data(), result.grad);
  return result;
}

float mse_loss(const Tensor& prediction, std::span<const float> target, Tensor& grad) {
  DTMSV_EXPECTS_MSG(prediction.size() == target.size(), "mse_loss: shape mismatch");
  DTMSV_EXPECTS(!prediction.empty());
  const auto n = static_cast<float>(prediction.size());
  grad.resize(prediction.shape());
  auto g = grad.data();
  const auto p = prediction.data();
  float total = 0.0f;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const float err = p[i] - target[i];
    total += err * err;
    g[i] = 2.0f * err / n;
  }
  return total / n;
}

namespace {
std::size_t masked_count(const Tensor& mask) {
  std::size_t n = 0;
  for (const float m : mask.data()) {
    if (m != 0.0f) {
      ++n;
    }
  }
  return n;
}
}  // namespace

LossResult masked_huber_loss(const Tensor& prediction, const Tensor& target,
                             const Tensor& mask, float delta) {
  DTMSV_EXPECTS_MSG(same_shape(prediction, target) && same_shape(prediction, mask),
                    "masked_huber_loss: shape mismatch");
  DTMSV_EXPECTS(delta > 0.0f);
  const std::size_t count = masked_count(mask);
  DTMSV_EXPECTS_MSG(count > 0, "masked_huber_loss: empty mask");
  const auto n = static_cast<float>(count);
  LossResult result;
  result.grad = Tensor(prediction.shape());
  auto g = result.grad.data();
  const auto p = prediction.data();
  const auto t = target.data();
  const auto m = mask.data();
  float total = 0.0f;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (m[i] == 0.0f) {
      continue;
    }
    const float err = p[i] - t[i];
    const float abs_err = std::abs(err);
    if (abs_err <= delta) {
      total += 0.5f * err * err;
      g[i] = err / n;
    } else {
      total += delta * (abs_err - 0.5f * delta);
      g[i] = (err > 0.0f ? delta : -delta) / n;
    }
  }
  result.value = total / n;
  return result;
}

}  // namespace dtmsv::nn
