#include "nn/init.hpp"

#include <cmath>

namespace dtmsv::nn {

void xavier_uniform(Tensor& weights, std::size_t fan_in, std::size_t fan_out,
                    util::Rng& rng) {
  DTMSV_EXPECTS(fan_in > 0 && fan_out > 0);
  const double a = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  for (float& w : weights.data()) {
    w = static_cast<float>(rng.uniform(-a, a));
  }
}

}  // namespace dtmsv::nn
