// Weight initialisation.
#pragma once

#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace dtmsv::nn {

/// Xavier/Glorot uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out)).
void xavier_uniform(Tensor& weights, std::size_t fan_in, std::size_t fan_out,
                    util::Rng& rng);

}  // namespace dtmsv::nn
