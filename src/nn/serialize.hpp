// Parameter (de)serialisation: a simple, versioned text format so trained
// compressors / Q-networks can be saved and reloaded between runs, and so
// target networks can be cloned from online networks.
#pragma once

#include <iosfwd>

#include "nn/layer.hpp"

namespace dtmsv::nn {

/// Writes all parameters of `model` to the stream.
void save_parameters(Layer& model, std::ostream& os);

/// Loads parameters into `model`; shapes must match exactly, otherwise
/// util::RuntimeError is thrown.
void load_parameters(Layer& model, std::istream& is);

/// Copies parameter values from `src` into `dst` (shapes must match).
/// Used for target-network synchronisation in DDQN.
void copy_parameters(Layer& src, Layer& dst);

}  // namespace dtmsv::nn
