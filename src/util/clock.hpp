// Simulation time primitives. The whole system runs on a discrete clock:
// fine-grained collection ticks (seconds) nested inside coarse reservation
// intervals (the paper uses 5-minute intervals).
#pragma once

#include <cstdint>

namespace dtmsv::util {

/// Simulation time in seconds since simulation start.
using SimTime = double;

/// Index of a resource reservation interval (0-based).
using IntervalId = std::int64_t;

}  // namespace dtmsv::util
