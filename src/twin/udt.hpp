// User digital twin (UDT): the edge-hosted mirror of one user's real-time
// status — channel condition, location, watching duration, and preference —
// exactly the four attributes the paper's UDTs collect.
//
// The four histories of every user live in one TwinColumnStore (SoA ring
// buffers shared by the whole cell, twin/column_store.hpp), and every
// reader reads its columns. A UserDigitalTwin only names one user's slot in
// that store. Group analysis still takes its members as a vector of these
// handles: that signature is held for the perfbench harness, whose serve
// replica builds it.
#pragma once

#include <cstddef>

#include "twin/column_store.hpp"
#include "util/error.hpp"

namespace dtmsv::twin {

/// One user's slot inside a columnar twin store.
class UserDigitalTwin {
 public:
  UserDigitalTwin(const TwinColumnStore* store, std::size_t slot)
      : store_(store), slot_(slot) {
    DTMSV_EXPECTS(store != nullptr);
    DTMSV_EXPECTS(slot < store->user_count());
  }

  /// The columnar store backing this twin and the slot inside it.
  const TwinColumnStore& columns() const { return *store_; }
  std::size_t slot() const { return slot_; }

 private:
  const TwinColumnStore* store_;
  std::size_t slot_;
};

}  // namespace dtmsv::twin
