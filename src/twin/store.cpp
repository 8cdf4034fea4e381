#include "twin/store.hpp"

#include <utility>

#include "util/error.hpp"

namespace dtmsv::twin {

TwinStore::TwinStore(std::size_t user_count, std::size_t history_capacity)
    : TwinStore(std::make_unique<TwinColumnStore>(user_count, history_capacity)) {}

TwinStore::TwinStore(std::size_t user_count, RetentionSpan retention)
    : TwinStore(std::make_unique<TwinColumnStore>(user_count, retention)) {}

TwinStore::TwinStore(std::unique_ptr<TwinColumnStore> columns)
    : columns_(std::move(columns)) {
  const std::size_t user_count = columns_->user_count();
  twins_.reserve(user_count);
  for (std::size_t u = 0; u < user_count; ++u) {
    twins_.emplace_back(columns_.get(), u);
  }
}

void TwinStore::reset_user(std::uint64_t user_id) {
  DTMSV_EXPECTS(user_id < twins_.size());
  columns_->reset_user(static_cast<std::size_t>(user_id));
}

const UserDigitalTwin& TwinStore::twin(std::uint64_t user_id) const {
  DTMSV_EXPECTS(user_id < twins_.size());
  return twins_[static_cast<std::size_t>(user_id)];
}

void TwinStore::decay_preferences() { columns_->decay_preferences(); }

}  // namespace dtmsv::twin
