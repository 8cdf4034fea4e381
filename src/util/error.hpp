// Error handling primitives shared by all dtmsv modules.
//
// Follows C++ Core Guidelines I.5/I.7 (state pre/postconditions) and E.x:
// precondition violations are programming errors and throw
// dtmsv::util::PreconditionError; runtime failures (I/O, parse) throw the
// appropriate std exception or dtmsv::util::RuntimeError.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace dtmsv::util {

/// Thrown when a documented precondition of a public API is violated.
class PreconditionError : public std::logic_error {
 public:
  explicit PreconditionError(const std::string& what) : std::logic_error(what) {}
  /// `what` describes the failed check in full and ends with the check's
  /// own text, which starts at `message_offset`.
  PreconditionError(const std::string& what, std::size_t message_offset)
      : std::logic_error(what), message_offset_(message_offset) {}

  /// The check's own text, without the failed expression and source
  /// location (what() when the check gave none).
  const char* message() const noexcept { return what() + message_offset_; }

 private:
  std::size_t message_offset_ = 0;
};

/// Thrown when a documented postcondition or internal invariant fails.
class InvariantError : public std::logic_error {
 public:
  explicit InvariantError(const std::string& what) : std::logic_error(what) {}
};

/// Thrown for recoverable runtime failures (I/O, parsing, missing data).
class RuntimeError : public std::runtime_error {
 public:
  explicit RuntimeError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] void throw_precondition(const char* expr, const char* file, int line,
                                     const std::string& msg);
[[noreturn]] void throw_invariant(const char* expr, const char* file, int line,
                                  const std::string& msg);
}  // namespace detail

/// Runs `check`, a validation of outside input (a config file, a command
/// line), and rethrows a failed precondition as a RuntimeError carrying
/// the check's message alone: the expression and source location help a
/// developer, not whoever wrote the input.
template <typename Check>
void validate_input(Check&& check) {
  try {
    check();
  } catch (const PreconditionError& error) {
    throw RuntimeError(error.message());
  }
}

}  // namespace dtmsv::util

/// Precondition check: active in all build types (cheap checks only).
#define DTMSV_EXPECTS(expr)                                                        \
  do {                                                                             \
    if (!(expr)) {                                                                 \
      ::dtmsv::util::detail::throw_precondition(#expr, __FILE__, __LINE__, "");    \
    }                                                                              \
  } while (false)

#define DTMSV_EXPECTS_MSG(expr, msg)                                               \
  do {                                                                             \
    if (!(expr)) {                                                                 \
      ::dtmsv::util::detail::throw_precondition(#expr, __FILE__, __LINE__, (msg)); \
    }                                                                              \
  } while (false)

/// Postcondition / invariant check.
#define DTMSV_ENSURES(expr)                                                        \
  do {                                                                             \
    if (!(expr)) {                                                                 \
      ::dtmsv::util::detail::throw_invariant(#expr, __FILE__, __LINE__, "");       \
    }                                                                              \
  } while (false)
