#include "util/error.hpp"

#include <sstream>

namespace dtmsv::util::detail {

namespace {
std::string format(const char* kind, const char* expr, const char* file, int line,
                   const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) {
    os << " — " << msg;
  }
  return os.str();
}
}  // namespace

void throw_precondition(const char* expr, const char* file, int line,
                        const std::string& msg) {
  const std::string what = format("precondition", expr, file, line, msg);
  throw PreconditionError(what, msg.empty() ? 0 : what.size() - msg.size());
}

void throw_invariant(const char* expr, const char* file, int line,
                     const std::string& msg) {
  throw InvariantError(format("invariant", expr, file, line, msg));
}

}  // namespace dtmsv::util::detail
