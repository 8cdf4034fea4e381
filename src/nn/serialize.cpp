#include "nn/serialize.hpp"

#include <sstream>
#include <string>

#include "util/error.hpp"

namespace dtmsv::nn {

namespace {
constexpr const char* kMagic = "dtmsv-params-v1";
}

void save_parameters(Layer& model, std::ostream& os) {
  const auto params = model.parameters();
  os << kMagic << '\n' << params.size() << '\n';
  os.precision(9);
  for (const auto& p : params) {
    os << p.name << ' ' << p.value->rank();
    for (std::size_t i = 0; i < p.value->rank(); ++i) {
      os << ' ' << p.value->dim(i);
    }
    os << '\n';
    for (const float v : p.value->data()) {
      os << v << ' ';
    }
    os << '\n';
  }
  if (!os) {
    throw util::RuntimeError("save_parameters: stream write failed");
  }
}

void load_parameters(Layer& model, std::istream& is) {
  std::string magic;
  is >> magic;
  if (magic != kMagic) {
    throw util::RuntimeError("load_parameters: bad magic '" + magic + "'");
  }
  std::size_t count = 0;
  is >> count;
  auto params = model.parameters();
  if (count != params.size()) {
    std::ostringstream msg;
    msg << "load_parameters: parameter count mismatch (file " << count
        << ", model " << params.size() << ")";
    throw util::RuntimeError(msg.str());
  }
  for (auto& p : params) {
    std::string name;
    std::size_t rank = 0;
    is >> name >> rank;
    if (rank != p.value->rank()) {
      throw util::RuntimeError("load_parameters: rank mismatch for " + name);
    }
    for (std::size_t i = 0; i < rank; ++i) {
      std::size_t d = 0;
      is >> d;
      if (d != p.value->dim(i)) {
        throw util::RuntimeError("load_parameters: shape mismatch for " + name);
      }
    }
    for (float& v : p.value->data()) {
      is >> v;
    }
    if (!is) {
      throw util::RuntimeError("load_parameters: truncated stream at " + name);
    }
  }
}

void copy_parameters(Layer& src, Layer& dst) {
  const auto from = src.parameters();
  auto to = dst.parameters();
  DTMSV_EXPECTS_MSG(from.size() == to.size(), "copy_parameters: layout mismatch");
  for (std::size_t i = 0; i < from.size(); ++i) {
    DTMSV_EXPECTS_MSG(same_shape(*from[i].value, *to[i].value),
                      "copy_parameters: shape mismatch");
    *to[i].value = *from[i].value;
  }
}

}  // namespace dtmsv::nn
