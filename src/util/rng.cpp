#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace dtmsv::util {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// Ziggurat for the standard normal under f(x) = exp(-x²/2) (unnormalised):
// kZigLayers strips of equal area kZigArea. Strip 0 is the base: a
// rectangle of width x[0] = V/f(r) whose part beyond r stands for the
// tail. Strip i >= 1 spans heights f(x[i])..f(x[i+1]) over [0, x[i]],
// with x[1] = r and x[kZigLayers] = 0. r and V are Doornik's (2005)
// ZIGNOR constants for 128 strips.
constexpr int kZigLayers = 128;
constexpr double kZigR = 3.442619855899;
constexpr double kZigArea = 9.91256303526217e-3;

struct ZigguratTables {
  std::array<double, kZigLayers + 1> x{};
  /// x[i+1] / x[i]: |u| below it lands inside the curve for sure.
  std::array<double, kZigLayers> inner{};

  ZigguratTables() {
    double f = std::exp(-0.5 * kZigR * kZigR);
    x[0] = kZigArea / f;
    x[1] = kZigR;
    for (int i = 2; i < kZigLayers; ++i) {
      x[i] = std::sqrt(-2.0 * std::log(kZigArea / x[i - 1] + f));
      f = std::exp(-0.5 * x[i] * x[i]);
    }
    x[kZigLayers] = 0.0;
    for (int i = 0; i < kZigLayers; ++i) {
      inner[i] = x[i + 1] / x[i];
    }
  }
};

// Built once, on first use (thread-safe static initialisation).
const ZigguratTables& ziggurat() {
  static const ZigguratTables tables;
  return tables;
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) {
    word = sm.next();
  }
  // All-zero state is the one invalid state for xoshiro; SplitMix64 cannot
  // produce four zero outputs in a row from any seed, but keep the guard
  // explicit for clarity.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) {
    s_[0] = 0x1ULL;
  }
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Rng Rng::fork(std::uint64_t stream) {
  // Mix the parent's next output with the stream id through SplitMix64 so
  // sibling forks are decorrelated even for adjacent stream ids.
  SplitMix64 sm(next() ^ (0xD1B54A32D192ED03ULL * (stream + 1)));
  return Rng(sm.next());
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  DTMSV_EXPECTS(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  DTMSV_EXPECTS(lo <= hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next());
  }
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = (~0ULL) - ((~0ULL) % range);
  std::uint64_t draw = 0;
  do {
    draw = next();
  } while (draw > limit);
  return lo + static_cast<std::int64_t>(draw % range);
}

double Rng::normal() {
  const ZigguratTables& zig = ziggurat();
  for (;;) {
    const std::uint64_t bits = next();
    // u uniform in [-1, 1) from the top 53 bits; the layer from the low 7,
    // which the 53-bit abscissa never reads.
    const double u = static_cast<double>(bits >> 11) * 0x1.0p-52 - 1.0;
    const auto i = static_cast<std::size_t>(bits & (kZigLayers - 1));
    if (std::abs(u) < zig.inner[i]) {
      return u * zig.x[i];
    }
    if (i == 0) {
      // Tail beyond r (Marsaglia 1964): x = r + e1/r with e1, e2 ~ Exp(1),
      // accepted when 2·e2 >= (e1/r)². 1 - uniform() lies in (0, 1].
      double excess = 0.0;
      double e2 = 0.0;
      do {
        excess = -std::log(1.0 - uniform()) / kZigR;
        e2 = -std::log(1.0 - uniform());
      } while (2.0 * e2 < excess * excess);
      return u < 0.0 ? -(kZigR + excess) : kZigR + excess;
    }
    // Wedge between x[i+1] and x[i]: accept when a uniform height in
    // [f(x[i]), f(x[i+1])] falls below f(x), all scaled by 1/f(x).
    const double x = u * zig.x[i];
    const double below = std::exp(-0.5 * (zig.x[i] * zig.x[i] - x * x));
    const double above = std::exp(-0.5 * (zig.x[i + 1] * zig.x[i + 1] - x * x));
    if (above + uniform() * (below - above) < 1.0) {
      return x;
    }
  }
}

double Rng::normal(double mean, double sigma) {
  DTMSV_EXPECTS(sigma >= 0.0);
  return mean + sigma * normal();
}

double Rng::exponential(double rate) {
  DTMSV_EXPECTS(rate > 0.0);
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

bool Rng::bernoulli(double p) {
  DTMSV_EXPECTS(p >= 0.0 && p <= 1.0);
  return uniform() < p;
}

double Rng::gamma(double shape, double scale) {
  DTMSV_EXPECTS(shape > 0.0 && scale > 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 and correct with u^(1/shape) (Marsaglia–Tsang note).
    const double u = std::max(uniform(), 1e-300);
    return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) {
      return scale * d * v;
    }
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return scale * d * v;
    }
  }
}

double Rng::beta(double a, double b) {
  DTMSV_EXPECTS(a > 0.0 && b > 0.0);
  const double x = gamma(a, 1.0);
  const double y = gamma(b, 1.0);
  return x / (x + y);
}

std::size_t Rng::categorical(std::span<const double> weights) {
  DTMSV_EXPECTS(!weights.empty());
  double total = 0.0;
  for (const double w : weights) {
    DTMSV_EXPECTS_MSG(w >= 0.0, "categorical weights must be non-negative");
    total += w;
  }
  DTMSV_EXPECTS_MSG(total > 0.0, "categorical weights must not all be zero");
  double draw = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    draw -= weights[i];
    if (draw < 0.0) {
      return i;
    }
  }
  return weights.size() - 1;  // numeric edge: landed exactly on total
}

std::vector<double> Rng::dirichlet(std::span<const double> alpha) {
  DTMSV_EXPECTS(!alpha.empty());
  std::vector<double> out(alpha.size());
  double total = 0.0;
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    DTMSV_EXPECTS(alpha[i] > 0.0);
    out[i] = gamma(alpha[i], 1.0);
    total += out[i];
  }
  if (total <= 0.0) {  // pathological underflow: fall back to uniform
    std::fill(out.begin(), out.end(), 1.0 / static_cast<double>(out.size()));
    return out;
  }
  for (double& v : out) {
    v /= total;
  }
  return out;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n, std::size_t k) {
  DTMSV_EXPECTS(k <= n);
  std::vector<std::size_t> pool(n);
  std::iota(pool.begin(), pool.end(), std::size_t{0});
  // Partial Fisher–Yates: first k entries are the sample.
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(
        uniform_int(static_cast<std::int64_t>(i), static_cast<std::int64_t>(n) - 1));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

ZipfDistribution::ZipfDistribution(std::size_t n, double exponent) {
  DTMSV_EXPECTS(n > 0);
  DTMSV_EXPECTS(exponent >= 0.0);
  weights_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    weights_[k] = 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    total_ += weights_[k];
  }
}

std::size_t ZipfDistribution::sample(Rng& rng) const {
  double draw = rng.uniform() * total_;
  for (std::size_t k = 0; k < weights_.size(); ++k) {
    draw -= weights_[k];
    if (draw < 0.0) {
      return k;
    }
  }
  return weights_.size() - 1;
}

double ZipfDistribution::pmf(std::size_t k) const {
  DTMSV_EXPECTS(k < weights_.size());
  return weights_[k] / total_;
}

}  // namespace dtmsv::util
