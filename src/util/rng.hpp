// Deterministic, seedable random number generation for simulation and learning.
//
// All stochastic components in dtmsv draw from Rng so that every experiment
// is exactly reproducible from a single 64-bit seed. The generator is
// xoshiro256** (Blackman & Vigna), seeded through SplitMix64 as its authors
// recommend. Rng and ZipfDistribution provide the distributions the
// simulator needs (uniform, normal, exponential, log-normal, Zipf,
// Dirichlet, categorical) so modules never reach for unseeded global
// randomness.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace dtmsv::util {

/// SplitMix64: used to expand a single seed into xoshiro state, and as a
/// cheap standalone generator for hashing-style use cases.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** PRNG with a full distribution toolkit.
///
/// Satisfies UniformRandomBitGenerator so it can also be handed to <random>
/// distributions, though the built-in methods are preferred for portability
/// of exact streams across standard libraries.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator whose entire stream is determined by `seed`.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Raw 64 random bits.
  result_type operator()() { return next(); }
  result_type next();

  /// Derives an independent child generator; `stream` distinguishes children
  /// created from the same parent state (e.g. one per user).
  Rng fork(std::uint64_t stream);

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal via a 128-layer ziggurat (Marsaglia & Tsang, with
  /// Doornik's ZIGNOR layer constants). One next() per attempt: the top 53
  /// bits give the abscissa, as in uniform(), and the low 7 bits the layer.
  /// About 97% of attempts return after one comparison; the rest take
  /// exp/log for a wedge or the tail beyond r = 3.4426.
  double normal();
  /// Normal with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma);
  /// Exponential with the given rate (> 0); mean is 1/rate.
  double exponential(double rate);
  /// Log-normal: exp(normal(mu, sigma)).
  double lognormal(double mu, double sigma);
  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);
  /// Gamma(shape, scale) via Marsaglia–Tsang. shape > 0, scale > 0.
  double gamma(double shape, double scale);
  /// Beta(a, b) via two gammas. a > 0, b > 0.
  double beta(double a, double b);

  /// Samples an index from unnormalised non-negative weights (sum > 0).
  std::size_t categorical(std::span<const double> weights);

  /// Dirichlet sample with concentration `alpha` (all > 0); returns a
  /// probability vector of the same size.
  std::vector<double> dirichlet(std::span<const double> alpha);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) without replacement.
  std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

 private:
  std::array<std::uint64_t, 4> s_{};
};

// The state is the whole generator: a channel model holds one Rng per
// (user, BS) link, so keep it at four words.
static_assert(sizeof(Rng) == 4 * sizeof(std::uint64_t));

/// Zipf-distributed rank in [0, n) with exponent s >= 0: P(k) ∝ 1/(k+1)^s.
/// The weights 1/(k+1)^s and their ascending-k total are tabulated once;
/// a draw is one uniform() scaled by the total, less the weights in
/// ascending k until it goes negative.
class ZipfDistribution {
 public:
  ZipfDistribution(std::size_t n, double exponent);

  std::size_t sample(Rng& rng) const;
  /// P(rank == k): weight k over the total.
  double pmf(std::size_t k) const;
  std::size_t size() const { return weights_.size(); }

 private:
  std::vector<double> weights_;
  double total_ = 0.0;
};

}  // namespace dtmsv::util
