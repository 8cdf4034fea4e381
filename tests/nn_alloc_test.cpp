// Allocation tests for the 1D-CNN compressor: one minibatch is its whole
// working set, held in layer-owned buffers that are reused across calls.
// After one warm-up call at a shape, a training pass allocates nothing and
// embed allocates only the points it returns, whatever the user count.
//
// A counting global operator new (as in bench_micro_perf) measures it, on
// one thread (as the fleet runs each shard's CNN) and on pools of 2 and 4,
// whose parallel_for dispatches reuse one pool-owned job record.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <tuple>
#include <vector>

#include "clustering/kmeans.hpp"
#include "core/feature_compressor.hpp"
#include "twin/arena.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace dtmsv;

/// Heap allocations made while fn() runs.
template <typename F>
std::uint64_t allocations(F&& fn) {
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  fn();
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

/// The compressor at the shard shape the fleet and serve run: default
/// layer sizes, 16-step windows.
core::CompressorConfig shard_config() {
  core::CompressorConfig cfg;
  cfg.timesteps = 16;
  return cfg;
}

/// Rows of uniform [0, 1) features, one window per user.
std::vector<float> random_rows(std::size_t users, std::size_t width, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> rows(users * width);
  for (float& v : rows) {
    v = static_cast<float>(rng.uniform());
  }
  return rows;
}

/// (users, pool threads).
class CnnAllocations
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
 protected:
  void SetUp() override { util::set_thread_count(std::get<1>(GetParam())); }
  void TearDown() override { util::set_thread_count(0); }
  static std::size_t users() { return std::get<0>(GetParam()); }
};

TEST_P(CnnAllocations, SecondFitAllocatesNothing) {
  const std::size_t users = CnnAllocations::users();
  core::FeatureCompressor comp(shard_config(), 1);
  const auto rows = random_rows(users, comp.input_size(), 2);
  const twin::WindowBatch windows(rows.data(), users, comp.input_size());
  comp.fit(windows);  // warm-up: sizes every buffer for one minibatch

  float loss = 0.0f;
  EXPECT_EQ(allocations([&] { loss = comp.fit(windows); }), 0u);
  EXPECT_TRUE(std::isfinite(loss));
}

TEST_P(CnnAllocations, EmbedAllocatesOnlyItsPoints) {
  const std::size_t users = CnnAllocations::users();
  core::FeatureCompressor comp(shard_config(), 3);
  const auto rows = random_rows(users, comp.input_size(), 4);
  const twin::WindowBatch windows(rows.data(), users, comp.input_size());
  (void)comp.embed(windows);  // warm-up

  clustering::Points points;
  EXPECT_EQ(allocations([&] { points = comp.embed(windows); }), 1u);
  EXPECT_EQ(points.size(), users);
}

// 33 users: one full minibatch and a one-row tail. 625: a fleet shard.
INSTANTIATE_TEST_SUITE_P(UsersThreads, CnnAllocations,
                         ::testing::Combine(::testing::Values(33, 625),
                                            ::testing::Values(1, 2, 4)));

}  // namespace
