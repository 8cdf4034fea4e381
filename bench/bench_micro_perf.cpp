// MICRO — google-benchmark timings of every pipeline stage, sized to the
// paper scenario (120 users). Answers "can this run at the edge every
// 5-minute interval?" — the whole per-interval pipeline must be orders of
// magnitude faster than the interval itself.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "analysis/swiping.hpp"
#include "bench_to_json.hpp"
#include "clustering/kmeans.hpp"
#include "clustering/metrics.hpp"
#include "core/feature_compressor.hpp"
#include "core/group_constructor.hpp"
#include "mobility/random_waypoint.hpp"
#include "nn/conv1d.hpp"
#include "nn/tensor.hpp"
#include "predict/channel_predictor.hpp"
#include "predict/demand.hpp"
#include "rl/ddqn.hpp"
#include "twin/column_store.hpp"
#include "twin/store.hpp"
#include "twin/udt.hpp"
#include "util/parallel.hpp"
#include "wireless/channel.hpp"

// ------------------------------------------------------------ alloc probe
// Global operator new/delete replacements that count heap allocations, so
// benches can report allocs/iteration (e.g. to pin the zero-copy embed
// path at a constant allocation count independent of user count).
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

clustering::Points random_points(std::size_t n, std::size_t dim, util::Rng& rng) {
  clustering::Points points(n, dim);
  double* rows = points.data();
  for (std::size_t i = 0; i < n * dim; ++i) {
    rows[i] = rng.uniform();
  }
  return points;
}

nn::Tensor random_tensor(nn::Shape shape, util::Rng& rng) {
  nn::Tensor t(std::move(shape));
  for (float& v : t.data()) {
    v = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

/// Flat random window batch (the interval path's layout: one float matrix).
std::vector<float> random_window_data(std::size_t n, std::size_t size,
                                      util::Rng& rng) {
  std::vector<float> data(n * size);
  for (float& v : data) {
    v = static_cast<float>(rng.uniform());
  }
  return data;
}

/// Populates a twin store with a paper-shaped 600 s history per user:
/// 1 Hz channel reports, 0.2 Hz location, sparse watch/preference samples.
void populate_store(twin::TwinStore& store, util::Rng& rng) {
  twin::TwinColumnStore& columns = store.columns();
  for (std::size_t u = 0; u < store.user_count(); ++u) {
    for (int t = 0; t < 600; ++t) {
      columns.record_channel(u, t, {rng.uniform(0.0, 25.0), rng.uniform(0.1, 5.0), 0});
      if (t % 5 == 0) {
        columns.record_location(u, t,
                                {rng.uniform(0.0, 1200.0), rng.uniform(0.0, 1000.0)});
      }
      if (t % 20 == 0) {
        twin::WatchObservation w;
        w.category = video::all_categories()[static_cast<std::size_t>(t / 20) %
                                             video::kCategoryCount];
        w.watch_seconds = rng.uniform(1.0, 15.0);
        w.watch_fraction = rng.uniform();
        w.duration_s = 15.0;
        columns.record_watch(u, t, w);
      }
      if (t % 60 == 0) {
        columns.record_preference(u, t, columns.estimator(u).estimate());
      }
    }
  }
}

void BM_KMeansPlusPlusInit(benchmark::State& state) {
  util::Rng rng(1);
  const auto points = random_points(static_cast<std::size_t>(state.range(0)), 8, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clustering::kmeans_plus_plus_init(points, 8, rng));
  }
}
BENCHMARK(BM_KMeansPlusPlusInit)->Arg(120)->Arg(500);

void BM_KMeansFull(benchmark::State& state) {
  util::Rng rng(2);
  const auto points = random_points(static_cast<std::size_t>(state.range(0)), 8, rng);
  clustering::KMeansOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(clustering::k_means(points, 8, rng, opts));
  }
}
BENCHMARK(BM_KMeansFull)->Arg(120)->Arg(500);

void BM_Silhouette(benchmark::State& state) {
  util::Rng rng(3);
  const auto points = random_points(static_cast<std::size_t>(state.range(0)), 8, rng);
  const auto result = clustering::k_means(points, 8, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clustering::silhouette(points, result.assignment));
  }
}
BENCHMARK(BM_Silhouette)->Arg(120)->Arg(500);

void BM_SilhouetteSampled(benchmark::State& state) {
  util::Rng rng(3);
  const auto points = random_points(static_cast<std::size_t>(state.range(0)), 8, rng);
  const auto result = clustering::k_means(points, 8, rng);
  util::Rng sample_rng(33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        clustering::silhouette_sampled(points, result.assignment, 256, sample_rng));
  }
}
BENCHMARK(BM_SilhouetteSampled)->Arg(500)->Arg(2000);

void BM_CnnEmbedBatched(benchmark::State& state) {
  const auto users = static_cast<std::size_t>(state.range(0));
  core::CompressorConfig cfg;
  core::FeatureCompressor comp(cfg, 4);
  util::Rng rng(6);
  const auto data = random_window_data(users, comp.input_size(), rng);
  const twin::WindowBatch windows(data.data(), users, comp.input_size());
  benchmark::DoNotOptimize(comp.embed(windows));  // warm the batch buffer
  const std::uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(comp.embed(windows));
  }
  const std::uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs/iter"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
  state.counters["users/iter"] = static_cast<double>(users);
}
BENCHMARK(BM_CnnEmbedBatched)->Arg(120)->Arg(1000);

void BM_CnnFitEpoch120Users(benchmark::State& state) {
  core::CompressorConfig cfg;
  cfg.epochs_per_fit = 1;
  core::FeatureCompressor comp(cfg, 6);
  util::Rng rng(7);
  const auto data = random_window_data(120, comp.input_size(), rng);
  const twin::WindowBatch windows(data.data(), 120, comp.input_size());
  benchmark::DoNotOptimize(comp.fit(windows));  // warm the layer scratch
  const std::uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(comp.fit(windows));
  }
  const std::uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs/iter"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_CnnFitEpoch120Users);

// --------------------------------------------------- twin snapshot plane
// Columnar feature extraction at paper scale (120 users) and fleet scale
// (10k users). Full = every row re-extracted from the SoA rings;
// Incremental = the churn workload, where between consecutive snapshots of
// the same window geometry only ~1% of users report fresh samples and the
// arena serves everyone else from cached rows.

void BM_TwinSnapshotFull(benchmark::State& state) {
  const auto users = static_cast<std::size_t>(state.range(0));
  twin::TwinStore store(users);
  util::Rng rng(31);
  populate_store(store, rng);
  twin::FeatureArena arena;
  const twin::WindowSpec spec{600.0, 600.0, 32, {1200.0, 1000.0, 10.0, 40.0}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.columns().feature_windows(spec, arena, /*force_full=*/true));
  }
  state.counters["rows/iter"] = static_cast<double>(users);
}
BENCHMARK(BM_TwinSnapshotFull)->Arg(120)->Arg(10000);

void BM_TwinSnapshotIncremental(benchmark::State& state) {
  const auto users = static_cast<std::size_t>(state.range(0));
  twin::TwinStore store(users);
  util::Rng rng(32);
  populate_store(store, rng);
  twin::FeatureArena arena;
  const twin::WindowSpec spec{600.0, 600.0, 32, {1200.0, 1000.0, 10.0, 40.0}};
  benchmark::DoNotOptimize(store.columns().feature_windows(spec, arena));  // warm
  const std::size_t churned = std::max<std::size_t>(1, users / 100);
  std::size_t next = 0;
  for (auto _ : state) {
    // Churn workload: a handful of users report inside the window, the
    // rest are untouched since the previous snapshot.
    for (std::size_t i = 0; i < churned; ++i) {
      store.columns().record_channel((next++) % users, 599.5,
                                     {rng.uniform(0.0, 25.0), rng.uniform(0.1, 5.0), 0});
    }
    benchmark::DoNotOptimize(store.columns().feature_windows(spec, arena));
  }
  state.counters["rows/iter"] = static_cast<double>(churned);
}
BENCHMARK(BM_TwinSnapshotIncremental)->Arg(120)->Arg(10000);

void BM_DdqnAct(benchmark::State& state) {
  rl::DdqnConfig cfg;
  cfg.state_dim = 20;
  cfg.action_count = 11;
  rl::DdqnAgent agent(cfg, 8);
  std::vector<float> s(20, 0.5f);
  benchmark::DoNotOptimize(agent.act(s));  // warm the single-state scratch
  const std::uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.act(s));
  }
  const std::uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs/iter"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_DdqnAct);

void BM_DdqnActBatched(benchmark::State& state) {
  const auto users = static_cast<std::size_t>(state.range(0));
  rl::DdqnConfig cfg;
  cfg.state_dim = 20;
  cfg.action_count = 11;
  rl::DdqnAgent agent(cfg, 8);
  util::Rng rng(26);
  std::vector<float> states(users * 20);
  for (float& v : states) {
    v = static_cast<float>(rng.uniform());
  }
  benchmark::DoNotOptimize(agent.greedy_actions(states, users));  // warm
  const std::uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.greedy_actions(states, users));
  }
  const std::uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs/iter"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
  state.counters["users/iter"] = static_cast<double>(users);
}
BENCHMARK(BM_DdqnActBatched)->Arg(120)->Arg(1000);

void BM_DdqnTrainStep(benchmark::State& state) {
  rl::DdqnConfig cfg;
  cfg.state_dim = 20;
  cfg.action_count = 11;
  cfg.min_replay_before_train = 32;
  rl::DdqnAgent agent(cfg, 9);
  util::Rng rng(10);
  for (int i = 0; i < 256; ++i) {
    rl::Transition t;
    t.state.assign(20, static_cast<float>(rng.uniform()));
    t.next_state.assign(20, static_cast<float>(rng.uniform()));
    t.action = static_cast<std::size_t>(rng.uniform_int(0, 10));
    t.reward = static_cast<float>(rng.uniform());
    agent.observe(std::move(t));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.train_step());
  }
}
BENCHMARK(BM_DdqnTrainStep);

void BM_UdtIngestChannelSample(benchmark::State& state) {
  twin::UserDigitalTwin udt(0);
  double t = 0.0;
  for (auto _ : state) {
    udt.record_channel(t, {12.0, 2.5, 0});
    t += 1.0;
  }
}
BENCHMARK(BM_UdtIngestChannelSample);

void BM_FeatureWindowExtract(benchmark::State& state) {
  twin::UserDigitalTwin udt(0);
  util::Rng rng(11);
  for (int t = 0; t < 600; ++t) {
    udt.record_channel(t, {rng.uniform(0.0, 25.0), rng.uniform(0.0, 5.0), 0});
    if (t % 5 == 0) {
      udt.record_location(t, {rng.uniform(0.0, 1200.0), rng.uniform(0.0, 1000.0)});
    }
  }
  const twin::FeatureScaling scaling{1200.0, 1000.0, 10.0, 40.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(udt.feature_window(600.0, 600.0, 32, scaling));
  }
}
BENCHMARK(BM_FeatureWindowExtract);

void BM_ChannelStep120Users(benchmark::State& state) {
  const auto map = mobility::CampusMap::waterloo_campus();
  util::Rng rng(12);
  wireless::RadioConfig cfg;
  wireless::ChannelModel channel(map, cfg, 120, rng);
  mobility::MobilityConfig mob_cfg;
  util::Rng mob_rng(13);
  mobility::MobilityField field(map, mob_cfg, 120, mob_rng);
  for (auto _ : state) {
    field.advance(1.0);
    channel.step(field.snapshot());
  }
}
BENCHMARK(BM_ChannelStep120Users);

void BM_GroupChannelForecast(benchmark::State& state) {
  util::Rng rng(14);
  std::vector<twin::UserDigitalTwin> twins;
  std::vector<const twin::UserDigitalTwin*> ptrs;
  const auto members = static_cast<std::size_t>(state.range(0));
  twins.reserve(members);
  for (std::size_t u = 0; u < members; ++u) {
    twins.emplace_back(u);
  }
  for (auto& t : twins) {
    for (int s = 0; s < 600; ++s) {
      t.record_channel(s, {rng.uniform(0.0, 25.0), rng.uniform(0.1, 5.0), 0});
    }
    ptrs.push_back(&t);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        predict::forecast_group_channel(ptrs, 600.0, 600.0));
  }
}
BENCHMARK(BM_GroupChannelForecast)->Arg(15)->Arg(60);

void BM_SwipingExpectedMax(benchmark::State& state) {
  analysis::SwipingDistribution dist;
  util::Rng rng(15);
  for (int i = 0; i < 2000; ++i) {
    dist.observe(video::Category::kNews, rng.beta(2.0, 3.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dist.expected_max_watch_fraction(video::Category::kNews, 20));
  }
}
BENCHMARK(BM_SwipingExpectedMax);

void BM_PredictGroupDemand(benchmark::State& state) {
  analysis::SwipingDistribution dist;
  util::Rng rng(16);
  for (int i = 0; i < 2000; ++i) {
    for (const auto c : video::all_categories()) {
      dist.observe(c, rng.beta(2.0, 3.0));
    }
  }
  behavior::PreferenceVector mix{};
  mix.fill(1.0 / video::kCategoryCount);
  std::array<std::size_t, video::kCategoryCount> playlist{};
  playlist.fill(6);
  predict::ContentStats content;
  content.mean_duration_s.fill(15.0);
  content.ladder_kbps = video::BitrateLadder::standard().rungs();
  content.ladder_scale_quantiles = {0.9, 0.95, 1.0, 1.05, 1.1};
  predict::DemandModelConfig config;
  predict::GroupChannelForecast forecast;
  forecast.efficiency = 2.0;
  forecast.min_series.assign(600, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(predict::predict_group_demand(
        15, mix, dist, forecast, playlist, content, config));
  }
}
BENCHMARK(BM_PredictGroupDemand);

// ------------------------------------------------------- numeric kernels
// Matmul / conv micro-kernels with a thread-scaling axis: range(0) is the
// square matrix size, range(1) the pool thread count (restored to the
// env/hardware default after each run).

void BM_MatmulTiled(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::set_thread_count(static_cast<std::size_t>(state.range(1)));
  util::Rng rng(21);
  const auto a = random_tensor({n, n}, rng);
  const auto b = random_tensor({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::Tensor::matmul(a, b));
  }
  util::set_thread_count(0);
  state.counters["flops"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * static_cast<double>(n) * static_cast<double>(n),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_MatmulTiled)->ArgsProduct({{128, 256}, {1, 2, 4}});

void BM_MatmulBt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::set_thread_count(static_cast<std::size_t>(state.range(1)));
  util::Rng rng(22);
  const auto a = random_tensor({n, n}, rng);
  const auto b = random_tensor({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::Tensor::matmul_bt(a, b));
  }
  util::set_thread_count(0);
}
BENCHMARK(BM_MatmulBt)->ArgsProduct({{256}, {1, 2, 4}});

void BM_MatmulAt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::set_thread_count(static_cast<std::size_t>(state.range(1)));
  util::Rng rng(23);
  const auto a = random_tensor({n, n}, rng);
  const auto b = random_tensor({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::Tensor::matmul_at(a, b));
  }
  util::set_thread_count(0);
}
BENCHMARK(BM_MatmulAt)->ArgsProduct({{256}, {1, 2, 4}});

void BM_Conv1DForward(benchmark::State& state) {
  util::set_thread_count(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(24);
  // The compressor's first stage at paper scale: 120 users, 11 channels,
  // 32 timesteps, 16 filters of width 5.
  nn::Conv1D conv(11, 16, 5, rng, /*stride=*/1, /*padding=*/2);
  const auto input = random_tensor({120, 11, 32}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(input));
  }
  util::set_thread_count(0);
}
BENCHMARK(BM_Conv1DForward)->Arg(1)->Arg(2)->Arg(4);

void BM_Conv1DBackward(benchmark::State& state) {
  util::set_thread_count(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(25);
  nn::Conv1D conv(11, 16, 5, rng, /*stride=*/1, /*padding=*/2);
  const auto input = random_tensor({120, 11, 32}, rng);
  const auto upstream = random_tensor({120, 16, 32}, rng);
  benchmark::DoNotOptimize(conv.forward(input));
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.backward(upstream));
  }
  util::set_thread_count(0);
}
BENCHMARK(BM_Conv1DBackward)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

DTMSV_BENCHMARK_MAIN_JSON("BENCH_micro_perf.json");
