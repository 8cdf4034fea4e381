// MICRO — google-benchmark timings of every pipeline stage, sized to the
// paper scenario (120 users). Answers "can this run at the edge every
// 5-minute interval?" — the whole per-interval pipeline must be orders of
// magnitude faster than the interval itself.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "analysis/popularity.hpp"
#include "analysis/recommend.hpp"
#include "analysis/swiping.hpp"
#include "bench_to_json.hpp"
#include "clustering/kmeans.hpp"
#include "clustering/metrics.hpp"
#include "core/feature_compressor.hpp"
#include "core/group_constructor.hpp"
#include "mobility/random_waypoint.hpp"
#include "nn/conv1d.hpp"
#include "nn/optimizer.hpp"
#include "nn/pooling.hpp"
#include "nn/tensor.hpp"
#include "predict/channel_predictor.hpp"
#include "predict/demand.hpp"
#include "rl/ddqn.hpp"
#include "twin/column_store.hpp"
#include "twin/store.hpp"
#include "twin/udt.hpp"
#include "util/parallel.hpp"
#include "util/vmath.hpp"
#include "video/catalog.hpp"
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

// The k-means rows: 120 and 500 users at the 8-d CNN embedding shape, 1000
// users at the 12-d summary-feature shape of the serve loop's bottom rung.
std::size_t grouping_dim(std::size_t users) { return users >= 1000 ? 12 : 8; }

void BM_KMeansPlusPlusInit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  const auto points = random_points(n, grouping_dim(n), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clustering::kmeans_plus_plus_init(points, 8, rng));
  }
}
BENCHMARK(BM_KMeansPlusPlusInit)->Arg(120)->Arg(500)->Arg(1000);

void BM_KMeansFull(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  const auto points = random_points(n, grouping_dim(n), rng);
  clustering::KMeansOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(clustering::k_means(points, 8, rng, opts));
  }
}
BENCHMARK(BM_KMeansFull)->Arg(120)->Arg(500)->Arg(1000);

void BM_Silhouette(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  const auto points = random_points(n, grouping_dim(n), rng);
  const auto result = clustering::k_means(points, 8, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clustering::silhouette(points, result.assignment));
  }
}
BENCHMARK(BM_Silhouette)->Arg(120)->Arg(500)->Arg(1000);

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

void BM_GroupConstructorEncodeState(benchmark::State& state) {
  util::Rng rng(4);
  const auto points = random_points(static_cast<std::size_t>(state.range(0)), 12, rng);
  const core::GroupConstructor constructor(core::GroupConstructorConfig{}, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(constructor.encode_state(points, 4));
  }
}
BENCHMARK(BM_GroupConstructorEncodeState)->Arg(1000);

// The compressor at the shard shape (default layer sizes, 16-step windows)
// over range(0) users, on one thread as the fleet shards and the serve
// loop run it. allocs/iter counts heap allocations after one warm-up call
// at the same shape: embed's is its returned point matrix, and a fit
// epoch's is zero (on more threads too: nn_alloc_test).
core::CompressorConfig shard_compressor() {
  core::CompressorConfig cfg;
  cfg.timesteps = 16;
  return cfg;
}

void BM_CnnEmbedBatched(benchmark::State& state) {
  util::set_thread_count(1);
  const auto users = static_cast<std::size_t>(state.range(0));
  core::FeatureCompressor comp(shard_compressor(), 4);
  util::Rng rng(6);
  const auto data = random_window_data(users, comp.input_size(), rng);
  const twin::WindowBatch windows(data.data(), users, comp.input_size());
  benchmark::DoNotOptimize(comp.embed(windows));  // warm the layer buffers
  const std::uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(comp.embed(windows));
  }
  const std::uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs/iter"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
  state.counters["users/iter"] = static_cast<double>(users);
  util::set_thread_count(0);
}
BENCHMARK(BM_CnnEmbedBatched)->Arg(120)->Arg(625)->Arg(1000);

// One training pass over range(0) users on range(1) threads. Every
// product in it is one 32-row minibatch, below util::kParallelMinMadds, so
// the 4-thread row shows the pool staying out of the way.
void BM_CnnFitEpoch(benchmark::State& state) {
  util::set_thread_count(static_cast<std::size_t>(state.range(1)));
  const auto users = static_cast<std::size_t>(state.range(0));
  core::CompressorConfig cfg = shard_compressor();
  cfg.epochs_per_fit = 1;
  core::FeatureCompressor comp(cfg, 6);
  util::Rng rng(7);
  const auto data = random_window_data(users, comp.input_size(), rng);
  const twin::WindowBatch windows(data.data(), users, comp.input_size());
  benchmark::DoNotOptimize(comp.fit(windows));  // warm the layer buffers
  const std::uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(comp.fit(windows));
  }
  const std::uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs/iter"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
  state.counters["users/iter"] = static_cast<double>(users);
  util::set_thread_count(0);
}
BENCHMARK(BM_CnnFitEpoch)->ArgsProduct({{120, 625}, {1, 4}});

/// Fills every ring of `columns` to capacity at the serve workload's report
/// rates (channel 1 Hz, location every 5 s, a watch event every 18 s, a
/// preference snapshot per 10 s interval) and returns the last report time.
/// Reads then use a short window, so the retained history dwarfs it.
double populate_full_rings(twin::TwinColumnStore& columns, util::Rng& rng) {
  const int seconds = 18 * 256 + 60;  // the sparsest lane (watch) wraps too
  for (std::size_t u = 0; u < columns.user_count(); ++u) {
    for (int t = 0; t < seconds; ++t) {
      columns.record_channel(u, t, {rng.uniform(0.0, 25.0), rng.uniform(0.1, 5.0), 0});
      if (t % 5 == 0) {
        columns.record_location(u, t,
                                {rng.uniform(0.0, 1200.0), rng.uniform(0.0, 1000.0)});
      }
      if (t % 18 == 0) {
        twin::WatchObservation w;
        w.category = video::all_categories()[static_cast<std::size_t>(t / 18) %
                                             video::kCategoryCount];
        w.watch_seconds = rng.uniform(1.0, 15.0);
        w.watch_fraction = rng.uniform();
        w.duration_s = 15.0;
        columns.record_watch(u, t, w);
      }
      if (t % 10 == 0) {
        columns.record_preference(u, t, columns.estimator(u).estimate());
      }
    }
  }
  return static_cast<double>(seconds - 1);
}

// --------------------------------------------------- twin snapshot plane
// Columnar feature extraction at paper scale (120 users) and fleet scale
// (10k users): every row extracted from the SoA rings into a reused arena.

void BM_TwinSnapshotFull(benchmark::State& state) {
  const auto users = static_cast<std::size_t>(state.range(0));
  twin::TwinStore store(users);
  util::Rng rng(31);
  populate_store(store, rng);
  twin::FeatureArena arena;
  const twin::WindowSpec spec{600.0, 600.0, 32, {1200.0, 1000.0, 10.0, 40.0}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.columns().feature_windows(spec, arena));
  }
  state.counters["rows/iter"] = static_cast<double>(users);
}
BENCHMARK(BM_TwinSnapshotFull)->Arg(120)->Arg(10000);

// The summary rung's snapshot as serve takes it: default-capacity rings
// (2048 channel slots) at capacity, read through a 60 s window.
void BM_TwinSummaryFullRing(benchmark::State& state) {
  const auto users = static_cast<std::size_t>(state.range(0));
  twin::TwinStore store(users);
  util::Rng rng(33);
  const double now = populate_full_rings(store.columns(), rng) + 1.0;
  twin::FeatureArena arena;
  const twin::SummarySpec spec{now, 60.0, {1200.0, 1000.0, 10.0, 40.0}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.columns().summary_features(spec, arena));
  }
  state.counters["rows/iter"] = static_cast<double>(users);
}
BENCHMARK(BM_TwinSummaryFullRing)->Arg(1000);

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
  wireless::ChannelModel channel(map, cfg, 120, 1.0, rng);
  mobility::MobilityConfig mob_cfg;
  util::Rng mob_rng(13);
  mobility::MobilityField field(map, mob_cfg, 120, mob_rng);
  for (auto _ : state) {
    field.advance(1.0);
    channel.step(field.snapshot());
  }
}
BENCHMARK(BM_ChannelStep120Users);

// ChannelModel::step alone at n users (625 = one fleet_steady shard),
// cycling through 64 precomputed walker snapshots so users move between
// ticks. "time/user-tick" is the per-user cost of one step.
void BM_ChannelStep(benchmark::State& state) {
  const auto users = static_cast<std::size_t>(state.range(0));
  const auto map = mobility::CampusMap::waterloo_campus();
  util::Rng rng(12);
  wireless::ChannelModel channel(map, wireless::RadioConfig{}, users, 1.0, rng);
  util::Rng mob_rng(13);
  mobility::MobilityField field(map, mobility::MobilityConfig{}, users, mob_rng);
  std::vector<std::vector<mobility::Position>> ticks;
  for (int t = 0; t < 64; ++t) {
    field.advance(1.0);
    ticks.push_back(field.snapshot());
  }
  std::size_t t = 0;
  for (auto _ : state) {
    channel.step(ticks[t++ % ticks.size()]);
  }
  // An inverted per-iteration rate: seconds per user-tick.
  state.counters["time/user-tick"] = benchmark::Counter(
      static_cast<double>(users),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ChannelStep)->Arg(625);

// The channel tick's log10 and exp kernels on the default SIMD backend,
// over 1024 inputs in the model's domains: distances of 1..5000 m and
// shadowing exponents -moved/d_corr in [-4, 0]. "time/elem" per input.
template <typename Kernel>
void run_vmath_bench(benchmark::State& state, double lo, double hi, Kernel kernel) {
  using P = util::simd::pack<double, util::simd::default_backend>;
  constexpr std::size_t kInputs = 1024;
  util::Rng rng(15);
  std::vector<double> in(kInputs);
  std::vector<double> out(kInputs);
  for (double& x : in) {
    x = rng.uniform(lo, hi);
  }
  for (auto _ : state) {
    for (std::size_t i = 0; i < kInputs; i += P::width) {
      kernel(P::load(in.data() + i)).store(out.data() + i);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["time/elem"] = benchmark::Counter(
      static_cast<double>(kInputs),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}

void BM_SimdLog10(benchmark::State& state) {
  run_vmath_bench(state, 1.0, 5000.0, [](auto x) { return util::vmath::log10(x); });
}
BENCHMARK(BM_SimdLog10);

void BM_SimdExp(benchmark::State& state) {
  run_vmath_bench(state, -4.0, 0.0, [](auto x) { return util::vmath::exp(x); });
}
BENCHMARK(BM_SimdExp);

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

// One serve group's channel forecast over full default-capacity rings and a
// 60 s window (160 members: 1000 users in ~6 groups).
void BM_GroupChannelForecastFullRing(benchmark::State& state) {
  const auto members = static_cast<std::size_t>(state.range(0));
  twin::TwinStore store(members);
  util::Rng rng(34);
  const double now = populate_full_rings(store.columns(), rng) + 1.0;
  std::vector<const twin::UserDigitalTwin*> ptrs;
  for (std::size_t u = 0; u < members; ++u) {
    ptrs.push_back(&store.twin(u));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(predict::forecast_group_channel(ptrs, now, 60.0));
  }
}
BENCHMARK(BM_GroupChannelForecastFullRing)->Arg(160);

// One group's playlist against a popularity map that tracks the whole
// default catalog (6 x 200 videos).
void BM_RecommendGroup(benchmark::State& state) {
  util::Rng rng(35);
  const video::Catalog catalog = video::Catalog::generate(video::CatalogConfig{}, rng);
  analysis::PopularityAnalyzer popularity;
  for (std::uint64_t id = 0; id < catalog.size(); ++id) {
    popularity.observe(id, rng.uniform(1.0, 100.0));
  }
  behavior::PreferenceVector preference{};
  for (double& p : preference) {
    p = rng.uniform(0.1, 1.0);
  }
  const analysis::RecommenderConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::recommend(catalog, popularity, preference, config));
  }
  state.counters["tracked"] = static_cast<double>(popularity.tracked_count());
}
BENCHMARK(BM_RecommendGroup);

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

// The encoder's convolutions at the shape training runs them, one thread:
// a 32-row minibatch of T = 16 windows. range(0) is the layer: 1 is
// 11 -> 16 channels, width 5, on 16 steps; 2 is 16 -> 32 channels, width 3,
// on the 8 steps left after pooling.
nn::Conv1D minibatch_conv(std::size_t layer, util::Rng& rng) {
  return layer == 1 ? nn::Conv1D(11, 16, 5, rng, /*stride=*/1, /*padding=*/2)
                    : nn::Conv1D(16, 32, 3, rng, /*stride=*/1, /*padding=*/1);
}

nn::Shape minibatch_conv_input(std::size_t layer) {
  return layer == 1 ? nn::Shape{32, 11, 16} : nn::Shape{32, 16, 8};
}

void BM_Conv1DMinibatchForward(benchmark::State& state) {
  util::set_thread_count(1);
  const auto layer = static_cast<std::size_t>(state.range(0));
  util::Rng rng(26);
  nn::Conv1D conv = minibatch_conv(layer, rng);
  const auto input = random_tensor(minibatch_conv_input(layer), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(input));
  }
  util::set_thread_count(0);
}
BENCHMARK(BM_Conv1DMinibatchForward)->Arg(1)->Arg(2);

void BM_Conv1DMinibatchBackward(benchmark::State& state) {
  util::set_thread_count(1);
  const auto layer = static_cast<std::size_t>(state.range(0));
  util::Rng rng(27);
  nn::Conv1D conv = minibatch_conv(layer, rng);
  const auto input = random_tensor(minibatch_conv_input(layer), rng);
  const nn::Tensor& output = conv.forward(input);
  const auto upstream = random_tensor(output.shape(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.backward(upstream));
  }
  util::set_thread_count(0);
}
BENCHMARK(BM_Conv1DMinibatchBackward)->Arg(1)->Arg(2);

// One Adam step over range(0) parameters in one tensor: 14744 is the
// compressor at T=16 (the serve benchmark's window), 26184 at T=32.
void BM_AdamStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(26);
  nn::Tensor value = random_tensor({n}, rng);
  nn::Tensor grad = random_tensor({n}, rng);
  nn::Adam adam({{&value, &grad, "p"}}, 1e-3);
  for (auto _ : state) {
    adam.step();
    benchmark::DoNotOptimize(value.data().data());
  }
  state.counters["params"] = static_cast<double>(n);
}
BENCHMARK(BM_AdamStep)->Arg(14744)->Arg(26184);

// clip_grad_norm over range(0) gradients in one tensor (sizes as for
// BM_AdamStep), at max_norm 10 as the compressor clips. The gradients sit
// far below the clipping margin, as every norm measured on the benchmark
// workloads did, so this times the lane-sum path that runs there.
void BM_ClipGradNorm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(28);
  nn::Tensor value = random_tensor({n}, rng);
  nn::Tensor grad = random_tensor({n}, rng);
  grad *= 1e-3f;
  nn::Adam adam({{&value, &grad, "p"}}, 1e-3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(adam.clip_grad_norm(10.0));
  }
  state.counters["params"] = static_cast<double>(n);
}
BENCHMARK(BM_ClipGradNorm)->Arg(14744)->Arg(26184);

// The compressor's pooling stage on one training batch: 32 users, 16
// conv1 filters, 32 steps, window 2.
void BM_MaxPool1DForward(benchmark::State& state) {
  util::Rng rng(27);
  nn::MaxPool1D pool(2);
  const auto input = random_tensor({32, 16, 32}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.forward(input));
  }
}
BENCHMARK(BM_MaxPool1DForward);

}  // namespace

DTMSV_BENCHMARK_MAIN_JSON("BENCH_micro_perf.json");
