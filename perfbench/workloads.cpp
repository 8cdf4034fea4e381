// Repository benchmark harness: four closed-loop workloads over the two
// ways dtmsv runs, measured end to end (tracing off) or layer by layer
// (--trace 1, a separate run).
//
//   serve_steady        core::ServeLoop, 240 users, default ladder, 50 ms
//   serve_degraded_1k   core::ServeLoop, 1000 users, summary-only ladder
//   fleet_steady        core::SimulationFleet, 10k users / 16 cells
//   fleet_flash_crowd   the same fleet plus a 5k-user surge shard
//
//   perfbench_workloads --workload NAME --seed S --seconds T --trace 0|1
//                       [--smoke] [--trace-out PATH]
//
// perfbench/run.py builds this binary and wraps its output. The seed only
// shapes the inputs (the serve traffic stream, the fleet population); stage
// keys, model sizes and the serve scheme seed are fixed. Every run checks
// its own outputs (event accounting, one prediction per boundary, finite
// positive forecasts, accuracy in [0, 1]) and hashes the forecasts of a
// fixed prefix of intervals into a digest, so two runs with one seed can be
// compared bit for bit. The last stdout line is one JSON object; the
// process exits 1 when any check failed and 2 on bad arguments. `failed`
// counts timed intervals without a valid forecast for every user, so it
// does not depend on the machine's speed.
//
// The serve loops run on a ManualServeClock that reports zero pipeline
// cost, so the degradation ladder never moves and every workload runs one
// fixed rung however fast the machine is (a faster CNN must not turn misses
// into hits and thereby *raise* the measured latency). Turnaround is timed
// here, around advance_to(), with steady_clock.
//
// Each workload sizes the thread pool itself (pin_threads): serve and
// fleet_steady run on one thread, fleet_flash_crowd on two. On a shared
// 4-vCPU VM, four busy threads draw hypervisor steal and long tails, and
// two make each fleet interval wait for the slower of two vCPUs. A CpuTour
// moves the threads across every CPU of the process during set-up and
// timing.
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/popularity.hpp"
#include "analysis/recommend.hpp"
#include "analysis/swiping.hpp"
#include "cli/serve_loader.hpp"
#include "core/event_queue.hpp"
#include "core/fleet.hpp"
#include "core/pipeline.hpp"
#include "core/scenarios.hpp"
#include "core/serve.hpp"
#include "core/serve_workload.hpp"
#include "twin/arena.hpp"
#include "twin/column_store.hpp"
#include "twin/store.hpp"
#include "util/config.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/stats.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace dtmsv;

// ------------------------------------------------------------------ clocks

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (all threads), for pool utilisation.
double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set (VmHWM) in MiB; 0 when /proc is unavailable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// Sizes the pool to `wanted` threads, or to the machine when it is smaller.
/// The workload, not the environment, sets this: forecasts are identical for
/// any count, but timings are only comparable at one.
void pin_threads(std::size_t wanted) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  util::set_thread_count(std::min(wanted, hw));
}

double median(std::vector<double> xs) {
  return xs.empty() ? 0.0 : util::percentile(std::move(xs), 50.0);
}

/// Walks the process across the CPUs it may run on, one step per block of
/// work. Each step pins every thread of the process to the next `width`
/// CPUs of the starting affinity set, in cyclic order.
///
/// On a shared VM each vCPU sits on a host core that other tenants load
/// independently, so a thread left where the scheduler put it measures the
/// load of one host core for the whole run; runs then read 20-40% apart.
/// Visiting every CPU in turn makes each run sample all of them alike.
/// Steps happen between timed intervals, and a block is long enough that
/// the cache refill after a move stays a small part of it. Forecasts do not
/// depend on where a thread runs.
class CpuTour {
 public:
  explicit CpuTour(std::size_t width) : width_(width) {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) {
          cpus_.push_back(c);
        }
      }
    }
  }

  /// Pins all threads to the next window of CPUs. A no-op when the process
  /// may use no more CPUs than the window.
  void step() {
    if (cpus_.size() <= width_) {
      return;
    }
    cpu_set_t window;
    CPU_ZERO(&window);
    for (std::size_t k = 0; k < width_; ++k) {
      CPU_SET(cpus_[(next_ + k) % cpus_.size()], &window);
    }
    next_ = (next_ + 1) % cpus_.size();
    // Pool workers start lazily, so the thread list is read at every step.
    std::error_code error;
    for (const std::filesystem::directory_entry& task :
         std::filesystem::directory_iterator("/proc/self/task", error)) {
      const auto tid = static_cast<pid_t>(std::stol(task.path().filename().string()));
      sched_setaffinity(tid, sizeof window, &window);
    }
  }

 private:
  std::size_t width_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// ------------------------------------------------------------------ checks

/// Collects correctness violations; any entry fails the run.
struct Checks {
  std::vector<std::string> failures;

  void expect(bool ok, const char* what) {
    if (!ok) {
      fail(what);
    }
  }
  void fail(std::string what) {
    if (failures.size() < 20 &&
        std::find(failures.begin(), failures.end(), what) == failures.end()) {
      failures.push_back(std::move(what));
    }
  }
  bool ok() const { return failures.empty(); }
};

bool positive_finite(double x) { return std::isfinite(x) && x > 0.0; }

// ------------------------------------------------------------------ digest

/// FNV-1a over the forecast fields of every GroupReport, in delivery order.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFFu;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add_group(const core::GroupReport& g, util::IntervalId interval) {
    add(static_cast<std::uint64_t>(interval));
    add(static_cast<std::uint64_t>(g.group_id));
    add(static_cast<std::uint64_t>(g.size));
    add(g.predicted_efficiency);
    add(g.predicted_radio_hz);
    add(g.predicted_compute_cycles);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// Checks every forecast as it streams out and hashes the ones delivered
/// while the digest window is open.
class CheckingSink final : public core::ReportSink {
 public:
  explicit CheckingSink(Checks& checks) : checks_(&checks) {}

  void on_group(const core::GroupReport& g, util::IntervalId interval) override {
    if (digest_open) {
      digest.add_group(g, interval);
    }
    checks_->expect(g.size > 0, "empty group reported");
    if (!positive_finite(g.predicted_efficiency) ||
        !positive_finite(g.predicted_radio_hz) ||
        !std::isfinite(g.predicted_compute_cycles) || g.predicted_compute_cycles < 0.0) {
      checks_->fail("non-finite or non-positive forecast in interval " +
                    std::to_string(interval));
      bad_forecast_ = true;
    }
    members_ += g.size;
  }
  void on_interval(const core::EpochReport& report) override {
    intervals.push_back({report.has_prediction, members_, !bad_forecast_});
    members_ = 0;
    bad_forecast_ = false;
  }

  struct IntervalSeen {
    bool has_prediction = false;
    std::size_t members = 0;   // users covered by the interval's groups
    bool forecasts_ok = true;  // every group forecast finite and positive
  };
  /// Interval reports since the caller last cleared this (one per shard).
  std::vector<IntervalSeen> intervals;
  Digest digest;
  bool digest_open = true;

 private:
  Checks* checks_;
  std::size_t members_ = 0;
  bool bad_forecast_ = false;
};

// ------------------------------------------------------------------ tracer

/// In-memory spans (name, start, end, parent, interval), written as Chrome
/// trace JSON at exit and folded into per-layer busy and self time.
class Tracer {
 public:
  struct Span {
    const char* name;
    double start_s;
    double end_s;
    int parent;
    std::int64_t interval;
  };
  struct Layer {
    std::size_t count = 0;
    double busy_s = 0.0;
    double self_s = 0.0;  // busy minus the time direct children cover
  };

  int begin(const char* name, std::int64_t interval) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, wall_s(), 0.0, parent, interval});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = wall_s();
    stack_.pop_back();
  }

  std::size_t span_count() const { return spans_.size(); }

  std::map<std::string, Layer> layers() const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
      }
    }
    std::map<std::string, Layer> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Layer& layer = out[spans_[i].name];
      const double busy = spans_[i].end_s - spans_[i].start_s;
      ++layer.count;
      layer.busy_s += busy;
      layer.self_s += busy - child_s[i];
    }
    return out;
  }

  void write_chrome(const std::string& path) const {
    std::ofstream out(path);
    const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[320];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"interval\":%lld,"
                    "\"parent\":%d}}",
                    i == 0 ? "" : ",\n", s.name, (s.start_s - origin) * 1e6,
                    (s.end_s - s.start_s) * 1e6, static_cast<long long>(s.interval),
                    s.parent);
      out << buf;
    }
    out << "]}\n";
    if (!out) {
      throw std::runtime_error("cannot write trace to " + path);
    }
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::int64_t interval)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(name, interval) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) {
      tracer_->end(id_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Seconds one span costs to record, measured on a throwaway tracer.
double span_cost_s() {
  Tracer throwaway;
  constexpr int kSpans = 20000;
  const double t0 = wall_s();
  for (int i = 0; i < kSpans; ++i) {
    Scope s(&throwaway, "calibrate", i);
  }
  return (wall_s() - t0) / kSpans;
}

/// Per-layer table on stderr: count, busy and self ms per timed interval.
void print_layers(const Tracer& tracer, std::size_t intervals) {
  std::fprintf(stderr, "%-20s %8s %12s %12s\n", "span", "count", "busy ms/int",
               "self ms/int");
  const double n = static_cast<double>(std::max<std::size_t>(1, intervals));
  for (const auto& [name, layer] : tracer.layers()) {
    std::fprintf(stderr, "%-20s %8zu %12.4f %12.4f\n", name.c_str(), layer.count,
                 1e3 * layer.busy_s / n, 1e3 * layer.self_s / n);
  }
}

// ------------------------------------------------------------------ result

struct Result {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> context;  // JSON values
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void info(const std::string& key, const std::string& json_value) {
    context.push_back({key, json_value});
  }
};

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The user-facing percentiles of a turnaround sample, for the context line.
void add_latency_context(Result& result, const std::vector<double>& ms) {
  result.info("p50_ms", json_num(core::latency_percentile(ms, 50.0)));
  result.info("p90_ms", json_num(core::latency_percentile(ms, 90.0)));
  result.info("p99_ms", json_num(core::latency_percentile(ms, 99.0)));
  result.info("samples", std::to_string(ms.size()));
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

/// The intervals one run times, counted after warm-up. The count is fixed by
/// --seconds and the workload's nominal rate (intervals per second, measured
/// at the workload's thread count on a 4-vCPU 2 GHz Xeon VM), not by a
/// deadline: two commits then measure identical work, and a faster
/// build finishes sooner instead of moving on to later intervals (whose
/// twin rings are fuller and costlier to scan). The digest window always
/// completes; the wall cap only stops a run on a stalled machine.
struct Window {
  Window(double per_second, std::size_t digest_intervals, const Options& opt)
      : digest(digest_intervals),
        timed(opt.smoke ? digest_intervals
                        : std::max(digest_intervals,
                                   static_cast<std::size_t>(
                                       std::ceil(per_second * opt.seconds)))),
        cap_s(3.0 * opt.seconds + 30.0) {}

  /// True while interval k (0-based, after warm-up) should still run.
  bool more(std::size_t k, double started) const {
    return k < timed && (k < digest || wall_s() - started < cap_s);
  }

  std::size_t digest;
  std::size_t timed;
  double cap_s;
};

// =================================================================== serve

struct ServeSpec {
  std::size_t users;
  std::string ladder;
  double deadline_ms;
  std::size_t queue_capacity;
  double intervals_per_s;  // nominal timed rate, see Window
  std::size_t threads;     // pool size, see pin_threads
};

constexpr std::size_t kServeWarmup = 6;   // fills the 60 s feature window
constexpr std::size_t kServeBlock = 16;   // timed intervals per CpuTour step
constexpr std::size_t kServeSetups = 12;  // set-ups timed in an untraced run
constexpr double kServeInterval = 10.0;  // seconds of event time

/// The serve plan, built through the same INI loader dtmsv_serve uses.
cli::ServePlan serve_plan(const ServeSpec& spec, std::uint64_t seed) {
  std::ostringstream ini;
  ini << "[serve]\nseed = 42\nuser_count = " << spec.users
      << "\ninterval_s = " << kServeInterval
      << "\nfeature_window_s = 60\nfeature_timesteps = 16\ndeadline_ms = "
      << spec.deadline_ms << "\nqueue_capacity = " << spec.queue_capacity
      << "\nladder = " << spec.ladder
      << "\nstep_down_after = 1\nstep_up_after = 3\ngrouping = ddqn\n"
         "demand = joint\n[workload]\nseed = "
      << seed
      << "\nchannel_period_s = 1\nlocation_period_s = 5\nwatch_period_s = 18\n";
  util::Config config = util::Config::parse(ini.str());
  return cli::load_serve_plan(config);
}

/// Generates interval i's events into `out`.
void generate_interval(core::ServeWorkload& workload, std::size_t i,
                       std::vector<core::TwinEvent>& out) {
  out.clear();
  workload.generate(static_cast<double>(i) * kServeInterval,
                    static_cast<double>(i + 1) * kServeInterval, out);
}

/// One production serve loop plus the client feeding it.
struct ServeRig {
  ServeRig(const cli::ServePlan& plan, Checks& checks)
      : sink(checks),
        loop(plan.serve, clock, &sink),
        workload(plan.workload, loop.catalog()) {}

  void offer() {
    for (const core::TwinEvent& e : events) {
      loop.offer(e);
    }
    offered += events.size();
  }
  void advance(std::size_t i) {
    loop.advance_to(static_cast<double>(i + 1) * kServeInterval);
  }

  core::ManualServeClock clock;  // zero cost: the ladder stays at rung 0
  CheckingSink sink;
  core::ServeLoop loop;
  core::ServeWorkload workload;
  std::vector<core::TwinEvent> events;
  std::uint64_t offered = 0;
};

/// Checks event accounting and the one-prediction-per-boundary contract
/// after `boundaries` intervals. Returns how many intervals from `first` on
/// did not deliver a valid forecast for every user.
std::size_t check_serve_rig(ServeRig& rig, std::size_t first, std::size_t boundaries,
                            std::size_t users, Checks& checks) {
  const core::ServeStats& stats = rig.loop.stats();
  checks.expect(rig.offered == stats.events_ingested + stats.events_dropped +
                                   rig.loop.queue_size(),
                "offered != ingested + dropped + queued");
  checks.expect(stats.intervals == boundaries &&
                    rig.sink.intervals.size() == boundaries,
                "not exactly one prediction per boundary");
  std::size_t failed = boundaries - std::min(boundaries, rig.sink.intervals.size());
  for (std::size_t k = 0; k < rig.sink.intervals.size(); ++k) {
    const CheckingSink::IntervalSeen& seen = rig.sink.intervals[k];
    checks.expect(seen.has_prediction, "interval without prediction");
    checks.expect(seen.members == users, "groups do not cover every user");
    const bool ok = seen.has_prediction && seen.members == users && seen.forecasts_ok;
    if (k >= first && !ok) {
      ++failed;
    }
  }
  checks.expect(stats.steps_down == 0 && stats.steps_up == 0,
                "degradation ladder moved");
  return failed;
}

/// ServeLoop::fire_prediction rebuilt from public calls with one span per
/// layer. It must reproduce the loop's forecasts bit for bit: same RNG fork
/// schedule (feature 6, grouping 7 inside the stage, clustering 9), same
/// construction order, rung 0 only (the benchmark clock never moves the
/// ladder, and rung stages fork from their own source, so building only
/// rung 0 leaves every other stream unchanged).
class ServeReplica {
 public:
  explicit ServeReplica(const core::ServeConfig& config)
      : config_(config),
        rng_(config.scheme.seed),
        catalog_(video::Catalog::generate(config.scheme.session.engagement.catalog,
                                          rng_)),
        content_(predict::ContentStats::from_catalog(catalog_)),
        twins_(std::make_unique<twin::TwinStore>(config.scheme.user_count)),
        queue_(config.queue_capacity),
        popularity_(config.scheme.popularity_forgetting),
        cluster_rng_(0),
        preference_dirty_(config.scheme.user_count, 0) {
    const core::StageRegistry& registry = core::StageRegistry::instance();
    util::Rng feature_fork_source = rng_.fork(6);
    const core::DegradationLevel& rung = config_.degradation.ladder.front();
    core::SchemeConfig stage_config = config_.scheme;
    stage_config.feature_stage = rung.feature_stage;
    util::Rng rung_rng = feature_fork_source.fork(0);
    feature_stage_ = registry.make_feature(rung.feature_stage, stage_config, rung_rng);
    grouping_stage_ = registry.make_grouping(core::grouping_stage_key(config_.scheme),
                                             config_.scheme, rng_);
    demand_stage_ = registry.make_demand(core::demand_stage_key(config_.scheme),
                                         config_.scheme, rng_);
    cluster_rng_ = rng_.fork(9);
  }

  const video::Catalog& catalog() const { return catalog_; }
  const core::EventQueueStats& queue_stats() const { return queue_.stats(); }

  void offer(const std::vector<core::TwinEvent>& events) {
    Scope span(tracer, "queue.offer", interval_);
    for (const core::TwinEvent& e : events) {
      if (e.user >= config_.scheme.user_count) {
        throw std::runtime_error("replica: event user id out of range");
      }
      queue_.push(e);
    }
  }

  void advance_to(util::SimTime t) {
    while (true) {
      const util::SimTime boundary =
          static_cast<double>(interval_ + 1) * config_.scheme.interval_s;
      if (boundary > t) {
        break;
      }
      Scope span(tracer, "serve.advance", interval_);
      {
        Scope drain(tracer, "twin.ingest", interval_);
        queue_.drain_until(boundary, [this](const core::TwinEvent& e) { ingest(e); });
      }
      fire_prediction(boundary);
    }
    queue_.drain_until(t, [this](const core::TwinEvent& e) { ingest(e); });
  }

  Tracer* tracer = nullptr;
  Digest digest;
  bool digest_open = true;
  std::size_t predictions = 0;
  double k_sum = 0.0;  // grouping K summed over predictions
  std::size_t rows_reused = 0;     // arena rows served from cache, summed
  std::size_t rows_extracted = 0;  // arena rows requested, summed

 private:
  void ingest(const core::TwinEvent& event) {
    const std::size_t u = event.user;
    twin::TwinColumnStore& columns = twins_->columns();
    switch (event.kind) {
      case core::TwinEvent::Kind::kChannel:
        columns.record_channel(u, event.time, event.channel);
        break;
      case core::TwinEvent::Kind::kLocation:
        columns.record_location(u, event.time, event.position);
        break;
      case core::TwinEvent::Kind::kWatch:
        columns.record_watch(u, event.time, event.watch);
        popularity_.observe(event.watch.video_id, event.watch.watch_seconds);
        preference_dirty_[u] = 1;
        break;
    }
  }

  void fire_prediction(util::SimTime at) {
    {
      Scope span(tracer, "twin.pref_snapshot", interval_);
      twin::TwinColumnStore& columns = twins_->columns();
      for (std::size_t u = 0; u < preference_dirty_.size(); ++u) {
        if (preference_dirty_[u] != 0) {
          columns.record_preference(u, at, columns.estimator(u).estimate());
          preference_dirty_[u] = 0;
        }
      }
    }

    const core::DegradationLevel& rung = config_.degradation.ladder.front();
    core::TwinSnapshot snapshot;
    snapshot.twins = twins_.get();
    snapshot.now = at;
    snapshot.window_s = config_.scheme.feature_window_s;
    snapshot.timesteps = config_.scheme.feature_timesteps;
    snapshot.scaling = config_.scaling;
    snapshot.arena = &arena_;
    snapshot.force_full = rung.full_extraction;
    {
      // Extract with the rung's mode here; the stage's own extraction then
      // finds every row cached, so its span holds the feature computation
      // alone. Rows are bit-identical either way.
      Scope span(tracer, "twin.extract", interval_);
      const bool summary = rung.feature_stage == "summary";
      if (summary) {
        snapshot.summary_features();
      } else {
        snapshot.feature_windows();
      }
      const twin::ExtractStats& stats =
          summary ? arena_.summary_stats() : arena_.window_stats();
      rows_reused += stats.reused;
      rows_extracted += stats.reused + stats.refreshed;
    }
    snapshot.force_full = false;
    core::FeatureOutput features;
    {
      Scope span(tracer, "feature.extract", interval_);
      features = feature_stage_->extract(snapshot);
    }
    core::GroupingOutcome grouping;
    {
      Scope span(tracer, "grouping.group", interval_);
      grouping = grouping_stage_->group(features.points, cluster_rng_);
    }
    k_sum += static_cast<double>(grouping.k);

    std::vector<std::size_t> members;
    std::vector<const twin::UserDigitalTwin*> member_twins;
    for (std::size_t g = 0; g < grouping.k; ++g) {
      members.clear();
      member_twins.clear();
      for (std::size_t u = 0; u < grouping.assignment.size(); ++u) {
        if (grouping.assignment[u] == g) {
          members.push_back(u);
          member_twins.push_back(&twins_->twin(u));
        }
      }
      if (members.empty()) {
        continue;
      }
      std::optional<analysis::SwipingDistribution> swiping;
      behavior::PreferenceVector preference{};
      analysis::Recommendation recommendation;
      {
        Scope span(tracer, "analysis.abstract", interval_);
        swiping = analysis::build_group_swiping(
            member_twins, at, config_.scheme.feature_window_s,
            config_.scheme.swiping_bins, config_.scheme.swiping_forgetting);
        preference = analysis::aggregate_group_preference(member_twins);
        recommendation = analysis::recommend(catalog_, popularity_, preference,
                                             config_.scheme.recommender);
      }
      core::GroupDemandContext context;
      context.members = &member_twins;
      context.preference = &preference;
      context.swiping = &*swiping;
      context.playlist_per_category = &recommendation.per_category_counts;
      context.content = &content_;
      context.now = at;
      core::GroupDemandForecast forecast;
      {
        Scope span(tracer, "demand.predict", interval_);
        forecast = demand_stage_->predict(context);
      }
      if (digest_open) {
        core::GroupReport report;
        report.group_id = g;
        report.size = members.size();
        report.predicted_efficiency = forecast.efficiency;
        report.predicted_radio_hz = forecast.demand.radio_hz;
        report.predicted_compute_cycles = forecast.demand.compute_cycles;
        digest.add_group(report, interval_);
      }
    }
    {
      Scope span(tracer, "twin.decay", interval_);
      twins_->decay_preferences();
      popularity_.decay();
    }
    ++predictions;
    ++interval_;
  }

  core::ServeConfig config_;
  util::Rng rng_;
  video::Catalog catalog_;
  predict::ContentStats content_;
  std::unique_ptr<twin::TwinStore> twins_;
  twin::FeatureArena arena_;
  core::EventQueue queue_;
  analysis::PopularityAnalyzer popularity_;
  std::unique_ptr<core::FeatureStage> feature_stage_;
  std::unique_ptr<core::GroupingStage> grouping_stage_;
  std::unique_ptr<core::DemandStage> demand_stage_;
  util::Rng cluster_rng_;
  std::vector<std::uint8_t> preference_dirty_;
  util::IntervalId interval_ = 0;
};

Result run_serve(const ServeSpec& spec, const Options& opt, Checks& checks) {
  pin_threads(spec.threads);
  const cli::ServePlan plan = serve_plan(spec, opt.seed);
  const std::size_t users = plan.serve.scheme.user_count;
  const Window window(spec.intervals_per_s, opt.smoke ? 4 : 60, opt);
  const std::size_t digest_end = kServeWarmup + window.digest;

  // Set-up (construction + warm-up), repeated when it is reported, one
  // repetition per tour step: half before the timed window and half after
  // it, so that its median samples the same stretch of machine time as the
  // turnaround. The last rig built before the window is measured.
  CpuTour tour(util::thread_count());
  const std::size_t setups = opt.smoke || opt.trace ? 1 : kServeSetups;
  std::vector<double> setup_samples;
  const auto set_up = [&] {
    tour.step();
    const double t0 = wall_s();
    auto built = std::make_unique<ServeRig>(plan, checks);
    for (std::size_t i = 0; i < kServeWarmup; ++i) {
      generate_interval(built->workload, i, built->events);
      built->offer();
      built->advance(i);
    }
    setup_samples.push_back(wall_s() - t0);
    return built;
  };
  std::unique_ptr<ServeRig> rig;
  for (std::size_t r = 0; r < (setups + 1) / 2; ++r) {
    rig.reset();
    rig = set_up();
  }

  Result result;
  if (!opt.trace) {
    std::vector<double> turnaround_ms;
    std::vector<double> events_per_s;
    double offer_s = 0.0;
    double generate_s = 0.0;
    std::uint64_t offered = 0;
    std::size_t misses = 0;
    const double started = wall_s();
    std::size_t i = kServeWarmup;
    for (; window.more(i - kServeWarmup, started); ++i) {
      rig->sink.digest_open = i < digest_end;
      if ((i - kServeWarmup) % kServeBlock == 0) {
        tour.step();
      }
      const double t0 = wall_s();
      generate_interval(rig->workload, i, rig->events);
      const double t1 = wall_s();
      rig->offer();
      const double t2 = wall_s();
      rig->advance(i);
      const double t3 = wall_s();
      generate_s += t1 - t0;
      offer_s += t2 - t1;
      offered += rig->events.size();
      turnaround_ms.push_back((t3 - t2) * 1e3);
      events_per_s.push_back(static_cast<double>(rig->events.size()) / (t3 - t1));
      if ((t3 - t2) * 1e3 > spec.deadline_ms) {
        ++misses;
      }
    }
    const double elapsed = wall_s() - started;

    const double p50 = core::latency_percentile(turnaround_ms, 50.0);
    result.attempted = turnaround_ms.size();
    result.failed = check_serve_rig(*rig, kServeWarmup, i, users, checks);
    add_latency_context(result, turnaround_ms);
    result.info("deadline_misses", std::to_string(misses));
    result.info("planned", std::to_string(window.timed));
    result.info("events_dropped", std::to_string(rig->loop.stats().events_dropped));
    result.info("events_per_s", json_num(median(events_per_s)));
    result.info("offer_ns_per_event",
                json_num(1e9 * offer_s / static_cast<double>(offered)));
    result.info("generate_share", json_num(generate_s / elapsed));
    result.info("us_per_user_interval", json_num(1e3 * p50 / static_cast<double>(users)));
    result.info("digest", json_str(rig->sink.digest.hex()));
    result.info("digest_intervals", std::to_string(digest_end));

    rig.reset();
    while (setup_samples.size() < setups) {
      set_up();
    }
    result.metric("setup_s", median(setup_samples), "s");
    result.metric("turnaround_p50_ms", p50, "ms");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return result;
  }

  // Traced run: the production loop over the digest window (untraced
  // reference), then the replica with spans over the timed window.
  std::vector<double> loop_ms;
  for (std::size_t i = kServeWarmup; i < digest_end; ++i) {
    if ((i - kServeWarmup) % kServeBlock == 0) {
      tour.step();
    }
    generate_interval(rig->workload, i, rig->events);
    rig->offer();
    const double t0 = wall_s();
    rig->advance(i);
    loop_ms.push_back((wall_s() - t0) * 1e3);
  }
  check_serve_rig(*rig, 0, digest_end, users, checks);
  const std::string loop_digest = rig->sink.digest.hex();
  rig.reset();

  Tracer tracer;
  ServeReplica replica(plan.serve);
  core::ServeWorkload workload(plan.workload, replica.catalog());
  std::vector<core::TwinEvent> events;
  for (std::size_t i = 0; i < kServeWarmup; ++i) {
    generate_interval(workload, i, events);
    replica.offer(events);
    replica.advance_to(static_cast<double>(i + 1) * kServeInterval);
  }
  const core::EventQueueStats before = replica.queue_stats();
  const double k_before = replica.k_sum;
  const std::size_t reused_before = replica.rows_reused;
  const std::size_t extracted_before = replica.rows_extracted;
  replica.tracer = &tracer;
  std::vector<double> replica_ms;  // advance_to only, like loop_ms
  double busy_wall = 0.0;          // offer + advance_to
  double busy_cpu = 0.0;
  const double started = wall_s();
  std::size_t i = kServeWarmup;
  for (; window.more(i - kServeWarmup, started); ++i) {
    replica.digest_open = i < digest_end;
    if ((i - kServeWarmup) % kServeBlock == 0) {
      tour.step();
    }
    generate_interval(workload, i, events);
    const double w0 = wall_s();
    const double c0 = cpu_s();
    double a0 = 0.0;
    {
      Scope span(&tracer, "serve.interval", static_cast<std::int64_t>(i));
      replica.offer(events);
      a0 = wall_s();
      replica.advance_to(static_cast<double>(i + 1) * kServeInterval);
    }
    const double w1 = wall_s();
    busy_cpu += cpu_s() - c0;
    busy_wall += w1 - w0;
    replica_ms.push_back((w1 - a0) * 1e3);
  }
  const std::size_t timed = i - kServeWarmup;
  const std::string replica_digest = replica.digest.hex();
  if (replica_digest != loop_digest) {
    checks.fail("replica digest " + replica_digest + " != loop digest " + loop_digest);
  }
  checks.expect(replica.predictions == i, "replica skipped a prediction");

  const std::map<std::string, Tracer::Layer> layers = tracer.layers();
  const auto busy_s = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.busy_s;
  };
  const auto ms_per_interval = [&](std::initializer_list<const char*> names) {
    double s = 0.0;
    for (const char* n : names) {
      s += busy_s(n);
    }
    return 1e3 * s / static_cast<double>(timed);
  };
  const core::EventQueueStats& qs = replica.queue_stats();
  const auto offered = static_cast<double>(qs.offered - before.offered);

  result.attempted = timed;
  result.metric("ingest.ms",
                ms_per_interval({"queue.offer", "twin.ingest", "twin.pref_snapshot"}),
                "ms");
  result.metric("twin.extract_ms", ms_per_interval({"twin.extract"}), "ms");
  result.metric("twin.arena_reuse_share",
                static_cast<double>(replica.rows_reused - reused_before) /
                    static_cast<double>(replica.rows_extracted - extracted_before),
                "ratio");
  result.metric("twin.report_drop_share",
                static_cast<double>(qs.dropped - before.dropped) / offered, "ratio");
  result.metric("feature.ms", ms_per_interval({"feature.extract"}), "ms");
  result.metric("grouping.ms", ms_per_interval({"grouping.group"}), "ms");
  result.metric("grouping.k", (replica.k_sum - k_before) / static_cast<double>(timed),
                "count");
  result.metric("demand.ms", ms_per_interval({"analysis.abstract", "demand.predict"}),
                "ms");
  result.metric("pool.utilisation",
                busy_cpu / (busy_wall * static_cast<double>(util::thread_count())),
                "ratio");
  result.metric("shard.straggler_ratio", 1.0, "ratio");  // one shard
  result.metric("trace.overhead_share",
                static_cast<double>(tracer.span_count()) * span_cost_s() / busy_wall,
                "ratio");
  result.info("queue_offer_ns_per_event", json_num(1e9 * busy_s("queue.offer") / offered));
  result.info("twin_ingest_ns_per_event", json_num(1e9 * busy_s("twin.ingest") / offered));
  // Like-for-like fidelity check of the replica: same intervals, same span
  // of work (advance_to), spans on vs off.
  replica_ms.resize(std::min(replica_ms.size(), loop_ms.size()));
  result.info("replica_vs_loop_share", json_num(median(replica_ms) / median(loop_ms) - 1.0));
  result.info("digest", json_str(replica_digest));
  result.info("digest_intervals", std::to_string(digest_end));
  result.info("spans", std::to_string(tracer.span_count()));
  print_layers(tracer, timed);
  if (!opt.trace_out.empty()) {
    tracer.write_chrome(opt.trace_out);
  }
  return result;
}

// =================================================================== fleet

struct FleetSpec {
  core::ScenarioKind kind;
  std::size_t users;
  std::size_t cells;
  double intervals_per_s;  // nominal timed rate, see Window
  std::size_t threads;     // pool size, see pin_threads
};

constexpr std::size_t kFleetSetups = 6;  // set-ups timed in an untraced run

/// One fleet plus the fleet interval at which each shard first ran.
struct FleetRig {
  FleetRig(const core::FleetConfig& config, Checks& checks)
      : sink(checks), fleet(config), born(fleet.shard_count(), 0) {}

  CheckingSink sink;
  core::SimulationFleet fleet;
  std::vector<std::size_t> born;
};

core::FleetConfig fleet_config(const core::ScenarioConfig& scenario) {
  core::FleetConfig config;
  config.base = scenario.base;
  config.cell_count = scenario.cell_count;
  config.total_users = scenario.total_users;
  config.seed = scenario.seed;
  return config;
}

/// Runs fleet interval i through the checking sink into `report` and checks
/// it: every shard that ran before i predicted, with valid forecasts whose
/// groups cover its users. Returns false when the interval failed a check.
bool fleet_interval(FleetRig& rig, std::size_t i, Checks& checks,
                    core::FleetReport& report) {
  rig.sink.intervals.clear();
  report = rig.fleet.run_interval(&rig.sink);
  bool ok = rig.sink.intervals.size() == rig.fleet.shard_count() &&
            report.shards.size() == rig.fleet.shard_count();
  checks.expect(ok, "not one interval report per shard");
  for (std::size_t s = 0; s < report.shards.size() && s < rig.sink.intervals.size();
       ++s) {
    const CheckingSink::IntervalSeen& seen = rig.sink.intervals[s];
    if (rig.born[s] < i) {
      if (!report.shards[s].has_prediction || !seen.has_prediction) {
        checks.fail("shard " + std::to_string(s) + " missed a prediction");
        ok = false;
      }
      checks.expect(seen.members == report.shards[s].users,
                    "shard groups do not cover every user");
      ok = ok && seen.members == report.shards[s].users;
    }
    ok = ok && seen.forecasts_ok;
  }
  if (!report.shard_radio_error.empty()) {
    const bool finite = positive_finite(report.predicted_radio_hz_total) &&
                        std::isfinite(report.predicted_compute_total);
    checks.expect(finite, "non-finite fleet forecast");
    ok = ok && finite;
  }
  return ok;
}

Result run_fleet(const FleetSpec& spec, const Options& opt, Checks& checks) {
  pin_threads(spec.threads);
  const core::ScenarioConfig scenario =
      core::make_scenario(spec.kind, spec.users, spec.cells, opt.seed);
  const core::FleetConfig config = fleet_config(scenario);
  const bool flash = spec.kind == core::ScenarioKind::kFlashCrowd;
  const auto surge_users = static_cast<std::size_t>(
      std::llround(scenario.surge_fraction * static_cast<double>(spec.users)));
  // The flash-crowd digest covers the surge, its cold interval and two
  // intervals with the surge shard predicting.
  const Window window(spec.intervals_per_s, flash ? 5 : (opt.smoke ? 3 : 8), opt);
  const std::size_t digest_end = 1 + window.digest;

  // Set-up (construction + the warm-up interval), repeated when it is
  // reported, one repetition per tour step, half before and half after the
  // timed window as in run_serve.
  CpuTour tour(util::thread_count());
  const std::size_t setups = opt.smoke || opt.trace ? 1 : kFleetSetups;
  std::vector<double> setup_samples;
  core::FleetReport report;
  const auto set_up = [&] {
    tour.step();
    const double t0 = wall_s();
    auto built = std::make_unique<FleetRig>(config, checks);
    fleet_interval(*built, 0, checks, report);
    setup_samples.push_back(wall_s() - t0);
    return built;
  };
  std::unique_ptr<FleetRig> rig;
  for (std::size_t r = 0; r < (setups + 1) / 2; ++r) {
    rig.reset();
    rig = set_up();
  }

  Tracer tracer;
  Tracer* tr = opt.trace ? &tracer : nullptr;
  std::vector<twin::FeatureArena> arenas;  // bench-owned, traced run only
  std::vector<double> interval_ms;
  std::vector<double> straggler;
  std::vector<double> radio_actual, radio_predicted, compute_actual, compute_predicted;
  core::StageTimings stages;  // summed over shards and timed intervals
  double busy_wall = 0.0;
  double busy_cpu = 0.0;
  double extract_s = 0.0;
  double surge_s = 0.0;
  double k_sum = 0.0;
  std::size_t k_count = 0;
  std::size_t reused = 0;
  std::size_t refreshed = 0;
  std::size_t failed = 0;
  const double started = wall_s();
  std::size_t i = 1;
  for (; window.more(i - 1, started); ++i) {
    rig->sink.digest_open = i < digest_end;
    if (flash && i == scenario.surge_interval) {
      Scope span(tr, "fleet.surge", static_cast<std::int64_t>(i));
      const double t0 = wall_s();
      rig->fleet.add_surge_shard(scenario.surge_cell, surge_users);
      surge_s = wall_s() - t0;
      rig->born.push_back(i);
    }
    const std::size_t shards = rig->fleet.shard_count();
    std::vector<core::StageTimings> prev(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      prev[s] = rig->fleet.shard(s).stage_timings();
    }

    tour.step();
    const double w0 = wall_s();
    const double c0 = cpu_s();
    bool ok = false;
    {
      Scope span(tr, "fleet.interval", static_cast<std::int64_t>(i));
      ok = fleet_interval(*rig, i, checks, report);
    }
    busy_cpu += cpu_s() - c0;
    failed += ok ? 0 : 1;
    const double took = wall_s() - w0;
    busy_wall += took;
    interval_ms.push_back(took * 1e3);

    if (!report.shard_radio_error.empty()) {
      radio_actual.push_back(report.actual_radio_hz_total);
      radio_predicted.push_back(report.predicted_radio_hz_total);
      compute_actual.push_back(report.actual_compute_total);
      compute_predicted.push_back(report.predicted_compute_total);
    }
    double max_busy = 0.0;
    double sum_busy = 0.0;
    for (std::size_t s = 0; s < shards; ++s) {
      const core::StageTimings& now = rig->fleet.shard(s).stage_timings();
      stages.simulate_s += now.simulate_s - prev[s].simulate_s;
      stages.feature_s += now.feature_s - prev[s].feature_s;
      stages.grouping_s += now.grouping_s - prev[s].grouping_s;
      stages.demand_s += now.demand_s - prev[s].demand_s;
      const double busy = now.total_s() - prev[s].total_s();
      max_busy = std::max(max_busy, busy);
      sum_busy += busy;
      if (report.shards[s].k > 0) {
        k_sum += static_cast<double>(report.shards[s].k);
        ++k_count;
      }
    }
    straggler.push_back(max_busy / (sum_busy / static_cast<double>(shards)));

    if (opt.trace) {
      // Feature-window extraction of every shard into bench-owned arenas,
      // with the geometry the shards' pipelines just used, one shard per
      // pool job as inside the fleet.
      Scope span(tr, "twin.extract", static_cast<std::int64_t>(i));
      arenas.resize(shards);
      const double t0 = wall_s();
      util::parallel_for(0, shards, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t s = lo; s < hi; ++s) {
          const core::Simulation& sim = rig->fleet.shard(s);
          const twin::WindowSpec window{sim.now(), sim.config().feature_window_s,
                                        sim.config().feature_timesteps,
                                        twin::FeatureScaling{}};
          sim.twins().columns().feature_windows(window, arenas[s]);
        }
      });
      extract_s += wall_s() - t0;
      for (const twin::FeatureArena& arena : arenas) {
        reused += arena.window_stats().reused;
        refreshed += arena.window_stats().refreshed;
      }
    }
  }
  const std::size_t timed = i - 1;

  const std::optional<double> radio_acc =
      util::prediction_accuracy(radio_actual, radio_predicted);
  const std::optional<double> compute_acc =
      util::volume_weighted_accuracy(compute_actual, compute_predicted);
  checks.expect(radio_acc.has_value() && *radio_acc >= 0.0 && *radio_acc <= 1.0,
                "radio accuracy outside [0, 1]");
  checks.expect(compute_acc.has_value() && *compute_acc >= 0.0 && *compute_acc <= 1.0,
                "compute accuracy outside [0, 1]");

  Result result;
  result.attempted = timed;
  result.failed = failed;
  const double p50 = core::latency_percentile(interval_ms, 50.0);
  const double per_interval_ms = 1e3 / static_cast<double>(timed);
  const std::size_t users = rig->fleet.user_count();
  const std::string digest = rig->sink.digest.hex();
  if (!opt.trace) {
    rig.reset();
    while (setup_samples.size() < setups) {
      set_up();
    }
    result.metric("setup_s", median(setup_samples), "s");
    result.metric("turnaround_p50_ms", p50, "ms");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    std::size_t delivered = 0;
    std::size_t lost = 0;
    for (std::size_t s = 0; s < rig->fleet.shard_count(); ++s) {
      const twin::CollectorStats& c = rig->fleet.shard(s).collector_stats();
      delivered += c.channel_reports + c.location_reports + c.watch_reports +
                   c.preference_reports;
      lost += c.dropped_reports;
    }
    result.metric("ingest.ms", stages.simulate_s * per_interval_ms, "ms");
    result.metric("twin.extract_ms", extract_s * per_interval_ms, "ms");
    result.metric("twin.arena_reuse_share",
                  static_cast<double>(reused) /
                      static_cast<double>(std::max<std::size_t>(1, reused + refreshed)),
                  "ratio");
    result.metric("twin.report_drop_share",
                  static_cast<double>(lost) / static_cast<double>(delivered + lost),
                  "ratio");
    result.metric("feature.ms", stages.feature_s * per_interval_ms, "ms");
    result.metric("grouping.ms", stages.grouping_s * per_interval_ms, "ms");
    result.metric("grouping.k", k_sum / static_cast<double>(std::max<std::size_t>(1, k_count)),
                  "count");
    result.metric("demand.ms", stages.demand_s * per_interval_ms, "ms");
    result.metric("pool.utilisation",
                  busy_cpu / (busy_wall * static_cast<double>(util::thread_count())),
                  "ratio");
    result.metric("shard.straggler_ratio", median(straggler), "ratio");
    result.metric("trace.overhead_share",
                  static_cast<double>(tracer.span_count()) * span_cost_s() / busy_wall,
                  "ratio");
    print_layers(tracer, timed);
    if (!opt.trace_out.empty()) {
      tracer.write_chrome(opt.trace_out);
    }
  }
  add_latency_context(result, interval_ms);
  result.info("planned", std::to_string(window.timed));
  result.info("users", std::to_string(users));
  result.info("us_per_user_interval", json_num(1e3 * p50 / static_cast<double>(users)));
  result.info("radio_accuracy", json_num(radio_acc.value_or(-1.0)));
  result.info("compute_accuracy", json_num(compute_acc.value_or(-1.0)));
  result.info("surge_ms", json_num(surge_s * 1e3));
  result.info("digest", json_str(digest));
  result.info("digest_intervals", std::to_string(digest_end));
  return result;
}

// ==================================================================== main

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_workloads: %s\nusage: perfbench_workloads --workload "
               "serve_steady|serve_degraded_1k|fleet_steady|fleet_flash_crowd "
               "--seed S --seconds T --trace 0|1 [--smoke] [--trace-out PATH]\n",
               why);
  return 2;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    if (flag == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (a + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++a];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = util::parse_uint64(value, "--seed");
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = value == "1";
        if (value != "0" && value != "1") {
          return false;
        }
      } else if (flag == "--trace-out") {
        opt.trace_out = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !opt.workload.empty() && opt.seconds >= 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    return usage("bad arguments");
  }
  // Smoke runs keep every check at ~1/50 of the work.
  const std::size_t serve_scale = opt.smoke ? 10 : 1;
  const std::size_t fleet_users = opt.smoke ? 200 : 10000;
  const std::size_t fleet_cells = opt.smoke ? 4 : 16;

  Checks checks;
  Result result;
  try {
    if (opt.workload == "serve_steady") {
      result = run_serve({240 / serve_scale, "cnn:full, cnn, summary", 50.0, 4096, 30.0, 1},
                         opt, checks);
    } else if (opt.workload == "serve_degraded_1k") {
      result = run_serve({1000 / serve_scale, "summary", 1000.0, 32768, 20.0, 1}, opt,
                         checks);
    } else if (opt.workload == "fleet_steady") {
      result = run_fleet(
          {core::ScenarioKind::kSteadyState, fleet_users, fleet_cells, 1.0, 1}, opt,
          checks);
    } else if (opt.workload == "fleet_flash_crowd") {
      result = run_fleet({core::ScenarioKind::kFlashCrowd, fleet_users, fleet_cells, 0.7, 2},
                         opt, checks);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_workloads: %s\n", error.what());
    return 1;
  }

  for (const Result::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      checks.fail("metric " + m.name + " is not finite");
    }
  }
  std::string failures;
  for (const std::string& f : checks.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
    failures += (failures.empty() ? "" : "; ") + f;
  }
  result.info("workload", json_str(opt.workload));
  result.info("seed", std::to_string(opt.seed));
  result.info("smoke", opt.smoke ? "true" : "false");
  result.info("threads", std::to_string(util::thread_count()));
  result.info("nproc", std::to_string(std::thread::hardware_concurrency()));
  result.info("simd_backend", json_str(util::simd::active_backend_name()));
  result.info("native_arch", util::simd::native_arch_build() ? "true" : "false");
  result.info("build_type", json_str(PERFBENCH_BUILD_TYPE));
  result.info("failures", json_str(failures));

  std::ostringstream line;
  line << "{\"correct\": " << (checks.ok() ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t k = 0; k < result.metrics.size(); ++k) {
    const Result::Metric& m = result.metrics[k];
    line << (k == 0 ? "" : ", ") << json_str(m.name) << ": {\"value\": "
         << json_num(std::isfinite(m.value) ? m.value : 0.0)
         << ", \"unit\": " << json_str(m.unit) << "}";
  }
  line << "}, \"context\": {";
  for (std::size_t c = 0; c < result.context.size(); ++c) {
    line << (c == 0 ? "" : ", ") << json_str(result.context[c].first) << ": "
         << result.context[c].second;
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return checks.ok() ? 0 : 1;
}
