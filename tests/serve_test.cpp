// Serving-mode tests: EventQueue backpressure, DegradationPolicy ladder
// bookkeeping, ServeLoop deadline/degradation behaviour under a scripted
// ManualServeClock (bit-deterministic for any DTMSV_THREADS — the wall
// clock only decides fidelity, never arithmetic), ServeWorkload
// reproducibility, and the [serve] config loader.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cli/serve_loader.hpp"
#include "core/event_queue.hpp"
#include "core/pipeline.hpp"
#include "core/serve.hpp"
#include "core/serve_workload.hpp"
#include "twin/column_store.hpp"
#include "util/config.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "stats_check.hpp"

namespace {

using namespace dtmsv;

core::TwinEvent channel_at(std::uint32_t user, double time, double snr_db = 15.0) {
  twin::ChannelObservation obs;
  obs.snr_db = snr_db;
  obs.efficiency_bps_hz = 3.0;
  return core::TwinEvent::channel_report(user, time, obs);
}

// ------------------------------------------------------------- EventQueue

TEST(EventQueue, DrainsInArrivalOrderUpToHorizon) {
  core::EventQueue queue(8);
  for (int i = 0; i < 5; ++i) {
    queue.push(channel_at(static_cast<std::uint32_t>(i), 1.0 * i));
  }
  std::vector<std::uint32_t> drained_users;
  const std::size_t drained = queue.drain_until(
      2.5, [&](const core::TwinEvent& e) { drained_users.push_back(e.user); });
  EXPECT_EQ(drained, 3u);
  EXPECT_EQ(drained_users, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(queue.size(), 2u);
  // Remaining events (t=3, t=4) drain on the next horizon.
  EXPECT_EQ(queue.drain_until(10.0, [](const core::TwinEvent&) {}), 2u);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.stats().offered, 5u);
  EXPECT_EQ(queue.stats().drained, 5u);
  EXPECT_EQ(queue.stats().dropped, 0u);
}

TEST(EventQueue, ShedsOldestWithExactCounts) {
  core::EventQueue queue(4);
  for (int i = 0; i < 7; ++i) {
    queue.push(channel_at(static_cast<std::uint32_t>(i), 1.0 * i));
  }
  // Capacity 4, 7 offered: users 0..2 shed, 3..6 retained.
  EXPECT_EQ(queue.size(), 4u);
  EXPECT_EQ(queue.stats().offered, 7u);
  EXPECT_EQ(queue.stats().dropped, 3u);
  std::vector<std::uint32_t> survivors;
  queue.drain_until(100.0,
                    [&](const core::TwinEvent& e) { survivors.push_back(e.user); });
  EXPECT_EQ(survivors, (std::vector<std::uint32_t>{3, 4, 5, 6}));
}

TEST(EventQueue, RejectsOutOfOrderPushAndZeroCapacity) {
  EXPECT_THROW(core::EventQueue(0), util::PreconditionError);
  core::EventQueue queue(4);
  queue.push(channel_at(0, 5.0));
  EXPECT_THROW(queue.push(channel_at(1, 4.0)), util::PreconditionError);
  queue.push(channel_at(1, 5.0));  // ties are fine
}

TEST(EventQueue, OrderWatermarkSurvivesDrains) {
  core::EventQueue queue(4);
  queue.push(channel_at(0, 5.0));
  EXPECT_EQ(queue.drain_until(6.0, [](const core::TwinEvent&) {}), 1u);
  ASSERT_TRUE(queue.empty());
  // Empty again, but t=2 is older than an event already handed out.
  EXPECT_THROW(queue.push(channel_at(1, 2.0)), util::PreconditionError);
  EXPECT_EQ(queue.stats().offered, 1u);
  queue.push(channel_at(1, 5.0));  // a tie with the last pushed time is fine
  EXPECT_EQ(queue.size(), 1u);
}

TEST(EventQueue, RejectsNonFiniteTimeAndStaysUsable) {
  // A NaN time would pass the order check on an empty queue, never drain
  // (NaN <= horizon is false) and fail every later order check.
  core::EventQueue queue(4);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(queue.push(channel_at(0, bad)), util::PreconditionError);
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.stats().offered, 0u);
  queue.push(channel_at(0, 1.0));
  EXPECT_EQ(queue.drain_until(1.0, [](const core::TwinEvent&) {}), 1u);
}

// ------------------------------------------------------ DegradationPolicy

TEST(DegradationPolicy, StepsDownOneRungPerMissStreak) {
  core::DegradationPolicyConfig cfg;  // default 2-rung ladder
  cfg.step_down_after = 2;
  core::DegradationPolicy policy(cfg);
  EXPECT_EQ(policy.level(), 0u);
  EXPECT_EQ(policy.current().name, "cnn");
  EXPECT_EQ(policy.record(false), std::nullopt);  // 1 miss: below threshold
  EXPECT_EQ(policy.record(false), std::optional<std::size_t>(1));
  EXPECT_EQ(policy.current().name, "summary");
  // Clamped at the bottom rung.
  EXPECT_EQ(policy.record(false), std::nullopt);
  EXPECT_EQ(policy.record(false), std::nullopt);
  EXPECT_EQ(policy.level(), 1u);
}

TEST(DegradationPolicy, RecoversAfterSustainedHitsAndClampsAtTop) {
  core::DegradationPolicyConfig cfg;
  cfg.step_down_after = 1;
  cfg.step_up_after = 3;
  core::DegradationPolicy policy(cfg);
  EXPECT_EQ(policy.record(false), std::optional<std::size_t>(1));
  EXPECT_EQ(policy.record(false), std::nullopt);  // clamped at the bottom
  ASSERT_EQ(policy.level(), 1u);
  EXPECT_EQ(policy.record(true), std::nullopt);
  EXPECT_EQ(policy.record(true), std::nullopt);
  // A miss resets the hit streak: three fresh hits are needed to recover.
  EXPECT_EQ(policy.record(false), std::nullopt);
  EXPECT_EQ(policy.record(true), std::nullopt);
  EXPECT_EQ(policy.record(true), std::nullopt);
  EXPECT_EQ(policy.record(true), std::optional<std::size_t>(0));
  // A miss at the top steps straight back down.
  EXPECT_EQ(policy.record(false), std::optional<std::size_t>(1));
  for (int i = 0; i < 3; ++i) {
    policy.record(true);
  }
  ASSERT_EQ(policy.level(), 0u);
  // Clamped at full fidelity.
  EXPECT_EQ(policy.record(true), std::nullopt);
  EXPECT_EQ(policy.record(true), std::nullopt);
  EXPECT_EQ(policy.record(true), std::nullopt);
  EXPECT_EQ(policy.level(), 0u);
}

TEST(DegradationPolicy, RejectsEmptyLadderAndZeroHysteresis) {
  core::DegradationPolicyConfig empty;
  empty.ladder.clear();
  EXPECT_THROW(core::DegradationPolicy{empty}, util::PreconditionError);
  core::DegradationPolicyConfig zero;
  zero.step_down_after = 0;
  EXPECT_THROW(core::DegradationPolicy{zero}, util::PreconditionError);
}

// -------------------------------------------------------------- utilities

TEST(LatencyPercentile, NearestRank) {
  const std::vector<double> values = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(core::latency_percentile(values, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(core::latency_percentile(values, 95.0), 5.0);
  EXPECT_DOUBLE_EQ(core::latency_percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(core::latency_percentile(values, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(core::latency_percentile({}, 50.0), 0.0);
}

TEST(ManualServeClock, ScriptsPipelineCosts) {
  core::ManualServeClock clock;
  clock.queue_pipeline_cost(0.2);
  const double t0 = clock.now_s();
  const double t1 = clock.now_s();
  EXPECT_DOUBLE_EQ(t1 - t0, 0.2);
  // Queue exhausted: default_step applies.
  clock.default_step = 0.001;
  const double t2 = clock.now_s();
  EXPECT_DOUBLE_EQ(t2 - t1, 0.001);
}

// --------------------------------------------------------------- ServeLoop

core::ServeConfig small_serve(std::size_t users = 12) {
  core::ServeConfig cfg;
  cfg.scheme.seed = 11;
  cfg.scheme.user_count = users;
  cfg.scheme.interval_s = 10.0;
  cfg.scheme.demand.interval_s = 10.0;
  cfg.scheme.warmup_intervals = 0;
  cfg.scheme.feature_window_s = 30.0;
  cfg.scheme.feature_timesteps = 8;
  cfg.scheme.session.engagement.catalog.videos_per_category = 3;
  // Cheap deterministic non-feature stages: the ladder under test swaps
  // feature stages only.
  cfg.scheme.grouping_stage = "fixed";
  cfg.scheme.fixed_k = 2;
  cfg.scheme.demand_stage = "mean";
  cfg.deadline_ms = 50.0;
  return cfg;
}

/// Feeds `count` channel reports (one per user, round-robin) at time `t`.
void offer_reports(core::ServeLoop& loop, double t, std::size_t count) {
  const std::size_t users = loop.config().scheme.user_count;
  for (std::size_t i = 0; i < count; ++i) {
    loop.offer(channel_at(static_cast<std::uint32_t>(i % users), t));
  }
}

TEST(ServeLoop, DegradesDownTheLadderInOrderUnderOverload) {
  core::ServeConfig cfg = small_serve();
  core::ManualServeClock clock;
  core::CollectingSink sink;
  core::ServeLoop loop(cfg, clock, &sink);

  // Script 3 expensive predictions (200 ms against a 50 ms budget), then let
  // default_step = 0 make everything after look instantaneous.
  for (int i = 0; i < 3; ++i) {
    clock.queue_pipeline_cost(0.2);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    offer_reports(loop, 10.0 * static_cast<double>(i), 6);
    loop.advance_to(10.0 * static_cast<double>(i + 1));
  }

  // step_down_after = 1: the first miss steps one rung, cnn -> summary;
  // later misses stay clamped at the bottom rung.
  ASSERT_EQ(sink.degradations.size(), 1u);
  EXPECT_EQ(sink.degradations[0].from_name, "cnn");
  EXPECT_EQ(sink.degradations[0].to_name, "summary");
  EXPECT_EQ(sink.degradations[0].interval, 0u);
  EXPECT_FALSE(sink.degradations[0].recovering);
  EXPECT_DOUBLE_EQ(sink.degradations[0].latency_ms, 200.0);
  EXPECT_DOUBLE_EQ(sink.degradations[0].deadline_ms, 50.0);
  EXPECT_EQ(loop.degradation().level(), 1u);
  EXPECT_EQ(loop.stats().deadline_misses, 3u);
  EXPECT_EQ(loop.stats().steps_down, 1u);

  // The cnn interval carries a real autoencoder reconstruction loss; the
  // summary rung has none — observable proof the feature stage swapped.
  ASSERT_EQ(sink.reports.size(), 3u);
  EXPECT_GT(sink.reports[0].reconstruction_loss, 0.0f);
  EXPECT_FLOAT_EQ(sink.reports[1].reconstruction_loss, 0.0f);

  // One more interval fires on the summary rung (clock now instantaneous).
  offer_reports(loop, 30.0, 6);
  loop.advance_to(40.0);
  ASSERT_EQ(sink.reports.size(), 4u);
  EXPECT_FLOAT_EQ(sink.reports[3].reconstruction_loss, 0.0f);
}

TEST(ServeLoop, RecoversUpTheLadderAfterSustainedHits) {
  core::ServeConfig cfg = small_serve();
  cfg.degradation.step_up_after = 2;
  core::ManualServeClock clock;
  core::CollectingSink sink;
  core::ServeLoop loop(cfg, clock, &sink);

  // Two misses push the loop to the bottom rung; everything after hits.
  clock.queue_pipeline_cost(0.2);
  clock.queue_pipeline_cost(0.2);
  for (std::size_t i = 0; i < 7; ++i) {
    offer_reports(loop, 10.0 * static_cast<double>(i), 4);
    loop.advance_to(10.0 * static_cast<double>(i + 1));
  }

  // Interval 0 misses (down to summary), interval 1 misses at the bottom
  // rung; 2..3 hit -> back up to cnn after interval 3; 4..6 stay there.
  ASSERT_EQ(sink.degradations.size(), 2u);
  EXPECT_FALSE(sink.degradations[0].recovering);
  EXPECT_EQ(sink.degradations[0].interval, 0u);
  EXPECT_TRUE(sink.degradations[1].recovering);
  EXPECT_EQ(sink.degradations[1].from_name, "summary");
  EXPECT_EQ(sink.degradations[1].to_name, "cnn");
  EXPECT_EQ(sink.degradations[1].interval, 3u);
  EXPECT_EQ(loop.degradation().level(), 0u);
  EXPECT_EQ(loop.stats().steps_down, 1u);
  EXPECT_EQ(loop.stats().steps_up, 1u);
  ASSERT_EQ(sink.reports.size(), 7u);
  EXPECT_GT(sink.reports[4].reconstruction_loss, 0.0f);
}

/// Serves 6 intervals of ServeWorkload traffic through `ladder`, with
/// `misses` scripted deadline misses first.
core::CollectingSink run_ladder(const std::vector<std::string>& ladder,
                                std::size_t misses) {
  core::ServeConfig cfg = small_serve(16);
  cfg.degradation.ladder.clear();
  for (const std::string& key : ladder) {
    cfg.degradation.ladder.push_back({key, key});
  }
  core::ManualServeClock clock;
  for (std::size_t i = 0; i < misses; ++i) {
    clock.queue_pipeline_cost(0.2);
  }
  core::CollectingSink sink;
  core::ServeLoop loop(cfg, clock, &sink);
  core::ServeWorkloadConfig wl_cfg;
  wl_cfg.seed = 9;
  wl_cfg.user_count = cfg.scheme.user_count;
  wl_cfg.engagement = cfg.scheme.session.engagement;
  core::ServeWorkload workload(wl_cfg, loop.catalog());
  std::vector<core::TwinEvent> events;
  for (std::size_t i = 0; i < 6; ++i) {
    events.clear();
    workload.generate(10.0 * static_cast<double>(i), 10.0 * static_cast<double>(i + 1),
                      events);
    for (const core::TwinEvent& e : events) {
      loop.offer(e);
    }
    loop.advance_to(10.0 * static_cast<double>(i + 1));
  }
  return sink;
}

TEST(ServeLoop, RungsNamingOneKeyShareOneStage) {
  // {cnn, cnn}: the miss steps to rung 1, which must be the same trained
  // CNN as rung 0, so the run equals a single-rung {cnn} run.
  const core::CollectingSink stepped = run_ladder({"cnn", "cnn"}, 1);
  const core::CollectingSink single = run_ladder({"cnn"}, 0);
  ASSERT_EQ(stepped.degradations.size(), 2u);  // down at 0, back up at 3

  ASSERT_EQ(stepped.reports.size(), single.reports.size());
  for (std::size_t i = 0; i < single.reports.size(); ++i) {
    EXPECT_GT(single.reports[i].reconstruction_loss, 0.0f);
    EXPECT_EQ(stepped.reports[i].reconstruction_loss,
              single.reports[i].reconstruction_loss)
        << "interval " << i;
    EXPECT_EQ(stepped.reports[i].predicted_radio_hz_total,
              single.reports[i].predicted_radio_hz_total);
    EXPECT_EQ(stepped.reports[i].predicted_compute_total,
              single.reports[i].predicted_compute_total);
  }
  ASSERT_EQ(stepped.groups.size(), single.groups.size());
  for (std::size_t i = 0; i < single.groups.size(); ++i) {
    EXPECT_EQ(stepped.groups[i].size, single.groups[i].size);
    EXPECT_EQ(stepped.groups[i].predicted_efficiency,
              single.groups[i].predicted_efficiency);
    EXPECT_EQ(stepped.groups[i].predicted_radio_hz, single.groups[i].predicted_radio_hz);
    EXPECT_EQ(stepped.groups[i].predicted_compute_cycles,
              single.groups[i].predicted_compute_cycles);
  }
}

TEST(ServeLoop, StageTimingsCoverEveryFiredPrediction) {
  core::ManualServeClock clock;
  core::ServeLoop loop(small_serve(), clock);
  for (int i = 0; i < 3; ++i) {
    offer_reports(loop, 10.0 * i + 1.0, 6);
    loop.advance_to(10.0 * (i + 1));
  }
  const core::ServeStats& stats = loop.stats();
  ASSERT_EQ(stats.intervals, 3u);
  EXPECT_EQ(stats.stages.intervals, stats.intervals);
  EXPECT_GE(stats.stages.feature_s, 0.0);
  EXPECT_GE(stats.stages.grouping_s, 0.0);
  EXPECT_GE(stats.stages.demand_s, 0.0);
  EXPECT_EQ(stats.stages.simulate_s, 0.0);  // serve mode simulates nothing
}

TEST(ServeLoop, QueueOverflowShedsOldestWithExactDropCounts) {
  core::ServeConfig cfg = small_serve();
  cfg.queue_capacity = 8;
  core::ManualServeClock clock;
  core::CollectingSink sink;
  core::ServeLoop loop(cfg, clock, &sink);

  offer_reports(loop, 1.0, 12);  // 12 offered into capacity 8
  loop.advance_to(10.0);

  EXPECT_EQ(loop.stats().events_ingested, 8u);
  EXPECT_EQ(loop.stats().events_dropped, 4u);
  ASSERT_EQ(sink.drops.size(), 1u);
  EXPECT_EQ(sink.drops[0].interval, 0u);
  EXPECT_EQ(sink.drops[0].dropped, 4u);
  EXPECT_EQ(sink.drops[0].queue_capacity, 8u);
  // All admitted events drained before the prediction fired.
  EXPECT_EQ(sink.drops[0].queue_size, 0u);
  EXPECT_EQ(loop.queue_size(), 0u);

  // No further sheds: no second DropEvent.
  offer_reports(loop, 11.0, 4);
  loop.advance_to(20.0);
  EXPECT_EQ(sink.drops.size(), 1u);
  EXPECT_EQ(loop.stats().events_ingested, 12u);
}

TEST(ServeLoop, RejectsBadConfigAndBadEvents) {
  core::ServeConfig cfg = small_serve();
  cfg.deadline_ms = 0.0;
  core::ManualServeClock clock;
  EXPECT_THROW(core::ServeLoop(cfg, clock), util::PreconditionError);

  cfg = small_serve();
  cfg.degradation.ladder[1].feature_stage = "no-such-stage";
  EXPECT_THROW(core::ServeLoop(cfg, clock), util::PreconditionError);

  cfg = small_serve();
  core::ServeLoop loop(cfg, clock);
  EXPECT_THROW(loop.offer(channel_at(99, 1.0)), util::PreconditionError);
  loop.advance_to(5.0);
  EXPECT_THROW(loop.advance_to(4.0), util::PreconditionError);
}

TEST(ServeLoop, RejectsEveryNonFiniteReportField) {
  core::ManualServeClock clock;
  core::ServeLoop loop(small_serve(), clock);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    twin::ChannelObservation channel;
    channel.snr_db = bad;
    channel.efficiency_bps_hz = 3.0;
    EXPECT_THROW(loop.offer(core::TwinEvent::channel_report(0, 1.0, channel)),
                 util::PreconditionError);
    channel.snr_db = 15.0;
    channel.efficiency_bps_hz = bad;
    EXPECT_THROW(loop.offer(core::TwinEvent::channel_report(0, 1.0, channel)),
                 util::PreconditionError);

    EXPECT_THROW(loop.offer(core::TwinEvent::location_report(0, 1.0, {bad, 5.0})),
                 util::PreconditionError);
    EXPECT_THROW(loop.offer(core::TwinEvent::location_report(0, 1.0, {5.0, bad})),
                 util::PreconditionError);

    for (double twin::WatchObservation::*field :
         {&twin::WatchObservation::duration_s, &twin::WatchObservation::watch_seconds,
          &twin::WatchObservation::watch_fraction}) {
      twin::WatchObservation watch;
      watch.duration_s = 15.0;
      watch.watch_seconds = 7.5;
      watch.watch_fraction = 0.5;
      watch.*field = bad;
      EXPECT_THROW(loop.offer(core::TwinEvent::watch_report(0, 1.0, watch)),
                   util::PreconditionError);
    }
  }
  EXPECT_EQ(loop.queue_size(), 0u);
}

TEST(ServeLoop, NanTimeOnEmptyQueueIsRejectedAndTheLoopKeepsServing) {
  core::ManualServeClock clock;
  core::CollectingSink sink;
  core::ServeLoop loop(small_serve(), clock, &sink);
  ASSERT_EQ(loop.queue_size(), 0u);
  EXPECT_THROW(loop.offer(channel_at(0, std::numeric_limits<double>::quiet_NaN())),
               util::PreconditionError);

  // Later reports are admitted, drained and predicted on as usual.
  offer_reports(loop, 1.0, 6);
  loop.advance_to(10.0);
  offer_reports(loop, 11.0, 6);
  loop.advance_to(20.0);
  EXPECT_EQ(loop.stats().events_ingested, 12u);
  EXPECT_EQ(loop.stats().intervals, 2u);
  EXPECT_EQ(sink.reports.size(), 2u);
  EXPECT_EQ(loop.queue_size(), 0u);
}

TEST(ServeLoop, LateEventAfterDrainIsRejectedAndTheLoopKeepsServing) {
  core::ManualServeClock clock;
  core::CollectingSink sink;
  core::ServeLoop loop(small_serve(), clock, &sink);
  loop.offer(channel_at(0, 5.0));
  loop.advance_to(6.0);  // user 0's t=5 report is in the twin now
  ASSERT_EQ(loop.queue_size(), 0u);
  // Older than what the twin holds: admitting it would make every later
  // advance_to throw on the same queued event.
  EXPECT_THROW(loop.offer(channel_at(0, 2.0)), util::PreconditionError);

  for (int i = 1; i <= 3; ++i) {
    offer_reports(loop, 10.0 * i - 3.0, 6);
    loop.advance_to(10.0 * i);
  }
  EXPECT_EQ(loop.stats().events_ingested, 19u);
  EXPECT_EQ(loop.stats().intervals, 3u);
  EXPECT_EQ(sink.reports.size(), 3u);
  EXPECT_EQ(loop.queue_size(), 0u);
}

TEST(ServeLoop, SameTimeFloodOnOneUserKeepsTwinMemoryBounded) {
  // Two full queues of reports for user 0, all at t=5, drained by repeated
  // advance_to(6): every sample sits inside the retention span, so the
  // rings grow until the fixed-ring ceiling and then evict. Twin memory
  // never exceeds that of the fixed default rings.
  const core::ServeConfig cfg = small_serve();
  core::ManualServeClock clock;
  core::ServeLoop loop(cfg, clock);
  for (int batch = 0; batch < 2; ++batch) {
    for (std::size_t i = 0; i < cfg.queue_capacity; ++i) {
      loop.offer(channel_at(0, 5.0));
    }
    loop.advance_to(6.0);
  }
  EXPECT_EQ(loop.stats().events_ingested, 2 * cfg.queue_capacity);
  const twin::TwinColumnStore& columns = loop.twins().columns();
  EXPECT_EQ(columns.channel_column().capacity(), twin::ColumnCapacities{}.channel);
  EXPECT_TRUE(columns.channel_column().truncated_before(0, 5.0));
  EXPECT_LE(columns.bytes(),
            twin::TwinColumnStore(cfg.scheme.user_count, twin::ColumnCapacities{}).bytes());
}

/// Runs the scripted overload scenario end to end and returns the sink.
core::CollectingSink run_serve_scenario(std::size_t threads) {
  util::set_thread_count(threads);
  core::ServeConfig cfg = small_serve(24);
  core::ManualServeClock clock;
  clock.queue_pipeline_cost(0.2);
  clock.queue_pipeline_cost(0.2);
  core::CollectingSink sink;
  core::ServeLoop loop(cfg, clock, &sink);
  core::ServeWorkloadConfig wl_cfg;
  wl_cfg.seed = 5;
  wl_cfg.user_count = cfg.scheme.user_count;
  wl_cfg.engagement = cfg.scheme.session.engagement;
  core::ServeWorkload workload(wl_cfg, loop.catalog());
  std::vector<core::TwinEvent> events;
  for (std::size_t i = 0; i < 5; ++i) {
    events.clear();
    workload.generate(10.0 * static_cast<double>(i),
                      10.0 * static_cast<double>(i + 1), events);
    for (const core::TwinEvent& e : events) {
      loop.offer(e);
    }
    loop.advance_to(10.0 * static_cast<double>(i + 1));
  }
  util::set_thread_count(0);
  return sink;
}

TEST(ServeLoop, ResultsAreBitIdenticalForAnyThreadCount) {
  const core::CollectingSink one = run_serve_scenario(1);
  const core::CollectingSink four = run_serve_scenario(4);

  ASSERT_EQ(one.reports.size(), four.reports.size());
  for (std::size_t i = 0; i < one.reports.size(); ++i) {
    EXPECT_EQ(one.reports[i].k, four.reports[i].k);
    EXPECT_EQ(one.reports[i].reconstruction_loss,
              four.reports[i].reconstruction_loss);
    EXPECT_EQ(one.reports[i].predicted_radio_hz_total,
              four.reports[i].predicted_radio_hz_total);
    EXPECT_EQ(one.reports[i].predicted_compute_total,
              four.reports[i].predicted_compute_total);
  }
  ASSERT_EQ(one.groups.size(), four.groups.size());
  for (std::size_t i = 0; i < one.groups.size(); ++i) {
    EXPECT_EQ(one.groups[i].predicted_efficiency,
              four.groups[i].predicted_efficiency);
    EXPECT_EQ(one.groups[i].predicted_radio_hz, four.groups[i].predicted_radio_hz);
  }
  // The fidelity trajectory is part of the deterministic contract too.
  ASSERT_EQ(one.degradations.size(), four.degradations.size());
  for (std::size_t i = 0; i < one.degradations.size(); ++i) {
    EXPECT_EQ(one.degradations[i].to_name, four.degradations[i].to_name);
    EXPECT_EQ(one.degradations[i].interval, four.degradations[i].interval);
  }
}

// -------------------------------------------------------- forecast golden

/// The pinned doubles assume the optimized FP regime they were captured in
/// (see pipeline_test's golden_regime): unoptimized builds and hosts that
/// export DTMSV_SKIP_GOLDEN=1 skip the pin.
bool golden_regime() {
#if defined(__OPTIMIZE__)
  return std::getenv("DTMSV_SKIP_GOLDEN") == nullptr;
#else
  return false;
#endif
}

/// {k, groups, predicted radio total, predicted compute total} per interval.
struct ServeGoldenInterval {
  std::size_t k;
  std::size_t groups;
  double predicted_radio;
  double predicted_compute;
};

/// Serves 6 intervals of fixed-seed ServeWorkload traffic to 60 users
/// through the paper's grouping and demand stages, on a zero-cost clock (so
/// the ladder never leaves its first rung). An empty `ladder` keeps the
/// default one.
core::CollectingSink serve_forecast_stream(const std::vector<std::string>& ladder) {
  core::ServeConfig cfg;
  cfg.scheme.seed = 23;
  cfg.scheme.user_count = 60;
  cfg.scheme.interval_s = 10.0;
  cfg.scheme.demand.interval_s = 10.0;
  cfg.scheme.warmup_intervals = 0;
  cfg.scheme.feature_window_s = 30.0;
  cfg.scheme.feature_timesteps = 16;
  cfg.scheme.session.engagement.catalog.videos_per_category = 6;
  cfg.scheme.compressor.epochs_per_fit = 1;
  cfg.scheme.grouping.k_min = 2;
  cfg.scheme.grouping.k_max = 6;
  cfg.scheme.grouping.ddqn.hidden = {32};
  cfg.scheme.grouping.kmeans.restarts = 2;
  cfg.scheme.recommender.playlist_size = 24;
  if (!ladder.empty()) {
    cfg.degradation.ladder.clear();
    for (const std::string& key : ladder) {
      cfg.degradation.ladder.push_back({key, key});
    }
  }
  core::ManualServeClock clock;
  core::CollectingSink sink;
  core::ServeLoop loop(cfg, clock, &sink);
  core::ServeWorkloadConfig wl_cfg;
  wl_cfg.seed = 31;
  wl_cfg.user_count = cfg.scheme.user_count;
  wl_cfg.engagement = cfg.scheme.session.engagement;
  core::ServeWorkload workload(wl_cfg, loop.catalog());
  std::vector<core::TwinEvent> events;
  for (std::size_t i = 0; i < 6; ++i) {
    events.clear();
    workload.generate(10.0 * static_cast<double>(i), 10.0 * static_cast<double>(i + 1),
                      events);
    for (const core::TwinEvent& e : events) {
      loop.offer(e);
    }
    loop.advance_to(10.0 * static_cast<double>(i + 1));
  }
  return sink;
}

void expect_matches_serve_golden(const core::CollectingSink& sink,
                                 const std::vector<ServeGoldenInterval>& golden) {
  ASSERT_EQ(sink.reports.size(), golden.size());
  EXPECT_TRUE(sink.degradations.empty());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const core::EpochReport& r = sink.reports[i];
    EXPECT_EQ(r.interval, i);
    EXPECT_EQ(r.k, golden[i].k) << "interval " << i;
    EXPECT_EQ(static_cast<std::size_t>(std::count(sink.group_intervals.begin(),
                                                  sink.group_intervals.end(), i)),
              golden[i].groups)
        << "interval " << i;
    EXPECT_EQ(r.predicted_radio_hz_total, golden[i].predicted_radio) << i;
    EXPECT_EQ(r.predicted_compute_total, golden[i].predicted_compute) << i;
  }
}

TEST(ServeLoop, ForecastStreamMatchesGolden) {
  if (!golden_regime()) {
    GTEST_SKIP() << "golden stream pinned for optimized FP regime only";
  }
  // Default ladder (cnn, summary): every interval runs the CNN rung.
  expect_matches_serve_golden(serve_forecast_stream({}), {
      {5, 5, 2784101.6896311967, 4057203292.9720764},
      {4, 4, 2204930.6852217913, 3201743305.8896008},
      {3, 3, 1646124.9620439853, 1337109835.3314326},
      {3, 3, 1652630.8718342017, 1277237821.0470099},
      {5, 5, 2813301.9550867663, 3411698864.1029911},
      {2, 2, 1202139.0064584347, 727497838.83399391},
  });
  // Summary-only ladder.
  expect_matches_serve_golden(serve_forecast_stream({"summary"}), {
      {5, 5, 2700623.2710477728, 2747074979.5128422},
      {4, 4, 2155166.3459196459, 1952755481.4021389},
      {3, 3, 1601423.4619471531, 1329741090.2120681},
      {3, 3, 1665457.1774959678, 1342259684.8425641},
      {5, 5, 2724982.2714461018, 2388358989.013803},
      {2, 2, 1206957.2177563692, 727469747.12936556},
  });
}

// ------------------------------------------------------------ ServeWorkload

video::Catalog test_catalog(std::uint64_t seed = 3) {
  util::Rng rng(seed);
  video::CatalogConfig cfg;
  cfg.videos_per_category = 3;
  return video::Catalog::generate(cfg, rng);
}

TEST(ServeWorkload, StreamIsReproducibleAndTimeOrdered) {
  const video::Catalog catalog = test_catalog();
  core::ServeWorkloadConfig cfg;
  cfg.user_count = 10;
  core::ServeWorkload a(cfg, catalog);
  core::ServeWorkload b(cfg, catalog);
  std::vector<core::TwinEvent> ea;
  std::vector<core::TwinEvent> eb;
  a.generate(0.0, 30.0, ea);
  b.generate(0.0, 30.0, eb);

  ASSERT_FALSE(ea.empty());
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].kind, eb[i].kind);
    EXPECT_EQ(ea[i].user, eb[i].user);
    EXPECT_EQ(ea[i].time, eb[i].time);
    EXPECT_EQ(ea[i].channel.snr_db, eb[i].channel.snr_db);
    EXPECT_EQ(ea[i].watch.video_id, eb[i].watch.video_id);
  }
  for (std::size_t i = 1; i < ea.size(); ++i) {
    EXPECT_LE(ea[i - 1].time, ea[i].time);
  }
}

TEST(ServeWorkload, WindowSlicingDoesNotChangeTheStream) {
  const video::Catalog catalog = test_catalog();
  core::ServeWorkloadConfig cfg;
  cfg.user_count = 8;
  core::ServeWorkload whole(cfg, catalog);
  core::ServeWorkload sliced(cfg, catalog);
  std::vector<core::TwinEvent> ew;
  std::vector<core::TwinEvent> es;
  whole.generate(0.0, 40.0, ew);
  for (int i = 0; i < 4; ++i) {
    sliced.generate(10.0 * i, 10.0 * (i + 1), es);
  }
  ASSERT_EQ(ew.size(), es.size());
  for (std::size_t i = 0; i < ew.size(); ++i) {
    EXPECT_EQ(ew[i].user, es[i].user);
    EXPECT_EQ(ew[i].time, es[i].time);
    EXPECT_EQ(ew[i].kind, es[i].kind);
  }
}

TEST(ServeWorkload, RateMultiplierScalesEventVolume) {
  const video::Catalog catalog = test_catalog();
  core::ServeWorkloadConfig cfg;
  cfg.user_count = 12;
  core::ServeWorkload steady(cfg, catalog);
  core::ServeWorkload surging(cfg, catalog);
  surging.set_rate_multiplier(4.0);
  std::vector<core::TwinEvent> e_steady;
  std::vector<core::TwinEvent> e_surge;
  steady.generate(0.0, 60.0, e_steady);
  surging.generate(0.0, 60.0, e_surge);
  EXPECT_GT(e_surge.size(), 2 * e_steady.size());
  for (const double bad : {0.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(surging.set_rate_multiplier(bad), util::PreconditionError);
  }
}

/// Per-user event times of one kind, in stream order, from a workload run
/// at `multiplier` over [0, horizon_s).
std::vector<std::vector<double>> report_times(std::size_t users, double multiplier,
                                              double horizon_s, core::TwinEvent::Kind kind,
                                              const video::Catalog& catalog) {
  core::ServeWorkloadConfig cfg;
  cfg.user_count = users;
  cfg.seed = 11;
  core::ServeWorkload workload(cfg, catalog);
  workload.set_rate_multiplier(multiplier);
  std::vector<core::TwinEvent> events;
  workload.generate(0.0, horizon_s, events);
  std::vector<std::vector<double>> times(users);
  for (const core::TwinEvent& e : events) {
    if (e.kind == kind) {
      times[e.user].push_back(e.time);
    }
  }
  return times;
}

TEST(ServeWorkload, WatchInterArrivalsAreExponential) {
  // Watch reports are a Poisson stream per user: the gaps between a user's
  // consecutive watches are Exp(m / watch_period_s), including under the
  // overload multiplier m = 8. (The first report, drawn at construction,
  // is at m = 1, so only gaps are tested.) K-S at alpha = 1e-3.
  const video::Catalog catalog = test_catalog();
  const core::ServeWorkloadConfig defaults;
  struct Case {
    double multiplier;
    double horizon_s;
  };
  for (const Case c : {Case{1.0, 1800.0}, Case{8.0, 400.0}}) {
    const double rate = c.multiplier / defaults.watch_period_s;
    std::vector<double> gaps;
    for (const auto& times :
         report_times(100, c.multiplier, c.horizon_s, core::TwinEvent::Kind::kWatch, catalog)) {
      for (std::size_t i = 1; i < times.size(); ++i) {
        gaps.push_back(times[i] - times[i - 1]);
      }
    }
    ASSERT_GT(gaps.size(), 8000u) << "m = " << c.multiplier;
    const auto ks = dtmsv::testing::ks::one_sample(
        gaps, [rate](double x) { return -std::expm1(-rate * x); });
    EXPECT_GT(ks.p, 1e-3) << "m = " << c.multiplier << ": sqrt(n)·D = " << ks.scaled_d;
  }
}

TEST(ServeWorkload, ReportSpacingIsPeriodOverMultiplier) {
  // Channel and location reports are periodic: after each user's staggered
  // first report, every gap is exactly period / m.
  const video::Catalog catalog = test_catalog();
  const core::ServeWorkloadConfig defaults;
  for (const double m : {1.0, 8.0}) {
    for (const auto& [kind, period] :
         {std::pair{core::TwinEvent::Kind::kChannel, defaults.channel_period_s},
          std::pair{core::TwinEvent::Kind::kLocation, defaults.location_period_s}}) {
      std::size_t gaps = 0;
      for (const auto& times : report_times(20, m, 120.0, kind, catalog)) {
        ASSERT_FALSE(times.empty());
        EXPECT_LT(times.front(), period);
        for (std::size_t i = 1; i < times.size(); ++i, ++gaps) {
          ASSERT_EQ(times[i], times[i - 1] + period / m) << "m = " << m << ", gap " << i;
        }
      }
      // Each user's first report lies in [0, period).
      EXPECT_GE(gaps, static_cast<std::size_t>(20 * ((120.0 - period) * m / period - 1.0)));
    }
  }
}

// -------------------------------------------------------------- serve_loader

constexpr const char* kServeIni = R"(
[serve]
user_count = 24
interval_s = 10
intervals = 6
deadline_ms = 25
queue_capacity = 512
ladder = cnn, summary
grouping = fixed
fixed_k = 2
demand = mean
videos_per_category = 3

[workload]
channel_period_s = 2
overload_start = 2
overload_intervals = 2
overload_multiplier = 6

[run]
threads = 1
)";

TEST(ServeLoader, ParsesFullPlan) {
  util::Config config = util::Config::parse(kServeIni);
  const cli::ServePlan plan = cli::load_serve_plan(config);
  EXPECT_EQ(plan.serve.scheme.user_count, 24u);
  EXPECT_DOUBLE_EQ(plan.serve.scheme.interval_s, 10.0);
  EXPECT_DOUBLE_EQ(plan.serve.scheme.demand.interval_s, 10.0);
  EXPECT_EQ(plan.intervals, 6u);
  EXPECT_DOUBLE_EQ(plan.serve.deadline_ms, 25.0);
  EXPECT_EQ(plan.serve.queue_capacity, 512u);
  ASSERT_EQ(plan.serve.degradation.ladder.size(), 2u);
  EXPECT_EQ(plan.serve.degradation.ladder[0].feature_stage, "cnn");
  EXPECT_EQ(plan.serve.degradation.ladder[0].name, "cnn");
  EXPECT_EQ(plan.serve.degradation.ladder[1].feature_stage, "summary");
  EXPECT_EQ(plan.serve.scheme.grouping_stage, "fixed");
  EXPECT_EQ(plan.serve.scheme.demand_stage, "mean");
  EXPECT_DOUBLE_EQ(plan.workload.channel_period_s, 2.0);
  EXPECT_EQ(plan.workload.user_count, 24u);
  EXPECT_EQ(plan.overload_start, 2u);
  EXPECT_EQ(plan.overload_intervals, 2u);
  EXPECT_DOUBLE_EQ(plan.overload_multiplier, 6.0);
  EXPECT_EQ(plan.threads, 1u);
}

TEST(ServeLoader, ParsesLadderLevelSyntax) {
  const core::DegradationLevel bare = cli::parse_ladder_level("summary");
  EXPECT_EQ(bare.feature_stage, "summary");
  EXPECT_EQ(bare.name, "summary");
  // The old extraction-mode suffixes still parse; they select nothing.
  for (const char* item : {"cnn:full", "cnn:incremental"}) {
    const core::DegradationLevel level = cli::parse_ladder_level(item);
    EXPECT_EQ(level.feature_stage, "cnn");
    EXPECT_EQ(level.name, item);
    EXPECT_FALSE(level.full_extraction);
  }
  EXPECT_THROW(cli::parse_ladder_level("cnn:sometimes"), util::RuntimeError);
  EXPECT_THROW(cli::parse_ladder_level(":full"), util::RuntimeError);

  util::Config legacy = util::Config::parse("[serve]\nladder = cnn:full, cnn, summary\n");
  const cli::ServePlan plan = cli::load_serve_plan(legacy);
  ASSERT_EQ(plan.serve.degradation.ladder.size(), 3u);
  EXPECT_EQ(plan.serve.degradation.ladder[0].feature_stage, "cnn");
  EXPECT_EQ(plan.serve.degradation.ladder[1].feature_stage, "cnn");
  EXPECT_EQ(plan.serve.degradation.ladder[2].feature_stage, "summary");
}

TEST(ServeLoader, RejectsUnknownKeysAndStages) {
  util::Config typo = util::Config::parse("[serve]\ndeadline_msec = 10\n");
  EXPECT_THROW(cli::load_serve_plan(typo), util::RuntimeError);

  util::Config bad_stage =
      util::Config::parse("[serve]\ngrouping = kmeanz\n");
  EXPECT_THROW(cli::load_serve_plan(bad_stage), util::RuntimeError);

  util::Config bad_ladder =
      util::Config::parse("[serve]\nladder = cnn, warp-drive\n");
  EXPECT_THROW(cli::load_serve_plan(bad_ladder), util::RuntimeError);

  // A NaN multiplier used to pass the `<= 0` check and abort mid-run, an
  // infinite one to exhaust memory in the workload generator.
  for (const char* bad : {"nan", "inf", "0"}) {
    util::Config bad_multiplier = util::Config::parse(
        std::string("[workload]\noverload_intervals = 2\noverload_multiplier = ") + bad +
        "\n");
    EXPECT_THROW(cli::load_serve_plan(bad_multiplier), util::RuntimeError) << bad;
  }
}

}  // namespace
