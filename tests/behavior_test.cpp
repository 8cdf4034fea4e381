// Unit tests for dtmsv::behavior — preference normalisation, the
// engagement-driven preference estimator, affinity sampling, and viewing-
// session event generation.
#include <gtest/gtest.h>

#include <cmath>

#include "behavior/preference.hpp"
#include "behavior/session.hpp"
#include "util/error.hpp"
#include "video/catalog.hpp"

namespace {

using namespace dtmsv::behavior;
using dtmsv::util::PreconditionError;
using dtmsv::util::Rng;
using dtmsv::video::Category;
using dtmsv::video::kCategoryCount;

// --------------------------------------------------------------- preference

TEST(Preference, NormalizedSumsToOne) {
  PreferenceVector v{};
  v[0] = 2.0;
  v[1] = 6.0;
  const PreferenceVector p = normalized(v);
  EXPECT_DOUBLE_EQ(p[0], 0.25);
  EXPECT_DOUBLE_EQ(p[1], 0.75);
  for (std::size_t i = 2; i < p.size(); ++i) {
    EXPECT_DOUBLE_EQ(p[i], 0.0);
  }
}

TEST(Preference, NormalizedZeroVectorIsUniform) {
  const PreferenceVector zero{};
  const PreferenceVector p = normalized(zero);
  for (const double x : p) {
    EXPECT_DOUBLE_EQ(x, 1.0 / kCategoryCount);
  }
}

TEST(Preference, TopCategory) {
  PreferenceVector v{};
  v[3] = 0.9;
  v[1] = 0.1;
  EXPECT_EQ(top_category(v), 3u);
}

// ------------------------------------------------------ PreferenceEstimator

TEST(PreferenceEstimator, UniformBeforeEvidence) {
  PreferenceEstimator est;
  const PreferenceVector p = est.estimate();
  for (const double x : p) {
    EXPECT_DOUBLE_EQ(x, 1.0 / kCategoryCount);
  }
  EXPECT_DOUBLE_EQ(est.evidence_seconds(), 0.0);
}

TEST(PreferenceEstimator, TracksEngagement) {
  PreferenceEstimator est;
  est.observe(Category::kNews, 30.0);
  est.observe(Category::kNews, 30.0);
  est.observe(Category::kGame, 20.0);
  const PreferenceVector p = est.estimate();
  EXPECT_NEAR(p[static_cast<std::size_t>(Category::kNews)], 0.75, 1e-12);
  EXPECT_NEAR(p[static_cast<std::size_t>(Category::kGame)], 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(est.evidence_seconds(), 80.0);
}

TEST(PreferenceEstimator, DecayForgetsOldTaste) {
  PreferenceEstimator est(0.5);
  est.observe(Category::kNews, 100.0);
  for (int i = 0; i < 10; ++i) {
    est.decay();
  }
  est.observe(Category::kMusic, 10.0);
  // Old News evidence decayed to ~0.1 s, new Music dominates.
  EXPECT_EQ(top_category(est.estimate()), static_cast<std::size_t>(Category::kMusic));
}

TEST(PreferenceEstimator, RejectsNegativeEngagement) {
  PreferenceEstimator est;
  EXPECT_THROW(est.observe(Category::kNews, -1.0), PreconditionError);
}

TEST(PreferenceEstimator, RejectsBadForgetting) {
  EXPECT_THROW(PreferenceEstimator(0.0), PreconditionError);
  EXPECT_THROW(PreferenceEstimator(1.5), PreconditionError);
}

TEST(SampleAffinity, ValidDistribution) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const PreferenceVector a = sample_affinity(0.35, rng);
    double total = 0.0;
    for (const double x : a) {
      EXPECT_GE(x, 0.0);
      total += x;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(SampleAffinity, LowConcentrationPolarises) {
  Rng rng(2);
  double top_mass_low = 0.0;
  double top_mass_high = 0.0;
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    const PreferenceVector lo = sample_affinity(0.1, rng);
    const PreferenceVector hi = sample_affinity(10.0, rng);
    top_mass_low += *std::max_element(lo.begin(), lo.end());
    top_mass_high += *std::max_element(hi.begin(), hi.end());
  }
  EXPECT_GT(top_mass_low / n, top_mass_high / n + 0.2);
}

// ------------------------------------------------------------ ViewingSession

SessionConfig session_config() {
  SessionConfig cfg;
  cfg.engagement.catalog.videos_per_category = 30;
  return cfg;
}

dtmsv::video::Catalog make_catalog(Rng& rng) {
  return dtmsv::video::Catalog::generate(session_config().engagement.catalog, rng);
}

TEST(ViewingSession, EmitsEventsOverTime) {
  Rng rng(3);
  const auto catalog = make_catalog(rng);
  PreferenceVector aff{};
  aff.fill(1.0 / kCategoryCount);
  ViewingSession session(7, catalog, session_config(), aff, Rng(4));

  std::vector<ViewEvent> events;
  for (int t = 0; t < 600; ++t) {
    session.advance(static_cast<double>(t), 1.0, events);
  }
  EXPECT_GT(events.size(), 5u) << "10 minutes of viewing must produce events";
  for (const auto& ev : events) {
    EXPECT_EQ(ev.user_id, 7u);
    EXPECT_GE(ev.watch_fraction, 0.0);
    EXPECT_LE(ev.watch_fraction, 1.0);
    EXPECT_GE(ev.watch_seconds, 0.0);
    EXPECT_LE(ev.watch_seconds, ev.duration_s + 1e-9);
  }
}

TEST(ViewingSession, EventTimesNonDecreasing) {
  Rng rng(5);
  const auto catalog = make_catalog(rng);
  PreferenceVector aff{};
  aff[0] = 1.0;
  ViewingSession session(0, catalog, session_config(), aff, Rng(6));
  std::vector<ViewEvent> events;
  for (int t = 0; t < 1200; ++t) {
    session.advance(static_cast<double>(t), 1.0, events);
  }
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].start_time, events[i - 1].start_time);
  }
}

TEST(ViewingSession, StrongAffinityShapesCategoryMix) {
  Rng rng(7);
  const auto catalog = make_catalog(rng);
  PreferenceVector aff{};
  aff[static_cast<std::size_t>(Category::kSports)] = 1.0;
  SessionConfig cfg = session_config();
  cfg.feed_affinity_bias = 0.9;
  ViewingSession session(0, catalog, cfg, aff, Rng(8));
  std::vector<ViewEvent> events;
  for (int t = 0; t < 3000; ++t) {
    session.advance(static_cast<double>(t), 1.0, events);
  }
  ASSERT_GT(events.size(), 20u);
  std::size_t sports = 0;
  for (const auto& ev : events) {
    if (ev.category == Category::kSports) {
      ++sports;
    }
  }
  // 90% served from taste + 10% uniform explore → ~91–92% Sports.
  EXPECT_GT(static_cast<double>(sports) / events.size(), 0.75);
}

TEST(ViewingSession, CompletedFlagConsistent) {
  Rng rng(9);
  const auto catalog = make_catalog(rng);
  PreferenceVector aff{};
  aff.fill(1.0);
  ViewingSession session(0, catalog, session_config(), aff, Rng(10));
  std::vector<ViewEvent> events;
  for (int t = 0; t < 2000; ++t) {
    session.advance(static_cast<double>(t), 1.0, events);
  }
  for (const auto& ev : events) {
    if (ev.completed) {
      EXPECT_NEAR(ev.watch_seconds, ev.duration_s, 1e-6);
    } else {
      EXPECT_LT(ev.watch_seconds, ev.duration_s);
    }
  }
}

TEST(ViewingSession, AdvanceRejectsNonPositiveDt) {
  Rng rng(11);
  const auto catalog = make_catalog(rng);
  PreferenceVector aff{};
  aff.fill(1.0);
  ViewingSession session(0, catalog, session_config(), aff, Rng(12));
  std::vector<ViewEvent> events;
  EXPECT_THROW(session.advance(0.0, 0.0, events), PreconditionError);
}

TEST(ViewingSession, SetAffinityRedirectsFeed) {
  Rng rng(13);
  const auto catalog = make_catalog(rng);
  PreferenceVector news{};
  news[static_cast<std::size_t>(Category::kNews)] = 1.0;
  SessionConfig cfg = session_config();
  cfg.feed_affinity_bias = 1.0;
  ViewingSession session(0, catalog, cfg, news, Rng(14));

  PreferenceVector game{};
  game[static_cast<std::size_t>(Category::kGame)] = 1.0;
  session.set_affinity(game);

  std::vector<ViewEvent> events;
  for (int t = 0; t < 2000; ++t) {
    session.advance(static_cast<double>(t), 1.0, events);
  }
  ASSERT_GT(events.size(), 10u);
  // Events after the switch (skip the first in-flight video) are Game.
  std::size_t game_count = 0;
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (events[i].category == Category::kGame) {
      ++game_count;
    }
  }
  EXPECT_GT(static_cast<double>(game_count) / (events.size() - 1), 0.95);
}

TEST(ViewingSession, DeterministicGivenSeed) {
  Rng rng(15);
  const auto catalog = make_catalog(rng);
  PreferenceVector aff{};
  aff.fill(1.0);
  ViewingSession a(0, catalog, session_config(), aff, Rng(16));
  ViewingSession b(0, catalog, session_config(), aff, Rng(16));
  std::vector<ViewEvent> ea;
  std::vector<ViewEvent> eb;
  for (int t = 0; t < 500; ++t) {
    a.advance(static_cast<double>(t), 1.0, ea);
    b.advance(static_cast<double>(t), 1.0, eb);
  }
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].video_id, eb[i].video_id);
    EXPECT_DOUBLE_EQ(ea[i].watch_seconds, eb[i].watch_seconds);
  }
}

}  // namespace
