// Unit tests for dtmsv::video — bitrate ladders, catalog generation with
// Zipf popularity, the engagement model's watch-fraction shape, and the
// transcoding cost model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "stats_check.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "video/catalog.hpp"
#include "video/dataset.hpp"
#include "video/transcode.hpp"

namespace {

using namespace dtmsv::video;
using dtmsv::util::PreconditionError;
using dtmsv::util::Rng;

// ----------------------------------------------------------------- category

TEST(Category, SixCategoriesWithNames) {
  EXPECT_EQ(all_categories().size(), kCategoryCount);
  std::set<std::string> names;
  for (const Category c : all_categories()) {
    names.insert(to_string(c));
  }
  EXPECT_EQ(names.size(), kCategoryCount);
  EXPECT_EQ(to_string(Category::kNews), "News");
  EXPECT_EQ(to_string(Category::kGame), "Game");
}

// ------------------------------------------------------------ BitrateLadder

TEST(BitrateLadder, StandardFiveRungs) {
  const BitrateLadder ladder = BitrateLadder::standard();
  EXPECT_EQ(ladder.rung_count(), 5u);
  EXPECT_DOUBLE_EQ(ladder.bottom_kbps(), 750.0);
  EXPECT_DOUBLE_EQ(ladder.kbps(4), 4300.0);
}

TEST(BitrateLadder, RejectsNonAscending) {
  EXPECT_THROW(BitrateLadder({100.0, 100.0}), PreconditionError);
  EXPECT_THROW(BitrateLadder({200.0, 100.0}), PreconditionError);
  EXPECT_THROW(BitrateLadder({-1.0, 100.0}), PreconditionError);
  EXPECT_THROW(BitrateLadder({}), PreconditionError);
}

TEST(BitrateLadder, BestRungWithinBudget) {
  const BitrateLadder ladder = BitrateLadder::standard();
  EXPECT_EQ(ladder.best_rung_within(100.0), 0u);    // below lowest → rung 0
  EXPECT_EQ(ladder.best_rung_within(750.0), 0u);
  EXPECT_EQ(ladder.best_rung_within(1850.0), 2u);
  EXPECT_EQ(ladder.best_rung_within(2000.0), 2u);
  EXPECT_EQ(ladder.best_rung_within(99999.0), 4u);
}

// ----------------------------------------------------------------- Catalog

CatalogConfig small_catalog() {
  CatalogConfig cfg;
  cfg.videos_per_category = 50;
  return cfg;
}

TEST(Catalog, GeneratesRequestedSize) {
  Rng rng(1);
  const Catalog cat = Catalog::generate(small_catalog(), rng);
  EXPECT_EQ(cat.size(), 50u * kCategoryCount);
  for (const Category c : all_categories()) {
    EXPECT_EQ(cat.category_videos(c).size(), 50u);
  }
}

TEST(Catalog, VideoIdsAreDense) {
  Rng rng(2);
  const Catalog cat = Catalog::generate(small_catalog(), rng);
  for (std::uint64_t id = 0; id < cat.size(); ++id) {
    EXPECT_EQ(cat.video(id).id, id);
  }
  EXPECT_THROW(cat.video(cat.size()), PreconditionError);
}

TEST(Catalog, DurationsWithinConfiguredRange) {
  Rng rng(3);
  CatalogConfig cfg = small_catalog();
  cfg.min_duration_s = 5.0;
  cfg.max_duration_s = 60.0;
  const Catalog cat = Catalog::generate(cfg, rng);
  for (const auto& v : cat.videos()) {
    EXPECT_GE(v.duration_s, 5.0 - 1e-9);
    EXPECT_LE(v.duration_s, 60.0 + 1e-9);
  }
}

TEST(Catalog, DurationsSkewShort) {
  // Log-uniform durations: median ≈ sqrt(5·60) ≈ 17.3 < arithmetic mid 32.5.
  Rng rng(4);
  CatalogConfig cfg = small_catalog();
  cfg.videos_per_category = 500;
  const Catalog cat = Catalog::generate(cfg, rng);
  std::vector<double> durations;
  for (const auto& v : cat.videos()) {
    durations.push_back(v.duration_s);
  }
  EXPECT_LT(dtmsv::util::percentile(durations, 50.0), 22.0);
}

TEST(Catalog, LadderJitterPreservesShape) {
  Rng rng(5);
  const Catalog cat = Catalog::generate(small_catalog(), rng);
  for (const auto& v : cat.videos()) {
    ASSERT_EQ(v.ladder.rung_count(), 5u);
    // Jitter is a common scale: rung ratios match the standard ladder.
    const double ratio = v.ladder.rungs().back() / v.ladder.bottom_kbps();
    EXPECT_NEAR(ratio, 4300.0 / 750.0, 1e-9);
  }
}

TEST(Catalog, ZipfSamplingPrefersLowRanks) {
  Rng rng(6);
  const Catalog cat = Catalog::generate(small_catalog(), rng);
  std::size_t rank_sum = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const Video& v = cat.sample_from_category(Category::kNews, rng);
    rank_sum += cat.popularity_rank(v.id);
  }
  const double mean_rank = static_cast<double>(rank_sum) / n;
  // Uniform sampling would give mean rank 24.5; Zipf(0.9) over 50 gives ~11.
  EXPECT_LT(mean_rank, 18.0);
}

TEST(Catalog, PopularityProbabilitiesSumToOne) {
  Rng rng(7);
  const Catalog cat = Catalog::generate(small_catalog(), rng);
  double total = 0.0;
  for (const std::uint64_t id : cat.category_videos(Category::kMusic)) {
    total += cat.popularity_probability(id);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Catalog, DeterministicGivenSeed) {
  Rng a(8);
  Rng b(8);
  const Catalog ca = Catalog::generate(small_catalog(), a);
  const Catalog cb = Catalog::generate(small_catalog(), b);
  ASSERT_EQ(ca.size(), cb.size());
  for (std::uint64_t id = 0; id < ca.size(); ++id) {
    EXPECT_DOUBLE_EQ(ca.video(id).duration_s, cb.video(id).duration_s);
  }
}

// ---------------------------------------------------- SampleWatchFraction

TEST(SampleWatchFraction, FractionsInUnitInterval) {
  EngagementConfig cfg;
  Rng rng(10);
  for (const double affinity : {0.0, 0.05, 0.3, 0.8, 1.0}) {
    for (int i = 0; i < 2000; ++i) {
      const double frac = sample_watch_fraction(affinity, cfg, rng);
      ASSERT_GE(frac, 0.0);
      ASSERT_LE(frac, 1.0);
    }
  }
}

TEST(SampleWatchFraction, InstantSwipeSpikeExists) {
  // Even a fan (affinity 0.9, mean watch fraction clamped at 0.98) swipes
  // within the first 8% of the clip about instant_swipe_prob of the time.
  EngagementConfig cfg;
  cfg.instant_swipe_prob = 0.3;
  Rng rng(12);
  const int n = 20000;
  int early = 0;
  for (int i = 0; i < n; ++i) {
    if (sample_watch_fraction(0.9, cfg, rng) < 0.08) {
      ++early;
    }
  }
  EXPECT_GT(static_cast<double>(early) / n, 0.28);
}

TEST(SampleWatchFraction, MeanIncreasesWithAffinity) {
  EngagementConfig cfg;
  cfg.instant_swipe_prob = 0.1;
  Rng rng(14);
  const auto mean_for = [&](double affinity) {
    double total = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      total += sample_watch_fraction(affinity, cfg, rng);
    }
    return total / n;
  };
  const double low = mean_for(0.05);
  const double mid = mean_for(0.3);
  const double high = mean_for(0.8);
  EXPECT_LT(low, mid);
  EXPECT_LT(mid, high);
}

// With engagement_gain = 0 the Beta part has a closed form, so the whole
// mixture can be checked: below the 0.93 finish threshold its CDF is
// p·min(x/0.08, 1) + (1−p)·F_Beta(x), and the rest is an atom at 1 of mass
// (1−p)·(1 − F_Beta(0.93)).
struct ClosedFormEngagement {
  double engagement_base;
  double affinity;
  double (*beta_cdf)(double);
};

// At gain 0 the Beta has mean engagement_base and concentration
// 1.5 + 2·affinity: base 0.5 at affinity 0.25 is Beta(1, 1), base 2/3 at
// affinity 0.75 is Beta(2, 1) with CDF x².
constexpr ClosedFormEngagement kClosedFormCases[] = {
    {0.5, 0.25, [](double x) { return x; }},
    {2.0 / 3.0, 0.75, [](double x) { return x * x; }},
};

constexpr double kFinishThreshold = 0.93;

struct MixtureFit {
  double ks_p = 0.0;        // K-S p-value of the part below the threshold
  double atom_sigmas = 0.0;  // |observed − expected| mass at 1, in binomial SEs
};

// Draws `n` fractions with `sampled` and checks them against the mixture
// that `expected` states.
MixtureFit fit_mixture(const ClosedFormEngagement& c, const EngagementConfig& sampled,
                       const EngagementConfig& expected, std::size_t n, Rng& rng) {
  std::vector<double> below;
  std::size_t finished = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double frac = sample_watch_fraction(c.affinity, sampled, rng);
    if (frac > kFinishThreshold) {
      ++finished;
    } else {
      below.push_back(frac);
    }
  }
  const double p = expected.instant_swipe_prob;
  const auto cdf = [&](double x) {
    return p * std::min(x / 0.08, 1.0) + (1.0 - p) * c.beta_cdf(x);
  };
  const double atom = (1.0 - p) * (1.0 - c.beta_cdf(kFinishThreshold));
  const double mass_below = 1.0 - atom;

  MixtureFit fit;
  fit.ks_p = dtmsv::testing::ks::one_sample(
                 below, [&](double x) { return cdf(x) / mass_below; })
                 .p;
  const double se = std::sqrt(atom * (1.0 - atom) / static_cast<double>(n));
  fit.atom_sigmas =
      std::abs(static_cast<double>(finished) / static_cast<double>(n) - atom) / se;
  return fit;
}

EngagementConfig closed_form_config(const ClosedFormEngagement& c) {
  EngagementConfig cfg;
  cfg.engagement_base = c.engagement_base;
  cfg.engagement_gain = 0.0;
  return cfg;
}

TEST(SampleWatchFraction, MatchesClosedFormMixture) {
  Rng rng(16);
  for (const ClosedFormEngagement& c : kClosedFormCases) {
    const EngagementConfig cfg = closed_form_config(c);
    const MixtureFit fit = fit_mixture(c, cfg, cfg, 200'000, rng);
    EXPECT_GT(fit.ks_p, 1e-3) << "base " << c.engagement_base;
    EXPECT_LT(fit.atom_sigmas, 5.0) << "base " << c.engagement_base;
  }
}

TEST(SampleWatchFraction, ClosedFormCheckRejectsAnotherSwipeProbability) {
  // Negative control: the same check must reject a sample drawn with
  // instant_swipe_prob 0.20 instead of the stated 0.18.
  Rng rng(17);
  for (const ClosedFormEngagement& c : kClosedFormCases) {
    const EngagementConfig expected = closed_form_config(c);
    EngagementConfig sampled = expected;
    sampled.instant_swipe_prob = 0.20;
    const MixtureFit fit = fit_mixture(c, sampled, expected, 200'000, rng);
    EXPECT_LT(fit.ks_p, 1e-6) << "base " << c.engagement_base;
  }
}

TEST(SampleWatchFraction, RejectsOutOfRangeAffinity) {
  EngagementConfig cfg;
  Rng rng(15);
  EXPECT_THROW(sample_watch_fraction(-0.1, cfg, rng), PreconditionError);
  EXPECT_THROW(sample_watch_fraction(1.1, cfg, rng), PreconditionError);
}

// --------------------------------------------------------------- Transcode

TEST(Transcode, TopRungIsFree) {
  TranscodeModel model;
  Video v;
  v.duration_s = 30.0;
  EXPECT_DOUBLE_EQ(model.transcode_cycles(v, v.ladder.rung_count() - 1, 30.0), 0.0);
}

TEST(Transcode, CyclesScaleWithBitrateAndTime) {
  TranscodeModel model;
  model.cycles_per_bit = 10.0;
  Video v;
  v.duration_s = 30.0;
  const double c0 = model.transcode_cycles(v, 0, 10.0);
  // rung 0 = 750 kbps → 10 s → 7.5e6 bits → 7.5e7 cycles.
  EXPECT_DOUBLE_EQ(c0, 10.0 * 750.0 * 1e3 * 10.0);
  // Twice the time, twice the cycles.
  EXPECT_DOUBLE_EQ(model.transcode_cycles(v, 0, 20.0), 2.0 * c0);
  // Higher rung costs more per second.
  EXPECT_GT(model.transcode_cycles(v, 1, 10.0), c0);
}

TEST(Transcode, WatchTimeCappedAtDuration) {
  TranscodeModel model;
  Video v;
  v.duration_s = 10.0;
  EXPECT_DOUBLE_EQ(model.transcode_cycles(v, 0, 100.0),
                   model.transcode_cycles(v, 0, 10.0));
}

TEST(Transcode, UtilisationFraction) {
  TranscodeModel model;
  model.capacity_cycles_per_s = 1e9;
  EXPECT_DOUBLE_EQ(model.utilisation(5e8, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(model.utilisation(2e9, 4.0), 0.5);
}

TEST(Transcode, InvalidInputsRejected) {
  TranscodeModel model;
  Video v;
  EXPECT_THROW(model.transcode_cycles(v, 99, 1.0), PreconditionError);
  EXPECT_THROW(model.transcode_cycles(v, 0, -1.0), PreconditionError);
  EXPECT_THROW(model.utilisation(-1.0, 1.0), PreconditionError);
  EXPECT_THROW(model.utilisation(1.0, 0.0), PreconditionError);
}

}  // namespace
