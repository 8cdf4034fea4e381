// Unit tests for dtmsv::analysis — swiping distribution CDF/expectation
// semantics (the paper's Fig. 3(a) machinery), popularity tracking with
// forgetting, and the group recommender.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/popularity.hpp"
#include "analysis/recommend.hpp"
#include "analysis/swiping.hpp"
#include "util/error.hpp"

namespace {

using namespace dtmsv::analysis;
using dtmsv::behavior::PreferenceVector;
using dtmsv::util::PreconditionError;
using dtmsv::util::Rng;
using dtmsv::video::Category;
using dtmsv::video::kCategoryCount;

// ------------------------------------------------------ SwipingDistribution

TEST(SwipingDistribution, UninformedPriorIsUniform) {
  SwipingDistribution dist;
  // With no observations, CDF(t) = t.
  EXPECT_NEAR(dist.cumulative_swipe_probability(Category::kNews, 0.3), 0.3, 1e-9);
  EXPECT_NEAR(dist.expected_watch_fraction(Category::kNews), 0.5, 1e-9);
}

TEST(SwipingDistribution, CdfMonotoneAndBounded) {
  SwipingDistribution dist;
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    dist.observe(Category::kGame, rng.uniform());
  }
  double prev = -1.0;
  for (double t = 0.0; t <= 1.0; t += 0.05) {
    const double cdf = dist.cumulative_swipe_probability(Category::kGame, t);
    EXPECT_GE(cdf, prev - 1e-12);
    EXPECT_GE(cdf, 0.0);
    EXPECT_LE(cdf, 1.0);
    prev = cdf;
  }
  EXPECT_NEAR(dist.cumulative_swipe_probability(Category::kGame, 1.0), 1.0, 1e-9);
}

TEST(SwipingDistribution, EarlySwipersShiftCdfUp) {
  SwipingDistribution early;
  SwipingDistribution late;
  for (int i = 0; i < 200; ++i) {
    early.observe(Category::kGame, 0.1);
    late.observe(Category::kNews, 0.9);
  }
  EXPECT_GT(early.cumulative_swipe_probability(Category::kGame, 0.5),
            late.cumulative_swipe_probability(Category::kNews, 0.5) + 0.5);
  EXPECT_LT(early.expected_watch_fraction(Category::kGame),
            late.expected_watch_fraction(Category::kNews));
}

TEST(SwipingDistribution, ExpectedWatchFractionMatchesMass) {
  SwipingDistribution dist(20, 1.0);
  for (int i = 0; i < 100; ++i) {
    dist.observe(Category::kMusic, 0.25);
  }
  // 0.25 lands on the boundary of bin 5 ([0.25, 0.30)) → midpoint 0.275.
  EXPECT_NEAR(dist.expected_watch_fraction(Category::kMusic), 0.275, 0.01);
}

TEST(SwipingDistribution, ExpectedMaxIncreasesWithGroupSize) {
  SwipingDistribution dist;
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    dist.observe(Category::kSports, rng.beta(2.0, 4.0));
  }
  const double e1 = dist.expected_max_watch_fraction(Category::kSports, 1);
  const double e4 = dist.expected_max_watch_fraction(Category::kSports, 4);
  const double e32 = dist.expected_max_watch_fraction(Category::kSports, 32);
  EXPECT_LT(e1, e4);
  EXPECT_LT(e4, e32);
  EXPECT_LE(e32, 1.0);
  // E[max of 1] == E[X].
  EXPECT_NEAR(e1, dist.expected_watch_fraction(Category::kSports), 0.03);
}

TEST(SwipingDistribution, CategoryFallbackToAll) {
  SwipingDistribution dist;
  for (int i = 0; i < 100; ++i) {
    dist.observe(Category::kNews, 0.8);
  }
  // Game never observed → falls back to the all-category distribution.
  EXPECT_NEAR(dist.expected_watch_fraction(Category::kGame),
              dist.expected_watch_fraction(Category::kNews), 1e-9);
}

TEST(SwipingDistribution, DecayForgetsHistory) {
  SwipingDistribution dist(20, 0.5);
  for (int i = 0; i < 64; ++i) {
    dist.observe(Category::kComedy, 0.9);
  }
  const double mass_before = dist.mass(Category::kComedy);
  dist.decay();
  EXPECT_NEAR(dist.mass(Category::kComedy), mass_before * 0.5, 1e-9);
}

TEST(SwipingDistribution, ObservationValidation) {
  SwipingDistribution dist;
  EXPECT_THROW(dist.observe(Category::kNews, -0.1), PreconditionError);
  EXPECT_THROW(dist.observe(Category::kNews, 1.2), PreconditionError);
  dist.observe(Category::kNews, 1.0);  // boundary ok
  dist.observe(Category::kNews, 0.0);
}

TEST(BuildGroupSwiping, AggregatesMemberHistories) {
  dtmsv::twin::UserDigitalTwin a(0);
  dtmsv::twin::UserDigitalTwin b(1);
  dtmsv::twin::WatchObservation w;
  w.category = Category::kNews;
  w.watch_fraction = 0.9;
  a.record_watch(10.0, w);
  w.watch_fraction = 0.1;
  b.record_watch(20.0, w);

  const auto dist = build_group_swiping({&a, &b}, 30.0, 30.0);
  EXPECT_NEAR(dist.expected_watch_fraction(Category::kNews), 0.5, 0.06);
  EXPECT_DOUBLE_EQ(dist.mass(Category::kNews), 2.0);
}

TEST(BuildGroupSwiping, WindowExcludesOldEvents) {
  dtmsv::twin::UserDigitalTwin a(0);
  dtmsv::twin::WatchObservation w;
  w.category = Category::kNews;
  w.watch_fraction = 0.9;
  a.record_watch(10.0, w);   // old
  w.watch_fraction = 0.2;
  a.record_watch(100.0, w);  // recent

  const auto dist = build_group_swiping({&a}, 110.0, 30.0);
  EXPECT_DOUBLE_EQ(dist.mass(Category::kNews), 1.0);
  EXPECT_LT(dist.expected_watch_fraction(Category::kNews), 0.4);
}

// --------------------------------------------------------------- Popularity

TEST(Popularity, ScoresAccumulateEngagement) {
  PopularityAnalyzer pop;
  pop.observe(7, 10.0);
  pop.observe(7, 5.0);
  pop.observe(9, 3.0);
  EXPECT_DOUBLE_EQ(pop.score(7), 15.0);
  EXPECT_DOUBLE_EQ(pop.score(9), 3.0);
  EXPECT_DOUBLE_EQ(pop.score(1000), 0.0);
}

TEST(Popularity, TopVideosOrdered) {
  PopularityAnalyzer pop;
  pop.observe(1, 5.0);
  pop.observe(2, 20.0);
  pop.observe(3, 10.0);
  const auto top = pop.top_videos(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 2u);
  EXPECT_EQ(top[1], 3u);
}

TEST(Popularity, TiesBrokenByIdForDeterminism) {
  PopularityAnalyzer pop;
  pop.observe(9, 5.0);
  pop.observe(3, 5.0);
  const auto top = pop.top_videos(2);
  EXPECT_EQ(top[0], 3u);
  EXPECT_EQ(top[1], 9u);
}

TEST(Popularity, DecayPrunesDeadEntries) {
  PopularityAnalyzer pop(0.1);
  pop.observe(5, 5e-6);
  pop.observe(6, 100.0);
  pop.decay();  // 5 → 5e-7 < 1e-6 threshold → pruned
  EXPECT_EQ(pop.tracked_count(), 1u);
  EXPECT_DOUBLE_EQ(pop.score(5), 0.0);
  EXPECT_NEAR(pop.score(6), 10.0, 1e-9);
}

TEST(Popularity, TopVideosInCategoryFilters) {
  Rng rng(3);
  dtmsv::video::CatalogConfig cfg;
  cfg.videos_per_category = 10;
  const auto catalog = dtmsv::video::Catalog::generate(cfg, rng);

  PopularityAnalyzer pop;
  const auto& news = catalog.category_videos(Category::kNews);
  const auto& game = catalog.category_videos(Category::kGame);
  pop.observe(news[0], 50.0);
  pop.observe(game[0], 100.0);

  const auto top_news = pop.top_videos_in_category(5, Category::kNews, catalog);
  ASSERT_EQ(top_news.size(), 1u);
  EXPECT_EQ(top_news[0], news[0]);
}

// The full copy-and-sort ranking that preceded the per-category partial
// sort, kept verbatim as the oracle both ranking paths must reproduce.
std::vector<std::pair<std::uint64_t, double>> oracle_sorted_entries(
    const std::unordered_map<std::uint64_t, double>& scores) {
  std::vector<std::pair<std::uint64_t, double>> entries(scores.begin(), scores.end());
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) {
      return a.second > b.second;
    }
    return a.first < b.first;
  });
  return entries;
}

std::vector<std::uint64_t> oracle_top_videos(
    const std::unordered_map<std::uint64_t, double>& scores, std::size_t n) {
  std::vector<std::uint64_t> out;
  for (const auto& [id, score] : oracle_sorted_entries(scores)) {
    if (out.size() >= n) {
      break;
    }
    out.push_back(id);
  }
  return out;
}

std::vector<std::uint64_t> oracle_top_videos_in_category(
    const std::unordered_map<std::uint64_t, double>& scores, std::size_t n,
    Category category, const dtmsv::video::Catalog& catalog) {
  std::vector<std::uint64_t> out;
  for (const auto& [id, score] : oracle_sorted_entries(scores)) {
    if (out.size() >= n) {
      break;
    }
    if (catalog.video(id).category == category) {
      out.push_back(id);
    }
  }
  return out;
}

TEST(Popularity, RankingMatchesFullSortThenFilter) {
  Rng rng(21);
  dtmsv::video::CatalogConfig cfg;
  cfg.videos_per_category = 40;
  const auto catalog = dtmsv::video::Catalog::generate(cfg, rng);
  const std::size_t videos = cfg.videos_per_category * kCategoryCount;
  for (int trial = 0; trial < 20; ++trial) {
    // Scores drawn from a handful of values force ties, which only the id
    // tie-break can order.
    PopularityAnalyzer pop;
    std::unordered_map<std::uint64_t, double> scores;
    const auto tracked = static_cast<std::size_t>(rng.uniform_int(0, 120));
    for (std::size_t i = 0; i < tracked; ++i) {
      const auto id = static_cast<std::uint64_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(videos) - 1));
      if (scores.count(id) != 0) {
        continue;
      }
      const double score = trial % 2 == 0 ? static_cast<double>(rng.uniform_int(1, 4))
                                          : rng.uniform(0.5, 2.0);
      pop.observe(id, score);
      scores[id] = score;
    }
    ASSERT_EQ(pop.tracked_count(), scores.size());
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                scores.size(), scores.size() + 5}) {
      EXPECT_EQ(pop.top_videos(n), oracle_top_videos(scores, n))
          << "trial " << trial << " n " << n;
    }
    for (const Category category : dtmsv::video::all_categories()) {
      std::size_t in_category = 0;
      for (const auto& [id, score] : scores) {
        in_category += catalog.video(id).category == category ? 1 : 0;
      }
      for (const std::size_t n : {std::size_t{0}, std::size_t{1}, in_category,
                                  in_category + 3}) {
        EXPECT_EQ(pop.top_videos_in_category(n, category, catalog),
                  oracle_top_videos_in_category(scores, n, category, catalog))
            << "trial " << trial << " category " << static_cast<int>(category) << " n "
            << n;
      }
    }
  }
}

// -------------------------------------------------------------- Recommender

PreferenceVector news_heavy() {
  PreferenceVector p{};
  p[static_cast<std::size_t>(Category::kNews)] = 0.6;
  p[static_cast<std::size_t>(Category::kSports)] = 0.2;
  p[static_cast<std::size_t>(Category::kMusic)] = 0.2;
  return p;
}

TEST(Recommender, PlaylistSizeAndQuotas) {
  Rng rng(4);
  dtmsv::video::CatalogConfig ccfg;
  ccfg.videos_per_category = 50;
  const auto catalog = dtmsv::video::Catalog::generate(ccfg, rng);
  PopularityAnalyzer pop;
  RecommenderConfig rcfg;
  rcfg.playlist_size = 20;

  const Recommendation rec = recommend(catalog, pop, news_heavy(), rcfg);
  EXPECT_EQ(rec.playlist.size(), 20u);
  std::size_t total = 0;
  for (const std::size_t c : rec.per_category_counts) {
    total += c;
  }
  EXPECT_EQ(total, 20u);
  // News gets the largest quota (12 of 20).
  EXPECT_EQ(rec.per_category_counts[static_cast<std::size_t>(Category::kNews)], 12u);
  EXPECT_EQ(rec.per_category_counts[static_cast<std::size_t>(Category::kGame)], 0u);
}

TEST(Recommender, PlaylistRespectsCategories) {
  Rng rng(5);
  dtmsv::video::CatalogConfig ccfg;
  ccfg.videos_per_category = 30;
  const auto catalog = dtmsv::video::Catalog::generate(ccfg, rng);
  PopularityAnalyzer pop;
  RecommenderConfig rcfg;
  rcfg.playlist_size = 10;

  const Recommendation rec = recommend(catalog, pop, news_heavy(), rcfg);
  std::array<std::size_t, kCategoryCount> seen{};
  for (const std::uint64_t id : rec.playlist) {
    ++seen[static_cast<std::size_t>(catalog.video(id).category)];
  }
  for (std::size_t c = 0; c < kCategoryCount; ++c) {
    EXPECT_EQ(seen[c], rec.per_category_counts[c]);
  }
}

TEST(Recommender, ObservedPopularityLeadsPlaylist) {
  Rng rng(6);
  dtmsv::video::CatalogConfig ccfg;
  ccfg.videos_per_category = 30;
  const auto catalog = dtmsv::video::Catalog::generate(ccfg, rng);

  // Make an otherwise unpopular News video the most-watched.
  const auto& news_ids = catalog.category_videos(Category::kNews);
  const std::uint64_t hot = news_ids.back();  // worst catalog rank
  PopularityAnalyzer pop;
  pop.observe(hot, 1000.0);

  PreferenceVector pure_news{};
  pure_news[static_cast<std::size_t>(Category::kNews)] = 1.0;
  RecommenderConfig rcfg;
  rcfg.playlist_size = 10;
  const Recommendation rec = recommend(catalog, pop, pure_news, rcfg);
  ASSERT_FALSE(rec.playlist.empty());
  EXPECT_EQ(rec.playlist.front(), hot);
}

TEST(Recommender, NoDuplicateVideos) {
  Rng rng(7);
  dtmsv::video::CatalogConfig ccfg;
  ccfg.videos_per_category = 40;
  const auto catalog = dtmsv::video::Catalog::generate(ccfg, rng);
  PopularityAnalyzer pop;
  PreferenceVector uniform{};
  uniform.fill(1.0 / kCategoryCount);
  RecommenderConfig rcfg;
  rcfg.playlist_size = 36;
  const Recommendation rec = recommend(catalog, pop, uniform, rcfg);
  std::set<std::uint64_t> unique(rec.playlist.begin(), rec.playlist.end());
  EXPECT_EQ(unique.size(), rec.playlist.size());
}

TEST(AggregateGroupPreference, EvidenceWeighted) {
  dtmsv::twin::UserDigitalTwin heavy(0);
  dtmsv::twin::UserDigitalTwin light(1);
  dtmsv::twin::WatchObservation w;
  w.category = Category::kNews;
  w.watch_seconds = 1000.0;
  heavy.record_watch(1.0, w);
  heavy.record_preference(2.0, heavy.preference_estimator().estimate());

  w.category = Category::kGame;
  w.watch_seconds = 10.0;
  light.record_watch(1.0, w);
  light.record_preference(2.0, light.preference_estimator().estimate());

  const PreferenceVector pref = aggregate_group_preference({&heavy, &light});
  // Heavy user's News taste dominates the group profile.
  EXPECT_GT(pref[static_cast<std::size_t>(Category::kNews)], 0.8);
}

TEST(AggregateGroupPreference, EmptyGroupUniform) {
  const PreferenceVector pref = aggregate_group_preference({});
  for (const double p : pref) {
    EXPECT_DOUBLE_EQ(p, 1.0 / kCategoryCount);
  }
}

}  // namespace
