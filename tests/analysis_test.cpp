// Unit tests for dtmsv::analysis — swiping distribution CDF/expectation
// semantics (the paper's Fig. 3(a) machinery), popularity tracking with
// forgetting, and the group recommender.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/popularity.hpp"
#include "analysis/recommend.hpp"
#include "analysis/swiping.hpp"
#include "twin/column_store.hpp"
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
  dtmsv::twin::TwinColumnStore store_a(1, 2048);
  dtmsv::twin::TwinColumnStore store_b(1, 2048);
  const dtmsv::twin::UserDigitalTwin a(&store_a, 0);
  const dtmsv::twin::UserDigitalTwin b(&store_b, 0);
  dtmsv::twin::WatchObservation w;
  w.category = Category::kNews;
  w.watch_fraction = 0.9;
  store_a.record_watch(0, 10.0, w);
  w.watch_fraction = 0.1;
  store_b.record_watch(0, 20.0, w);

  const auto dist = build_group_swiping({&a, &b}, 30.0, 30.0);
  EXPECT_NEAR(dist.expected_watch_fraction(Category::kNews), 0.5, 0.06);
  EXPECT_DOUBLE_EQ(dist.mass(Category::kNews), 2.0);
}

TEST(BuildGroupSwiping, WindowExcludesOldEvents) {
  dtmsv::twin::TwinColumnStore store(1, 2048);
  const dtmsv::twin::UserDigitalTwin a(&store, 0);
  dtmsv::twin::WatchObservation w;
  w.category = Category::kNews;
  w.watch_fraction = 0.9;
  store.record_watch(0, 10.0, w);   // old
  w.watch_fraction = 0.2;
  store.record_watch(0, 100.0, w);  // recent

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
  pop.observe(news[1], 20.0);
  pop.observe(news[2], 50.0);  // ties news[0]: the lower id ranks first
  pop.observe(game[0], 100.0);

  const auto top_news = pop.top_videos_in_category(5, Category::kNews, catalog);
  const std::vector<std::uint64_t> expected = {std::min(news[0], news[2]),
                                               std::max(news[0], news[2]), news[1]};
  EXPECT_EQ(top_news, expected);
  EXPECT_EQ(pop.top_videos_in_category(1, Category::kNews, catalog).front(), expected[0]);
}

// The full copy-and-sort ranking that preceded the per-category partial
// sort, kept verbatim as the oracle the ranking must reproduce.
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
  dtmsv::twin::TwinColumnStore heavy_store(1, 2048);
  dtmsv::twin::TwinColumnStore light_store(1, 2048);
  const dtmsv::twin::UserDigitalTwin heavy(&heavy_store, 0);
  const dtmsv::twin::UserDigitalTwin light(&light_store, 0);
  dtmsv::twin::WatchObservation w;
  w.category = Category::kNews;
  w.watch_seconds = 1000.0;
  heavy_store.record_watch(0, 1.0, w);
  heavy_store.record_preference(0, 2.0, heavy_store.estimator(0).estimate());

  w.category = Category::kGame;
  w.watch_seconds = 10.0;
  light_store.record_watch(0, 1.0, w);
  light_store.record_preference(0, 2.0, light_store.estimator(0).estimate());

  const PreferenceVector pref = aggregate_group_preference({&heavy, &light});
  // Heavy user's News taste dominates the group profile.
  EXPECT_GT(pref[static_cast<std::size_t>(Category::kNews)], 0.8);
}

/// The aggregation formula, copied verbatim, over member preferences read
/// from summary rows instead of from the store.
PreferenceVector aggregate_from_summary_rows(const dtmsv::twin::TwinColumnStore& store,
                                             const std::vector<std::size_t>& members,
                                             double now) {
  PreferenceVector acc{};
  double total_weight = 0.0;
  for (const std::size_t u : members) {
    std::vector<double> row(dtmsv::twin::TwinColumnStore::kSummaryDim);
    store.extract_summary_row(u, {now, 60.0, dtmsv::twin::FeatureScaling{}}, row.data());
    const double weight = std::max(1.0, store.estimator(u).evidence_seconds());
    for (std::size_t c = 0; c < acc.size(); ++c) {
      acc[c] += weight * row[6 + c];
    }
    total_weight += weight;
  }
  for (double& v : acc) {
    v /= total_weight;
  }
  return dtmsv::behavior::normalized(acc);
}

TEST(AggregateGroupPreference, ReadsTheSummaryRowsPreference) {
  // User 0 has watch evidence but no preference snapshot (the estimator's
  // estimate is its preference); user 1's newest snapshot differs from its
  // running estimate, which has moved on since.
  dtmsv::twin::TwinColumnStore store(2, 2048);
  dtmsv::twin::WatchObservation w;
  w.category = Category::kNews;
  w.watch_seconds = 40.0;
  store.record_watch(0, 1.0, w);
  w.category = Category::kGame;
  w.watch_seconds = 25.0;
  store.record_watch(1, 1.0, w);
  store.record_preference(1, 2.0, store.estimator(1).estimate());
  store.record_preference(1, 3.0, store.estimator(1).estimate());
  w.category = Category::kMusic;
  w.watch_seconds = 90.0;
  store.record_watch(1, 4.0, w);
  ASSERT_NE(store.estimator(1).estimate(), store.latest_preference(1));

  const dtmsv::twin::UserDigitalTwin empty_ring(&store, 0);
  const dtmsv::twin::UserDigitalTwin with_rows(&store, 1);
  for (const std::size_t u : {0u, 1u}) {
    std::vector<double> row(dtmsv::twin::TwinColumnStore::kSummaryDim);
    store.extract_summary_row(u, {5.0, 60.0, dtmsv::twin::FeatureScaling{}}, row.data());
    const PreferenceVector expected =
        u == 0 ? store.estimator(0).estimate()
               : store.preference_column().get(1, store.preference_column().size(1) - 1);
    EXPECT_EQ(std::memcmp(row.data() + 6, expected.data(), sizeof(expected)), 0)
        << "summary row of user " << u;
  }
  const std::vector<std::pair<std::vector<const dtmsv::twin::UserDigitalTwin*>,
                              std::vector<std::size_t>>>
      groups = {{{&empty_ring}, {0}}, {{&with_rows}, {1}}, {{&empty_ring, &with_rows}, {0, 1}}};
  for (const auto& [members, slots] : groups) {
    const PreferenceVector got = aggregate_group_preference(members);
    const PreferenceVector want = aggregate_from_summary_rows(store, slots, 5.0);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), sizeof(got)), 0)
        << "group of " << slots.size() << " from slot " << slots.front();
  }
}

TEST(AggregateGroupPreference, EmptyGroupUniform) {
  const PreferenceVector pref = aggregate_group_preference({});
  for (const double p : pref) {
    EXPECT_DOUBLE_EQ(p, 1.0 / kCategoryCount);
  }
}

}  // namespace
