// Unit tests for util::Config (the INI parser behind the dtmsv_sim CLI) and
// cli::load_plan (config text -> scenario jobs): parse/round-trip behaviour,
// typed getters, malformed-input errors, grid expansion, stage-key and
// unknown-key validation.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cli/scenario_loader.hpp"
#include "core/scenarios.hpp"
#include "util/config.hpp"
#include "util/error.hpp"

namespace {

using namespace dtmsv;
using util::Config;

// ------------------------------------------------------------------ parsing

TEST(Config, ParsesSectionsCommentsAndWhitespace) {
  Config c = Config::parse(
      "# full-line comment\n"
      "; alternative comment\n"
      "root_key = 1\n"
      "\n"
      "[scenario]\n"
      "  kind   =   flash_crowd  \n"
      "users = 240   # inline comment\n"
      "list = a, b ,c,\n"
      "[a.b]\n"
      "nested = yes\n");
  EXPECT_EQ(c.get("root_key"), "1");
  EXPECT_EQ(c.get("scenario.kind"), "flash_crowd");
  EXPECT_EQ(c.get_size("scenario.users"), 240u);
  EXPECT_EQ(c.get_list("scenario.list"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(c.get_bool("a.b.nested"));
  EXPECT_EQ(c.size(), 5u);
}

TEST(Config, ValueMayContainEqualsAndUnspacedHash) {
  Config c = Config::parse("expr = a=b=c\ncolor = #ff0000\n");
  EXPECT_EQ(c.get("expr"), "a=b=c");
  // '#' only starts an inline comment after whitespace.
  EXPECT_EQ(c.get("color"), "#ff0000");
}

TEST(Config, MalformedLinesReportLineNumbers) {
  try {
    Config::parse("ok = 1\nnot a pair\n");
    FAIL() << "expected RuntimeError";
  } catch (const util::RuntimeError& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW(Config::parse("[unterminated\n"), util::RuntimeError);
  EXPECT_THROW(Config::parse("[]\n"), util::RuntimeError);
  EXPECT_THROW(Config::parse("= value\n"), util::RuntimeError);
  EXPECT_THROW(Config::parse("a = 1\na = 2\n"), util::RuntimeError);
  // Same leaf under different sections is not a duplicate.
  EXPECT_NO_THROW(Config::parse("[x]\na = 1\n[y]\na = 2\n"));
}

TEST(Config, TypedGettersValidate) {
  Config c = Config::parse(
      "d = 2.5\nn = 7\nneg = -3\nb1 = on\nb0 = No\nbad = maybe\ntext = abc\n");
  EXPECT_DOUBLE_EQ(c.get_double("d"), 2.5);
  EXPECT_EQ(c.get_size("n"), 7u);
  EXPECT_EQ(c.get_uint64("n"), 7u);
  EXPECT_TRUE(c.get_bool("b1"));
  EXPECT_FALSE(c.get_bool("b0"));
  EXPECT_THROW(c.get_double("text"), util::RuntimeError);
  EXPECT_THROW(c.get_size("neg"), util::RuntimeError);
  EXPECT_THROW(c.get_size("d"), util::RuntimeError);
  EXPECT_THROW(c.get_bool("bad"), util::RuntimeError);
  EXPECT_THROW(c.get("missing"), util::RuntimeError);
  EXPECT_EQ(c.get_or("missing", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(c.get_double_or("missing", 1.5), 1.5);
  EXPECT_EQ(c.get_size_or("missing", 9u), 9u);
  EXPECT_TRUE(c.get_bool_or("missing", true));
}

TEST(Config, RoundTripsThroughToString) {
  Config original = Config::parse(
      "zebra = root keys sort after sections\n"
      "alpha = 1\n"
      "[scenario]\n"
      "kind = steady_state\n"
      "total_users = 240\n"
      "[a.b]\n"
      "deep = value with spaces\n");
  Config reparsed = Config::parse(original.to_string());
  ASSERT_EQ(reparsed.keys(), original.keys());
  for (const std::string& key : original.keys()) {
    EXPECT_EQ(reparsed.get(key), original.get(key)) << key;
  }
  // A second trip is a fixed point.
  EXPECT_EQ(Config::parse(reparsed.to_string()).to_string(),
            reparsed.to_string());
}

TEST(Config, ParseUint64RejectsSignsPartialParsesAndOverflow) {
  EXPECT_EQ(util::parse_uint64("7", "n"), 7u);
  EXPECT_EQ(util::parse_uint64("0", "n"), 0u);
  EXPECT_THROW(util::parse_uint64("-1", "n"), util::RuntimeError);
  EXPECT_THROW(util::parse_uint64("+1", "n"), util::RuntimeError);
  EXPECT_THROW(util::parse_uint64("7x", "n"), util::RuntimeError);
  EXPECT_THROW(util::parse_uint64(" 7", "n"), util::RuntimeError);
  EXPECT_THROW(util::parse_uint64("", "n"), util::RuntimeError);
  EXPECT_THROW(util::parse_uint64("99999999999999999999999", "n"),
               util::RuntimeError);
}

TEST(Config, SetOverridesAndUnreadTracking) {
  Config c = Config::parse("[s]\nread_me = 1\ntypo_key = 2\n");
  c.set("s.read_me", "10");
  EXPECT_EQ(c.get_size("s.read_me"), 10u);
  const std::vector<std::string> unread = c.unread_keys();
  ASSERT_EQ(unread.size(), 1u);
  EXPECT_EQ(unread.front(), "s.typo_key");
}

// ------------------------------------------------------------- plan loading

TEST(ScenarioLoader, LoadsSingleScenarioWithOverrides) {
  Config c = Config::parse(
      "[scenario]\n"
      "kind = flash_crowd\n"
      "total_users = 64\n"
      "cell_count = 2\n"
      "intervals = 4\n"
      "seed = 9\n"
      "surge_interval = 1\n"
      "surge_fraction = 0.25\n"
      "[run]\n"
      "threads = 3\n"
      "report = out.ndjson\n"
      "[stages]\n"
      "feature = summary\n"
      "grouping = elbow\n"
      "demand = mean\n"
      "[scheme]\n"
      "interval_s = 30\n"
      "[grouping]\n"
      "k_max = 5\n");
  const cli::SimPlan plan = cli::load_plan(c);
  EXPECT_EQ(plan.threads, 3u);
  EXPECT_EQ(plan.report_path, "out.ndjson");
  ASSERT_EQ(plan.jobs.size(), 1u);
  const cli::SimJob& job = plan.jobs.front();
  EXPECT_EQ(job.label, "flash_crowd");
  EXPECT_EQ(job.scenario.kind, core::ScenarioKind::kFlashCrowd);
  EXPECT_EQ(job.scenario.total_users, 64u);
  EXPECT_EQ(job.scenario.cell_count, 2u);
  EXPECT_EQ(job.scenario.intervals, 4u);
  EXPECT_EQ(job.scenario.seed, 9u);
  EXPECT_EQ(job.scenario.surge_interval, 1u);
  EXPECT_DOUBLE_EQ(job.scenario.surge_fraction, 0.25);
  EXPECT_EQ(job.scenario.base.feature_stage, "summary");
  EXPECT_EQ(job.scenario.base.grouping_stage, "elbow");
  EXPECT_EQ(job.scenario.base.demand_stage, "mean");
  EXPECT_DOUBLE_EQ(job.scenario.base.interval_s, 30.0);
  EXPECT_EQ(job.scenario.base.grouping.k_max, 5u);
}

TEST(ScenarioLoader, GridExpandsCrossProductWithUniqueLabels) {
  Config c = Config::parse(
      "[grid]\n"
      "scenario = steady_state, catalog_drift\n"
      "seed = 1, 2\n"
      "grouping = ddqn, elbow\n");
  const cli::SimPlan plan = cli::load_plan(c);
  ASSERT_EQ(plan.jobs.size(), 8u);
  std::set<std::string> labels;
  for (const cli::SimJob& job : plan.jobs) {
    labels.insert(job.label);
  }
  EXPECT_EQ(labels.size(), 8u);  // every grid cell distinctly labelled
  EXPECT_EQ(plan.jobs.front().label, "steady_state/seed=1/default+ddqn+default");
}

TEST(ScenarioLoader, CatalogDriftRatesComeFromTheSchemeKeys) {
  // catalog_drift's own rates stand unless the [scheme] keys override them.
  Config defaults = Config::parse("[scenario]\nkind = catalog_drift\n");
  const cli::SimPlan plain = cli::load_plan(defaults);
  ASSERT_EQ(plain.jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(plain.jobs.front().scenario.base.affinity_drift_rate, 0.25);
  EXPECT_DOUBLE_EQ(plain.jobs.front().scenario.base.popularity_forgetting, 0.45);

  Config c = Config::parse(
      "[scenario]\n"
      "kind = catalog_drift\n"
      "[scheme]\n"
      "affinity_drift_rate = 0.5\n"
      "popularity_forgetting = 0.3\n");
  const cli::SimPlan plan = cli::load_plan(c);
  ASSERT_EQ(plan.jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.jobs.front().scenario.base.affinity_drift_rate, 0.5);
  EXPECT_DOUBLE_EQ(plan.jobs.front().scenario.base.popularity_forgetting, 0.3);

  // The [scenario] spelling that shadowed the drift rate is gone: unknown.
  Config old = Config::parse(
      "[scenario]\nkind = catalog_drift\ndrift_rate = 0.5\n");
  try {
    cli::load_plan(old);
    FAIL() << "expected RuntimeError";
  } catch (const util::RuntimeError& error) {
    EXPECT_NE(std::string(error.what()).find("unknown config keys: scenario.drift_rate"),
              std::string::npos)
        << error.what();
  }
}

TEST(ScenarioLoader, KindSpecificKeysNeedAJobOfTheirKind) {
  // A grid with a flash_crowd job reads the surge key for that job only.
  Config grid = Config::parse(
      "[scenario]\nsurge_fraction = 0.25\n"
      "[grid]\nscenario = steady_state, flash_crowd\n");
  const cli::SimPlan plan = cli::load_plan(grid);
  ASSERT_EQ(plan.jobs.size(), 2u);
  EXPECT_DOUBLE_EQ(plan.jobs[0].scenario.surge_fraction,
                   core::make_scenario(core::ScenarioKind::kSteadyState, 240, 4)
                       .surge_fraction);
  EXPECT_DOUBLE_EQ(plan.jobs[1].scenario.surge_fraction, 0.25);

  // A plan without the reading kind rejects the key and names that kind.
  const std::pair<const char*, const char*> cases[] = {
      {"surge_interval = 1", "'scenario.surge_interval' is read only by scenario kind flash_crowd"},
      {"surge_cell = 1", "'scenario.surge_cell' is read only by scenario kind flash_crowd"},
      {"surge_fraction = 0.9", "'scenario.surge_fraction' is read only by scenario kind flash_crowd"},
      {"churn_fraction = 0.9",
       "'scenario.churn_fraction' is read only by scenario kind mobility_churn"},
  };
  for (const auto& [line, message] : cases) {
    Config c = Config::parse(std::string("[scenario]\nkind = steady_state\n") + line + "\n");
    try {
      cli::load_plan(c);
      ADD_FAILURE() << "expected RuntimeError for " << line;
    } catch (const util::RuntimeError& error) {
      EXPECT_NE(std::string(error.what()).find(message), std::string::npos) << error.what();
    }
  }
}

TEST(ScenarioLoader, RejectsUnknownScenarioStageAndTypoKeys) {
  Config bad_kind = Config::parse("[scenario]\nkind = rush_hour\n");
  try {
    cli::load_plan(bad_kind);
    FAIL() << "expected RuntimeError";
  } catch (const util::RuntimeError& error) {
    // the error must teach the valid names
    EXPECT_NE(std::string(error.what()).find("steady_state"), std::string::npos);
  }

  Config bad_stage = Config::parse(
      "[scenario]\nkind = steady_state\n[stages]\ngrouping = kmedoids\n");
  try {
    cli::load_plan(bad_stage);
    FAIL() << "expected RuntimeError";
  } catch (const util::RuntimeError& error) {
    EXPECT_NE(std::string(error.what()).find("ddqn"), std::string::npos);
  }

  Config typo = Config::parse(
      "[scenario]\nkind = steady_state\nsurge_fracton = 0.5\n");
  try {
    cli::load_plan(typo);
    FAIL() << "expected RuntimeError";
  } catch (const util::RuntimeError& error) {
    EXPECT_NE(std::string(error.what()).find("surge_fracton"), std::string::npos);
  }

  Config missing_kind = Config::parse("[run]\nthreads = 1\n");
  EXPECT_THROW(cli::load_plan(missing_kind), util::RuntimeError);
}

TEST(ScenarioLoader, GridAndSingleValueFormsAreMutuallyExclusive) {
  // A single value silently shadowed by the grid list would defeat the
  // unknown-key guard for legitimate keys, so setting both is an error.
  Config both_seed = Config::parse(
      "[scenario]\nkind = steady_state\nseed = 7\n[grid]\nseed = 1, 2\n");
  try {
    cli::load_plan(both_seed);
    FAIL() << "expected RuntimeError";
  } catch (const util::RuntimeError& error) {
    EXPECT_NE(std::string(error.what()).find("grid.seed"), std::string::npos);
  }

  Config both_kind = Config::parse(
      "[scenario]\nkind = steady_state\n[grid]\nscenario = flash_crowd\n");
  EXPECT_THROW(cli::load_plan(both_kind), util::RuntimeError);

  Config both_stage = Config::parse(
      "[scenario]\nkind = steady_state\n[stages]\ngrouping = ddqn\n"
      "[grid]\ngrouping = ddqn, elbow\n");
  EXPECT_THROW(cli::load_plan(both_stage), util::RuntimeError);
}

}  // namespace
