// Unit tests for the command-line front end shared by dtmsv_sim and
// dtmsv_serve (src/cli/front_end.*): argv parsing and its usage errors, the
// thread-count ceiling on run options, the NDJSON report stream, and the
// run record's shared fields. CMakeLists.txt drives the same contract
// through both binaries.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/front_end.hpp"
#include "core/json_sink.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace {

using namespace dtmsv;
using Args = std::vector<std::string>;

TEST(FrontEndArgs, ParsesEveryFlag) {
  const cli::Options o = cli::parse_args(
      {"run.ini", "--out", "-", "--set", "a.b=1", "--set", "c=x=y", "--threads", "3",
       "--print-config", "--quiet"},
      false);
  EXPECT_EQ(o.config_path, "run.ini");
  EXPECT_EQ(o.out_path, "-");
  EXPECT_EQ(o.overrides, (Args{"a.b=1", "c=x=y"}));
  EXPECT_EQ(o.threads, 3u);
  EXPECT_TRUE(o.print_config);
  EXPECT_TRUE(o.quiet);
  EXPECT_FALSE(o.help);
  EXPECT_FALSE(o.list_stages);

  // Unset options stay unset: the config's [run] values then apply.
  const cli::Options bare = cli::parse_args({"run.ini"}, false);
  EXPECT_FALSE(bare.out_path.has_value());
  EXPECT_FALSE(bare.threads.has_value());
  EXPECT_TRUE(bare.overrides.empty());
  EXPECT_TRUE(cli::parse_args({}, false).config_path.empty());
}

TEST(FrontEndArgs, HelpStopsParsing) {
  for (const char* flag : {"--help", "-h"}) {
    const cli::Options o = cli::parse_args({flag, "--no-such-flag", "a", "b"}, false);
    EXPECT_TRUE(o.help) << flag;
  }
  // A bad argument before --help is still reported.
  EXPECT_THROW(cli::parse_args({"--no-such-flag", "--help"}, false), cli::UsageError);
}

TEST(FrontEndArgs, ListStagesOnlyWhereTheToolHasIt) {
  EXPECT_TRUE(cli::parse_args({"--list-stages"}, true).list_stages);
  EXPECT_THROW(cli::parse_args({"--list-stages"}, false), cli::UsageError);
}

TEST(FrontEndArgs, MalformedCommandLinesNameTheProblem) {
  const struct {
    Args args;
    const char* message;
  } cases[] = {
      {{"run.ini", "--out"}, "--out needs a value"},
      {{"run.ini", "--set"}, "--set needs a value"},
      {{"run.ini", "--threads"}, "--threads needs a value"},
      {{"run.ini", "--set", "foo"}, "--set expects KEY=VALUE, got 'foo'"},
      {{"run.ini", "--threads", "abc"}, "--threads: 'abc' is not a non-negative integer"},
      {{"run.ini", "--threads", "-1"}, "--threads: '-1' is not a non-negative integer"},
      {{"run.ini", "--no-such-flag"}, "unknown option '--no-such-flag'"},
      {{"run.ini", "extra.ini"}, "unexpected argument 'extra.ini'"},
  };
  for (const auto& c : cases) {
    try {
      cli::parse_args(c.args, true);
      ADD_FAILURE() << "expected UsageError: " << c.message;
    } catch (const cli::UsageError& error) {
      EXPECT_EQ(std::string(error.what()), c.message);
    }
  }
}

TEST(FrontEndRun, ThreadCountsAboveTheCeilingAreRejectedBeforeThePoolSeesThem) {
  const std::size_t before = util::thread_count();
  cli::Options options;
  std::string report;

  std::size_t threads = util::kMaxThreads + 1;  // [run] threads
  try {
    cli::start_run(options, threads, report);
    ADD_FAILURE() << "expected RuntimeError";
  } catch (const util::RuntimeError& error) {
    EXPECT_NE(std::string(error.what()).find("run.threads must be at most 256"),
              std::string::npos);
  }

  threads = 0;
  options.threads = util::kMaxThreads + 1;
  try {
    cli::start_run(options, threads, report);
    ADD_FAILURE() << "expected RuntimeError";
  } catch (const util::RuntimeError& error) {
    EXPECT_NE(std::string(error.what()).find("--threads must be at most 256"),
              std::string::npos);
  }
  EXPECT_EQ(util::thread_count(), before);
}

TEST(FrontEndRun, OptionsOverrideTheRunKeys) {
  cli::Options options;
  options.threads = 2;
  options.out_path = "";  // --out '' turns off a configured report
  std::size_t threads = 4;
  std::string report = "from_config.ndjson";
  const cli::ReportStream stream = cli::start_run(options, threads, report);
  EXPECT_EQ(threads, 2u);
  EXPECT_EQ(util::thread_count(), 2u);
  EXPECT_EQ(report, "");
  EXPECT_EQ(stream.stream(), nullptr);
  util::set_thread_count(0);
}

TEST(FrontEndReport, OpensWritesAndChecksTheFile) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "dtmsv_front_end_test.ndjson";
  {
    cli::ReportStream report(path.string());
    ASSERT_NE(report.stream(), nullptr);
    EXPECT_EQ(report.name(), path.string());
    EXPECT_EQ(&report.info(), &std::cout);
    *report.stream() << "{\"type\":\"summary\"}\n";
    report.finish();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "{\"type\":\"summary\"}");
  std::filesystem::remove(path);

  try {
    cli::ReportStream missing_dir(
        (std::filesystem::temp_directory_path() / "dtmsv_no_such_dir" / "r.ndjson")
            .string());
    ADD_FAILURE() << "expected RuntimeError";
  } catch (const util::RuntimeError& error) {
    EXPECT_NE(std::string(error.what()).find("cannot write NDJSON report to"),
              std::string::npos);
  }
}

TEST(FrontEndReport, StdoutMovesTheSummaryToStderr) {
  const cli::ReportStream to_stdout("-");
  EXPECT_EQ(to_stdout.stream(), &std::cout);
  EXPECT_EQ(&to_stdout.info(), &std::cerr);
  EXPECT_EQ(to_stdout.name(), "stdout");

  cli::ReportStream none("");
  EXPECT_EQ(none.stream(), nullptr);
  EXPECT_EQ(&none.info(), &std::cout);
  none.finish();  // nothing to flush
}

TEST(FrontEndReport, FailedWritesAreReportedAtFinish) {
  cli::ReportStream report("-");
  std::cout.setstate(std::ios::badbit);
  EXPECT_THROW(report.finish(), util::RuntimeError);
  std::cout.clear();
}

TEST(FrontEndMeta, RunRecordCarriesThePoolSizeThatRuns) {
  util::set_thread_count(3);
  std::ostringstream out;
  core::JsonReportSink sink(out);
  cli::write_run_meta(sink, {{"mode", core::json_string("test")}},
                      {{"tail", "1"}});
  util::set_thread_count(0);
  const std::string line = out.str();
  EXPECT_EQ(line.rfind("{\"type\":\"run\",\"mode\":\"test\",\"threads\":3,"
                       "\"simd_backend\":",
                       0),
            0u)
      << line;
  EXPECT_NE(line.find(",\"native_arch\":\""), std::string::npos) << line;
  EXPECT_NE(line.find("\",\"tail\":1}\n"), std::string::npos) << line;
}

}  // namespace
