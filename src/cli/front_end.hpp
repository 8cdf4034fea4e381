// The command-line front end shared by tools/dtmsv_sim.cpp and
// tools/dtmsv_serve.cpp. Both tools take one INI config and the same flags:
//
//   --out PATH       stream NDJSON records to PATH ('-' = stdout); overrides
//                    the config's [run] report key
//   --set KEY=VALUE  override a config key (repeatable)
//   --threads N      thread-pool size (overrides [run] threads; 0 = default)
//   --print-config   print the effective config after overrides, then exit
//   --quiet          suppress the human summary
//   --help, -h       print the usage text to stdout, then exit
//
// and answer with one exit status: 0 success, 1 config/runtime error,
// 2 usage error. run_main() owns that contract, the config load with its
// overrides and the top-level error catch; start_run() applies the run
// options and opens the report stream; a tool keeps its usage text, its
// NDJSON meta records, its run loop and its summary table.
#pragma once

#include <cstddef>
#include <fstream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/json_sink.hpp"
#include "util/config.hpp"

namespace dtmsv::cli {

/// A malformed command line; what() names the problem.
class UsageError : public std::runtime_error {
 public:
  explicit UsageError(const std::string& what) : std::runtime_error(what) {}
};

/// The parsed command line.
struct Options {
  std::string config_path;
  std::optional<std::string> out_path;  // --out
  std::vector<std::string> overrides;   // --set, each KEY=VALUE
  std::optional<std::size_t> threads;   // --threads
  bool print_config = false;
  bool list_stages = false;
  bool quiet = false;
  bool help = false;  // parsing stops at --help
};

/// Parses the arguments after the program name. `--list-stages` is accepted
/// only when `accepts_list_stages`. Throws UsageError on an unknown flag, a
/// flag without its value, `--set` without '=', a `--threads` value that is
/// not a non-negative integer, or a second positional argument. A missing
/// config path is left for the caller (--help and --list-stages need none).
Options parse_args(const std::vector<std::string>& args, bool accepts_list_stages);

/// One tool's identity: the name that prefixes its errors, its usage text,
/// and its --list-stages action (null: the tool has no such flag).
struct Tool {
  const char* name;
  const char* usage;
  void (*list_stages)() = nullptr;
};

/// The tool's work once the config is loaded: build the plan from `config`
/// (whose --set overrides are applied), run it and print the summary.
/// Throws on any config or runtime failure.
using RunFn = void (*)(util::Config& config, const Options& options);

/// The whole command-line contract: parses argv (usage errors print the
/// usage text to stderr, exit 2), handles --help and --list-stages, reads
/// the config and applies the --set overrides in order, prints it for
/// --print-config, and otherwise calls `run`. Any exception it or `run`
/// throws is printed as "<name>: <what>" on stderr with exit 1.
int run_main(const Tool& tool, int argc, char** argv, RunFn run);

/// The NDJSON report destination: none (empty path), stdout ("-") or a
/// file.
class ReportStream {
 public:
  /// Opens `path`; throws util::RuntimeError when the file cannot be
  /// written.
  explicit ReportStream(std::string path);
  ReportStream(const ReportStream&) = delete;
  ReportStream& operator=(const ReportStream&) = delete;

  /// Null when no report was asked for.
  std::ostream* stream() const { return out_; }
  /// Closes a file (or flushes stdout), then throws util::RuntimeError if
  /// any write failed: a truncated report must not end with exit 0.
  void finish();
  /// Where the human summary goes: stderr while records stream to stdout,
  /// so the NDJSON stays machine-parseable.
  std::ostream& info() const;
  /// "stdout" or the file path, for messages; empty when there is no report.
  std::string name() const;

 private:
  std::string path_;
  std::ofstream file_;
  std::ostream* out_ = nullptr;
};

/// Applies --out and --threads over the plan's [run] values, rejects a
/// thread count above util::kMaxThreads (naming `run.threads` or
/// `--threads`), sets a non-zero count on the pool, and opens the report.
ReportStream start_run(const Options& options, std::size_t& threads,
                       std::string& report_path);

using MetaFields = std::vector<std::pair<std::string, std::string>>;

/// Writes the {"type":"run"} record: `head`, then the pool size that runs
/// (util::thread_count()), the SIMD backend and whether the build targets
/// the native ISA, then `tail`.
void write_run_meta(core::JsonReportSink& sink, MetaFields head,
                    const MetaFields& tail = {});

}  // namespace dtmsv::cli
