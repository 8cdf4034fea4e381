#include "cli/front_end.hpp"

#include <iostream>

#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace dtmsv::cli {

namespace {

constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;  // config/runtime failure
constexpr int kExitUsage = 2;    // bad command line

}  // namespace

Options parse_args(const std::vector<std::string>& args, bool accepts_list_stages) {
  Options options;
  std::size_t i = 0;
  const auto value_of = [&](const std::string& flag) -> const std::string& {
    if (i + 1 >= args.size()) {
      throw UsageError(flag + " needs a value");
    }
    return args[++i];
  };
  for (; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      options.help = true;
      return options;
    } else if (arg == "--out") {
      options.out_path = value_of(arg);
    } else if (arg == "--set") {
      const std::string& pair = value_of(arg);
      if (pair.find('=') == std::string::npos) {
        throw UsageError("--set expects KEY=VALUE, got '" + pair + "'");
      }
      options.overrides.push_back(pair);
    } else if (arg == "--threads") {
      try {
        options.threads =
            static_cast<std::size_t>(util::parse_uint64(value_of(arg), "--threads"));
      } catch (const util::RuntimeError& error) {
        throw UsageError(error.what());
      }
    } else if (arg == "--print-config") {
      options.print_config = true;
    } else if (arg == "--list-stages" && accepts_list_stages) {
      options.list_stages = true;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (!arg.empty() && arg.front() == '-') {
      throw UsageError("unknown option '" + arg + "'");
    } else if (options.config_path.empty()) {
      options.config_path = arg;
    } else {
      throw UsageError("unexpected argument '" + arg + "'");
    }
  }
  return options;
}

int run_main(const Tool& tool, int argc, char** argv, RunFn run) {
  Options options;
  try {
    options = parse_args(std::vector<std::string>(argv + 1, argv + argc),
                         tool.list_stages != nullptr);
    if (!options.help && !options.list_stages && options.config_path.empty()) {
      throw UsageError("missing config file");
    }
  } catch (const UsageError& error) {
    std::cerr << tool.name << ": " << error.what() << "\n\n" << tool.usage;
    return kExitUsage;
  }
  if (options.help) {
    std::cout << tool.usage;
    return kExitOk;
  }
  if (options.list_stages) {
    tool.list_stages();
    return kExitOk;
  }

  try {
    util::Config config = util::Config::read_file(options.config_path);
    for (const std::string& pair : options.overrides) {
      const std::size_t eq = pair.find('=');
      config.set(pair.substr(0, eq), pair.substr(eq + 1));
    }
    if (options.print_config) {
      std::cout << config.to_string();
      return kExitOk;
    }
    run(config, options);
    return kExitOk;
  } catch (const std::exception& error) {
    std::cerr << tool.name << ": " << error.what() << "\n";
    return kExitRuntime;
  }
}

ReportStream::ReportStream(std::string path) : path_(std::move(path)) {
  if (path_ == "-") {
    out_ = &std::cout;
  } else if (!path_.empty()) {
    file_.open(path_);
    if (!file_) {
      throw util::RuntimeError("cannot write NDJSON report to " + path_);
    }
    out_ = &file_;
  }
}

void ReportStream::finish() {
  if (out_ == nullptr) {
    return;
  }
  // Flush (and for files, close) before checking: a failure in the final
  // buffer flush must not produce a truncated report with exit 0.
  if (out_ == &file_) {
    file_.close();
  } else {
    out_->flush();
  }
  if (out_->fail() || out_->bad()) {
    throw util::RuntimeError("I/O error while writing NDJSON report to " + name());
  }
}

std::ostream& ReportStream::info() const {
  return path_ == "-" ? std::cerr : std::cout;
}

std::string ReportStream::name() const {
  return path_ == "-" ? "stdout" : path_;
}

ReportStream start_run(const Options& options, std::size_t& threads,
                       std::string& report_path) {
  const auto check_threads = [](std::size_t n, const char* key) {
    if (n > util::kMaxThreads) {
      throw util::RuntimeError(std::string(key) + " must be at most " +
                               std::to_string(util::kMaxThreads) + ", got " +
                               std::to_string(n));
    }
  };
  check_threads(threads, "run.threads");
  if (options.threads) {
    check_threads(*options.threads, "--threads");
    threads = *options.threads;
  }
  if (options.out_path) {
    report_path = *options.out_path;
  }
  if (threads > 0) {
    util::set_thread_count(threads);
  }
  return ReportStream(report_path);
}

void write_run_meta(core::JsonReportSink& sink, MetaFields head,
                    const MetaFields& tail) {
  using core::json_string;
  head.emplace_back("threads", std::to_string(util::thread_count()));
  head.emplace_back("simd_backend", json_string(util::simd::active_backend_name()));
  head.emplace_back("native_arch",
                    json_string(util::simd::native_arch_build() ? "on" : "off"));
  head.insert(head.end(), tail.begin(), tail.end());
  sink.meta("run", head);
}

}  // namespace dtmsv::cli
