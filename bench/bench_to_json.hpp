// Drop-in replacement for BENCHMARK_MAIN() that tees every run to a JSON
// file, so the perf trajectory of each bench binary is machine-readable
// without remembering google-benchmark's --benchmark_out flags.
//
// Usage (instead of BENCHMARK_MAIN()):
//   DTMSV_BENCHMARK_MAIN_JSON("BENCH_micro_perf.json");
//
// The output path can be overridden at run time with the
// DTMSV_BENCH_JSON environment variable; console output is unchanged.
//
// Each trajectory file has exactly one writer, which rewrites it whole on
// every run.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "util/simd.hpp"

namespace dtmsv::bench {

inline int run_benchmarks_with_json(int argc, char** argv,
                                    const std::string& default_json_path) {
  std::string json_path = default_json_path;
  if (const char* env = std::getenv("DTMSV_BENCH_JSON")) {
    json_path = env;
  }

  // Inject --benchmark_out flags unless the caller passed their own;
  // google-benchmark then tees console output and a JSON file itself.
  std::vector<std::string> args(argv, argv + argc);
  bool has_out_flag = false;
  for (const auto& a : args) {
    if (a.rfind("--benchmark_out=", 0) == 0) {
      has_out_flag = true;
    }
  }
  if (!has_out_flag && !json_path.empty()) {
    args.push_back("--benchmark_out=" + json_path);
    args.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> raw;
  raw.reserve(args.size());
  for (auto& a : args) {
    raw.push_back(a.data());
  }
  int raw_argc = static_cast<int>(raw.size());

  // Baselines are only comparable within one ISA regime: record which SIMD
  // backend the library was compiled to use and whether the build targeted
  // the host CPU. Lands in the JSON "context" block (and the console
  // header) next to num_cpus / build type.
  benchmark::AddCustomContext("dtmsv_simd_backend",
                              util::simd::active_backend_name());
  benchmark::AddCustomContext("dtmsv_native_arch",
                              util::simd::native_arch_build() ? "on" : "off");

  benchmark::Initialize(&raw_argc, raw.data());
  if (benchmark::ReportUnrecognizedArguments(raw_argc, raw.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  if (!has_out_flag && !json_path.empty()) {
    std::cout << "\nJSON results written to " << json_path << "\n";
  }
  benchmark::Shutdown();
  return 0;
}

// ---------------------------------------------------------- manual results
//
// For table-style harnesses that measure by hand (no google-benchmark state
// loop) but should still write a machine-readable JSON file. Emits the
// google-benchmark JSON schema (a "benchmarks" array of named entries with
// counters), so downstream tooling parses both identically.

/// One hand-measured result: a name, the measured wall time, and named
/// counters (e.g. per-stage time shares).
struct ManualBenchResult {
  std::string name;
  double real_time_s = 0.0;
  std::vector<std::pair<std::string, double>> counters;
};

/// Writes manual results to `default_json_path` (overridable with the
/// DTMSV_BENCH_JSON environment variable), google-benchmark JSON schema,
/// replacing whatever the file held.
inline void write_manual_benchmarks_json(
    const std::string& default_json_path,
    const std::vector<ManualBenchResult>& results) {
  std::string json_path = default_json_path;
  if (const char* env = std::getenv("DTMSV_BENCH_JSON")) {
    json_path = env;
  }
  if (json_path.empty()) {
    return;
  }
  const auto number = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  std::string document =
      std::string("{\n  \"context\": {\"library_build_type\": \"manual\", ") +
      "\"dtmsv_simd_backend\": \"" + util::simd::active_backend_name() +
      "\", \"dtmsv_native_arch\": \"" +
      (util::simd::native_arch_build() ? "on" : "off") + "\"},\n" +
      "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ManualBenchResult& r = results[i];
    std::string e = "    {\"name\": \"" + r.name +
                    "\", \"run_type\": \"iteration\", \"iterations\": 1, "
                    "\"real_time\": " + number(r.real_time_s * 1e9) +
                    ", \"cpu_time\": " + number(r.real_time_s * 1e9) +
                    ", \"time_unit\": \"ns\"";
    for (const auto& [key, value] : r.counters) {
      e += ", \"" + key + "\": " + number(value);
    }
    e += i + 1 < results.size() ? "},\n" : "}\n";
    document += e;
  }
  document += "  ]\n}\n";

  std::ofstream out(json_path);
  if (!out) {
    std::cerr << "warning: cannot write bench JSON to " << json_path << "\n";
    return;
  }
  out << document;
  std::cout << "\nJSON results written to " << json_path << "\n";
}

}  // namespace dtmsv::bench

#define DTMSV_BENCHMARK_MAIN_JSON(default_json_path)                          \
  int main(int argc, char** argv) {                                           \
    return ::dtmsv::bench::run_benchmarks_with_json(argc, argv,               \
                                                    (default_json_path));     \
  }
