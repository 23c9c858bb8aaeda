// Shared machine-readable emitter for the google-benchmark micros.
//
// Wraps the console reporter and collects every finished run into a flat
// JSON array (BENCH_*.json) that the perf-trajectory tooling diffs across
// PRs: one record per benchmark with op, shape, ns/op, plus every custom
// counter the benchmark attached (events_per_s, rate-solve visit counts,
// …). Tensor benches keep their historical "gflops" field derived from the
// "flops" rate counter.
//
// Artifact policy: emitters default to bench_out/ (ignored scratch, like
// the figure CSVs); the curated top-level BENCH_*.json trajectory files
// are updated deliberately by copying a blessed run's output. Override the
// destination with OSP_BENCH_JSON.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace osp::bench {

class JsonBenchReporter : public benchmark::ConsoleReporter {
 public:
  /// Run-wide context fields (name, value) copied into every record.
  using Fields = std::vector<std::pair<std::string, double>>;

  /// `default_path` is used when OSP_BENCH_JSON is unset. When
  /// `always_emit_gflops` is set every record carries a gflops field
  /// (0.0 without a "flops" counter) — the tensor trajectory's shape.
  explicit JsonBenchReporter(std::string default_path,
                             bool always_emit_gflops = false,
                             Fields common = {})
      : default_path_(std::move(default_path)),
        always_emit_gflops_(always_emit_gflops),
        common_(std::move(common)) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      util::JsonObject rec;
      // "BM_Matmul/256" -> op "Matmul", shape "256".
      std::string op = run.benchmark_name();
      std::string shape;
      if (op.rfind("BM_", 0) == 0) op = op.substr(3);
      if (const auto slash = op.find('/'); slash != std::string::npos) {
        shape = op.substr(slash + 1);
        op = op.substr(0, slash);
      }
      rec.set("op", op).set("shape", shape).set("ns_op",
                                                run.GetAdjustedRealTime());
      // "flops" is a rate counter: already flops/second after adjustment.
      const auto flops = run.counters.find("flops");
      if (flops != run.counters.end() || always_emit_gflops_) {
        rec.set("gflops",
                flops != run.counters.end() ? flops->second.value / 1e9 : 0.0);
      }
      for (const auto& [name, counter] : run.counters) {
        if (name == "flops") continue;
        rec.set(name, counter.value);
      }
      for (const auto& [name, value] : common_) rec.set(name, value);
      records_.push_back(std::move(rec));
    }
  }

  /// Write the collected records; returns false on I/O failure (after
  /// printing a diagnostic).
  bool WriteJson() {
    const char* env = std::getenv("OSP_BENCH_JSON");
    const std::string path = env != nullptr ? env : default_path_;
    std::error_code ec;
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent, ec);
    if (!util::write_json_array(path, records_)) {
      std::cerr << "bench: failed to write " << path << "\n";
      return false;
    }
    std::cout << "(json: " << path << ")\n";
    return true;
  }

 private:
  std::string default_path_;
  bool always_emit_gflops_;
  Fields common_;
  std::vector<util::JsonObject> records_;
};

/// Shared main body for the JSON-emitting micro benches.
inline int run_benchmarks_with_json(int argc, char** argv,
                                    const std::string& default_path,
                                    bool always_emit_gflops = false,
                                    JsonBenchReporter::Fields common = {}) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonBenchReporter reporter(default_path, always_emit_gflops,
                             std::move(common));
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const bool ok = reporter.WriteJson();
  benchmark::Shutdown();
  return ok ? 0 : 1;
}

}  // namespace osp::bench
