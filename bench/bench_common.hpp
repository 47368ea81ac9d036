// Shared bench scaffolding.
//
// Every bench binary follows the same contract:
//   1. reproduce its paper table/figure (print an ASCII table, persist the
//      same rows as CSV under the artifacts directory), then
//   2. run google-benchmark timings for the kernels that produced it.
// Bench binaries run with no arguments; GOODONES_FULL=1 switches the
// experiment scale from the calibrated fast preset to the paper's settings.
//
// The reproduction benches target the paper's BGMS case study, so they all
// run on the BGMS DomainAdapter; the engine underneath is domain-agnostic.
#pragma once

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/table.hpp"
#include "core/cache.hpp"
#include "core/config.hpp"
#include "core/framework.hpp"
#include "domains/bgms/adapter.hpp"
#include "nn/simd.hpp"

// Baked in by CMake for bench targets: the repo root (BENCH_*.json is a
// committed perf trail, so it lands next to the sources, not in the
// artifacts dir) and the configure-time commit sha.
#ifndef GOODONES_BENCH_OUTPUT_DIR
#define GOODONES_BENCH_OUTPUT_DIR ""
#endif
#ifndef GOODONES_GIT_SHA
#define GOODONES_GIT_SHA "unknown"
#endif

namespace goodones::bench {

/// True when GOODONES_BENCH_SMOKE is set: hand-timed records shrink to one
/// rep and the google-benchmark sweep is skipped. CI uses this to check the
/// bench binaries run end to end and write their JSON without paying for
/// real timings.
inline bool smoke_run() { return std::getenv("GOODONES_BENCH_SMOKE") != nullptr; }

/// Rep count for hand-timed records, honoring smoke mode.
inline std::size_t bench_reps(std::size_t full) { return smoke_run() ? 1 : full; }

/// Writes a reproduction CSV next to the console output.
inline void save_artifact(const common::CsvTable& table, const std::string& name) {
  const auto path = core::artifacts_dir() / name;
  table.write(path);
  std::cout << "[artifact] " << path.string() << "\n";
}

/// One timing result destined for the machine-readable perf trail.
struct BenchRecord {
  std::string name;
  std::size_t iters = 0;
  double ns_per_op = 0.0;
  double probes_per_sec = 0.0;  ///< 0 when the bench has no probe notion
};

/// Human-readable name of a scoring precision for the bench JSON header.
inline const char* precision_name(nn::Precision precision) {
  switch (precision) {
    case nn::Precision::kDouble: return "double";
    case nn::Precision::kFast: return "fast";
  }
  return "unknown";
}

/// Persists timing records as BENCH_<name>.json at the repo root (falling
/// back to the artifacts dir when built without the output-dir definition)
/// so the perf trajectory stays machine-readable across PRs:
///   {"git_sha", "isa", "precision", "benchmarks": [{"name", "iters",
///    "ns_per_op", "probes_per_sec"}, ...]}
/// git_sha is the configure-time commit; isa is the SIMD lane the numbers
/// were measured under (scalar / avx2 / neon, after the GOODONES_SIMD env
/// override); precision is the DEFAULT scoring lane of the run ("double"
/// unless the bench says otherwise — individual records may still cover
/// other lanes, e.g. the *_fast campaign mode, which their names make
/// explicit). Two runs are only comparable when all header fields
/// match.
inline void save_bench_json(const std::vector<BenchRecord>& records, const std::string& name,
                            nn::Precision precision = nn::Precision::kDouble) {
  const std::string output_dir = GOODONES_BENCH_OUTPUT_DIR;
  const auto path = (output_dir.empty() ? core::artifacts_dir()
                                        : std::filesystem::path(output_dir)) /
                    ("BENCH_" + name + ".json");
  std::ofstream out(path);
  // Full double precision (cross-PR comparisons are the point of the file);
  // JSON has no NaN/inf, so non-finite values are written as 0.
  out.precision(17);
  const auto finite = [](double v) { return std::isfinite(v) ? v : 0.0; };
  out << "{\n  \"git_sha\": \"" << GOODONES_GIT_SHA << "\",\n  \"isa\": \""
      << nn::simd::isa_name(nn::simd::active_isa()) << "\",\n  \"precision\": \""
      << precision_name(precision) << "\",\n  \"benchmarks\": [";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    out << (i == 0 ? "" : ",") << "\n    {\"name\": \"" << r.name
        << "\", \"iters\": " << r.iters << ", \"ns_per_op\": " << finite(r.ns_per_op)
        << ", \"probes_per_sec\": " << finite(r.probes_per_sec) << "}";
  }
  out << "\n  ]\n}\n";
  std::cout << "[artifact] " << path.string() << "\n";
}

/// The shared BGMS adapter all reproduction benches run on.
inline std::shared_ptr<const core::DomainAdapter> bgms_domain() {
  static const auto domain = std::make_shared<bgms::BgmsDomain>();
  return domain;
}

/// Announces which preset the run uses; returns the BGMS-prepared config.
inline core::FrameworkConfig announce_config() {
  core::FrameworkConfig config = bgms_domain()->prepare(core::FrameworkConfig::from_env());
  const bool full =
      config.population.train_steps == core::FrameworkConfig::full().population.train_steps;
  std::cout << "goodones reproduction bench — preset: " << (full ? "FULL (paper scale)" : "fast")
            << " (set GOODONES_FULL=1 for paper-scale settings)\n";
  return config;
}

/// Runs the registered google-benchmark microbenchmarks (skipped in smoke
/// mode — the hand-timed records already exercised the measured paths).
inline int run_microbenchmarks(int argc, char** argv) {
  if (smoke_run()) {
    std::cout << "[smoke] skipping google-benchmark sweep\n";
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace goodones::bench
