// Shared bench scaffolding.
//
// Every reproduction bench follows the same contract:
//   1. reproduce its paper table/figure (print an ASCII table, persist the
//      same rows as CSV under the artifacts directory), then
//   2. run google-benchmark timings for the kernels that produced it.
// The kernel, batched-inference and serving benches run only step 2.
// Bench binaries take google-benchmark flags and nothing else;
// GOODONES_FULL=1 switches the experiment scale from the calibrated fast
// preset to the paper's settings. google-benchmark is the only timer here:
// performance claims are made against the repository benchmark
// (BENCHMARK.json, perfbench/), not against these microbenches.
//
// The reproduction benches target the paper's BGMS case study, so they all
// run on the BGMS DomainAdapter; the engine underneath is domain-agnostic.
#pragma once

#include <benchmark/benchmark.h>

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

namespace goodones::bench {

/// Writes a reproduction CSV next to the console output.
inline void save_artifact(const common::CsvTable& table, const std::string& name) {
  const auto path = core::artifacts_dir() / name;
  table.write(path);
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

/// Runs the registered google-benchmark microbenchmarks.
inline int run_microbenchmarks(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace goodones::bench
