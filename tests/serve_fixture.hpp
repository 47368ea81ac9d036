// Shared fixture of the serving suites: the synthtel mini fleet, its cheap
// framework config, scratch paths, per-entity score requests and the bitwise
// ScoreResponse comparison. Every suite picks its own seeds, so each keeps
// the trained bundle (and every value it pins) it had before sharing this.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include <unistd.h>

#include "core/framework.hpp"
#include "data/window.hpp"
#include "domains/synthtel/adapter.hpp"
#include "serve/scoring_service.hpp"
#include "serve/wire.hpp"

namespace goodones::serve::fixture {

/// The two-group synthtel fleet every serving suite trains on: SA_0, SA_1,
/// SB_0, SB_1.
inline std::shared_ptr<const core::DomainAdapter> mini_fleet() {
  static const auto domain = std::make_shared<synthtel::SynthtelDomain>(2);
  return domain;
}

/// The mini pipeline: short series, small forecasters, sparse campaigns.
inline core::FrameworkConfig mini_config(std::uint64_t population_seed, std::uint64_t seed) {
  core::FrameworkConfig config = mini_fleet()->prepare(core::FrameworkConfig::fast());
  config.population.train_steps = 1200;
  config.population.test_steps = 400;
  config.population.seed = population_seed;
  config.registry.forecaster.hidden = 8;
  config.registry.forecaster.head_hidden = 6;
  config.registry.forecaster.epochs = 2;
  config.registry.train_window_step = 8;
  config.registry.aggregate_window_step = 50;
  config.profiling_campaign.window_step = 10;
  config.evaluation_campaign.window_step = 10;
  config.detector_benign_stride = 10;
  config.detectors.knn.max_points_per_class = 400;
  config.random_runs = 1;
  config.random_victims = 2;
  config.seed = seed;
  return config;
}

/// The mini pipeline for one seed pair, trained once per process.
template <std::uint64_t PopulationSeed, std::uint64_t Seed>
core::RiskProfilingFramework& mini_framework() {
  static core::RiskProfilingFramework instance(mini_fleet(),
                                               mini_config(PopulationSeed, Seed));
  return instance;
}

/// A temp-dir path private to this process (sockets, registry roots, CLI
/// output files).
inline std::filesystem::path unique_path(const std::string& stem, const char* suffix) {
  return std::filesystem::temp_directory_path() /
         (stem + "_" + std::to_string(::getpid()) + suffix);
}

/// Up to `max_windows` clean held-out windows of one entity, or the same
/// windows with the reading channel pinned to the attack-box ceiling
/// (sustained evasion pressure).
inline ScoreRequest entity_request(core::RiskProfilingFramework& fw, std::size_t entity,
                                   bool manipulated, std::size_t max_windows) {
  const auto& entities = fw.entities();
  data::WindowConfig window_config = fw.config().window;
  window_config.step = 30;
  ScoreRequest request;
  request.entity = entities[entity].name;
  const auto windows = data::make_windows(entities[entity].test, window_config);
  const core::DomainSpec& spec = fw.domain().spec();
  for (std::size_t i = 0; i < windows.size() && i < max_windows; ++i) {
    TelemetryWindow window{windows[i].features, windows[i].regime};
    if (manipulated) {
      for (std::size_t t = 0; t < window.features.rows(); ++t) {
        window.features(t, spec.target_channel) = spec.attack_box_max;
      }
    }
    request.windows.push_back(std::move(window));
  }
  return request;
}

/// A frame header as wire::send_frame writes it (magic, version, type,
/// payload length; native byte order), every field settable so a test can
/// forge a corrupt or lying header.
inline std::string frame_header(std::uint32_t magic, std::uint32_t version, std::uint32_t type,
                                std::uint64_t length) {
  std::string bytes(20, '\0');
  std::memcpy(bytes.data(), &magic, 4);
  std::memcpy(bytes.data() + 4, &version, 4);
  std::memcpy(bytes.data() + 8, &type, 4);
  std::memcpy(bytes.data() + 12, &length, 8);
  return bytes;
}

/// A whole, well-formed frame: header plus payload.
inline std::string frame_bytes(wire::MessageType type, const std::string& payload) {
  return frame_header(wire::kMagic, wire::kVersion, static_cast<std::uint32_t>(type),
                      payload.size()) +
         payload;
}

/// Bitwise comparison: neither the wire, the store, a reload nor a mesh hop
/// may cost even one ulp. entity_index is only comparable when both sides
/// scored with the SAME bundle membership — a shard slice renumbers its
/// entities, so mesh-vs-full comparisons skip it.
inline void expect_identical_response(const ScoreResponse& a, const ScoreResponse& b,
                                      bool compare_entity_index = true) {
  if (compare_entity_index) {
    EXPECT_EQ(a.entity_index, b.entity_index);
  }
  EXPECT_EQ(a.cluster, b.cluster);
  EXPECT_EQ(a.generation, b.generation);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t w = 0; w < a.windows.size(); ++w) {
    EXPECT_EQ(a.windows[w].forecast, b.windows[w].forecast) << "w=" << w;
    EXPECT_EQ(a.windows[w].residual, b.windows[w].residual) << "w=" << w;
    EXPECT_EQ(a.windows[w].observed_state, b.windows[w].observed_state) << "w=" << w;
    EXPECT_EQ(a.windows[w].predicted_state, b.windows[w].predicted_state) << "w=" << w;
    EXPECT_EQ(a.windows[w].anomaly_score, b.windows[w].anomaly_score) << "w=" << w;
    EXPECT_EQ(a.windows[w].flagged, b.windows[w].flagged) << "w=" << w;
    EXPECT_EQ(a.windows[w].risk, b.windows[w].risk) << "w=" << w;
  }
}

}  // namespace goodones::serve::fixture
