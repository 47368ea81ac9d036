// Pieces shared by the two serving workloads (interactive_score and
// stream_ingest): the seeded synthtel fleet and its trained serving bundle,
// the in-process reference, the client-thread scaffolding, the bitwise
// verdict comparison, and the scoring-stage replay and per-layer metrics of
// traced runs.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "harness.hpp"
#include "nn/matrix.hpp"
#include "serve/model_registry.hpp"
#include "serve/scoring_service.hpp"

namespace perfbench {

/// Bytes of one wire frame header (magic, version, type, payload length).
inline constexpr double kFrameHeaderBytes = 20.0;

/// One entity's held-out telemetry: the traffic the benchmark replays.
struct FleetTrace {
  std::string entity;
  goodones::nn::Matrix ticks;  ///< (steps x channels), raw units
  std::vector<goodones::data::Regime> regimes;
};

/// A trained kNN serving bundle for a 16-entity synthtel fleet generated
/// from the workload seed, after a ModelRegistry save + load round trip
/// under `registry_root`, plus every entity's held-out telemetry.
struct ServingFleet {
  goodones::serve::ServingModel model;
  std::vector<FleetTrace> traces;
};

ServingFleet build_serving_fleet(std::uint64_t seed, const std::filesystem::path& registry_root);

/// The reference every served verdict is compared with: a clone of the
/// fleet's bundle, scored in process on one thread.
std::unique_ptr<goodones::serve::ScoringService> make_reference(const ServingFleet& fleet);

/// The (seq_len x channels) window of `trace` whose last row is `end`,
/// wrapping around the end of the trace (the traffic replays cyclically).
goodones::nn::Matrix cyclic_window(const FleetTrace& trace, std::size_t end,
                                   std::size_t seq_len);

/// Bitwise equality of two windows' verdicts.
bool same_window(const goodones::serve::WindowScore& a, const goodones::serve::WindowScore& b);

/// What a client thread's requests (steps, in stream_ingest) came to.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t errors = 0;      ///< requests that threw: failed or refused
  std::uint64_t mismatches = 0;  ///< replies that differ from the expected ones
  /// Frame bytes both ways per scored window, headers included, of the
  /// largest replayed request.
  double wire_bytes_per_window = 0.0;

  Tally& operator+=(const Tally& other);
};

/// Runs body(c, buffer) for every c below `clients`, one thread each, and
/// joins them all; an exception thrown by a body is rethrown after the join.
/// `buffer` is a fresh tracer buffer per thread when `traced`, else null.
void run_clients(std::size_t clients, bool traced, Tracer& tracer,
                 const std::function<void(std::size_t, Tracer::Buffer*)>& body);

/// Folds the run's tally into the report (failed = errors + mismatches;
/// correct while no reply mismatched) and notes its error_ratio.
void settle(const Tally& total, const std::string& mismatch_what, Report& report);

/// Replays in process, as spans under `id` whose parent is `parent`, the
/// stages ScoringService runs on one entity's windows:
/// Forecaster::predict_batch over pointer spans, core::window_sample per
/// window, and the entity's cluster detector's score_batch.
void replay_scoring_stages(const goodones::serve::ServingModel& model, const std::string& entity,
                           std::span<const goodones::nn::Matrix* const> windows, std::uint64_t id,
                           const char* parent, Tracer::Buffer& buffer);

/// The per-layer metrics both serving workloads derive alike: codecs,
/// transport, counters, and the predict/detect stages of the scoring
/// replay. scoring.self_ns is the median of `score_span` minus those of
/// store.gather (if replayed), predict, transform and the detector.
std::map<std::string, double> serving_layers(const Tracer& tracer, const char* score_span,
                                             const Tally& total, std::uint64_t reconnects);

}  // namespace perfbench
