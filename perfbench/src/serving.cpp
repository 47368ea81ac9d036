#include "serving.hpp"

#include <algorithm>
#include <bit>
#include <exception>
#include <memory>
#include <thread>

#include "core/framework.hpp"
#include "core/sample_features.hpp"
#include "domains/synthtel/adapter.hpp"

namespace perfbench {

namespace gs = goodones::serve;
using goodones::nn::Matrix;

namespace {

/// 8 nodes per subset: the >= 16-entity fleet both serving workloads use.
constexpr std::size_t kNodesPerSubset = 8;

/// Sized so that both kNN classes always fill the fast preset's
/// max_points_per_class (3000): the smallest possible cluster (one node per
/// subset) still yields 2 x 6000 benign samples at stride 1, and a quarter
/// of that as synthetic malicious samples. The detector's reference set,
/// and with it the per-window scoring cost, is the same for every seed.
goodones::core::FrameworkConfig fleet_config(const goodones::core::DomainAdapter& domain,
                                             std::uint64_t seed) {
  goodones::core::FrameworkConfig config =
      domain.prepare(goodones::core::FrameworkConfig::fast());
  config.population.train_steps = 6000;
  config.population.test_steps = 600;
  config.population.seed = mix_seed(seed, 1);
  config.registry.forecaster.hidden = 12;
  config.registry.forecaster.head_hidden = 8;
  config.registry.forecaster.epochs = 2;
  config.registry.train_window_step = 18;
  config.registry.aggregate_window_step = 120;
  config.profiling_campaign.window_step = 48;
  config.evaluation_campaign.window_step = 48;
  config.detector_benign_stride = 1;
  config.random_runs = 1;
  config.seed = 77;
  return config;
}

}  // namespace

ServingFleet build_serving_fleet(std::uint64_t seed, const std::filesystem::path& registry_root) {
  auto domain = std::make_shared<goodones::synthtel::SynthtelDomain>(kNodesPerSubset);
  goodones::core::RiskProfilingFramework framework(domain, fleet_config(*domain, seed));
  const gs::ServingModel built =
      gs::build_serving_model(framework, goodones::detect::DetectorKind::kKnn);

  std::filesystem::remove_all(registry_root);
  const gs::ModelRegistry registry(registry_root);
  registry.save(built);

  ServingFleet fleet;
  fleet.model =
      registry.load(gs::registry_key(framework, goodones::detect::DetectorKind::kKnn));
  for (const auto& entity : framework.entities()) {
    fleet.traces.push_back({entity.name, entity.test.values, entity.test.regimes});
  }
  return fleet;
}

std::unique_ptr<gs::ScoringService> make_reference(const ServingFleet& fleet) {
  gs::ScoringServiceConfig config;
  config.threads = 1;
  return std::make_unique<gs::ScoringService>(gs::clone_serving_model(fleet.model), config);
}

goodones::nn::Matrix cyclic_window(const FleetTrace& trace, std::size_t end,
                                   std::size_t seq_len) {
  const std::size_t length = trace.ticks.rows();
  goodones::nn::Matrix window(seq_len, trace.ticks.cols());
  for (std::size_t t = 0; t < seq_len; ++t) {
    const std::size_t row = (end + length * seq_len - (seq_len - 1) + t) % length;
    for (std::size_t c = 0; c < trace.ticks.cols(); ++c) window(t, c) = trace.ticks(row, c);
  }
  return window;
}

bool same_window(const gs::WindowScore& a, const gs::WindowScore& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return bits(a.forecast) == bits(b.forecast) && bits(a.residual) == bits(b.residual) &&
         a.observed_state == b.observed_state && a.predicted_state == b.predicted_state &&
         bits(a.anomaly_score) == bits(b.anomaly_score) && a.flagged == b.flagged &&
         bits(a.risk) == bits(b.risk);
}

Tally& Tally::operator+=(const Tally& other) {
  attempted += other.attempted;
  errors += other.errors;
  mismatches += other.mismatches;
  wire_bytes_per_window = std::max(wire_bytes_per_window, other.wire_bytes_per_window);
  return *this;
}

void run_clients(std::size_t clients, bool traced, Tracer& tracer,
                 const std::function<void(std::size_t, Tracer::Buffer*)>& body) {
  std::vector<Tracer::Buffer*> buffers(clients, nullptr);
  if (traced) {
    for (auto& buffer : buffers) buffer = &tracer.buffer();
  }
  std::vector<std::exception_ptr> failures(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        body(c, buffers[c]);
      } catch (...) {
        failures[c] = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& failure : failures) {
    if (failure) std::rethrow_exception(failure);
  }
}

void settle(const Tally& total, const std::string& mismatch_what, Report& report) {
  report.attempted = total.attempted;
  report.failed = total.errors + total.mismatches;
  report.correct = total.mismatches == 0 && total.attempted > 0;
  const double ratio = total.attempted ? static_cast<double>(report.failed) /
                                             static_cast<double>(total.attempted)
                                       : 1.0;
  report.note("error_ratio = " + std::to_string(ratio) + " (" + std::to_string(total.errors) +
              " errors, " + std::to_string(total.mismatches) + " " + mismatch_what + ")");
}

void replay_scoring_stages(const gs::ServingModel& model, const std::string& entity,
                           std::span<const Matrix* const> windows, std::uint64_t id,
                           const char* parent, Tracer::Buffer& buffer) {
  const double count = static_cast<double>(windows.size());
  const std::size_t index = model.entity_index(entity);
  buffer.record(id, "predict.predict_batch", parent, count, [&] {
    return model.forecasters[index].predict_batch(windows, goodones::nn::Precision::kDouble);
  });
  const std::vector<Matrix> samples = buffer.record(id, "detect.transform", parent, count, [&] {
    std::vector<Matrix> out;
    for (const Matrix* window : windows) {
      out.push_back(goodones::core::window_sample(model.spec, model.detector_scaler, *window));
    }
    return out;
  });
  buffer.record(id, "detect.score_batch", parent, count, [&] {
    return model.detector_for(index).score_batch(std::span<const Matrix>(samples));
  });
}

std::map<std::string, double> serving_layers(const Tracer& tracer, const char* score_span,
                                             const Tally& total, std::uint64_t reconnects) {
  std::map<std::string, double> layers;
  layers["wire.encode_ns"] = tracer.median_request_sum_ns("wire.encode");
  layers["wire.decode_ns"] = tracer.median_request_sum_ns("wire.decode");
  layers["wire.bytes_per_window"] = total.wire_bytes_per_window;
  layers["transport.health_rtt_ns"] = tracer.median_ns("transport.health");
  layers["transport.reconnects"] = static_cast<double>(reconnects);
  layers["counters.add_ns"] = tracer.median_ns("counters.add");
  layers["scoring.self_ns"] =
      tracer.median_ns(score_span) - tracer.median_ns("store.gather") -
      tracer.median_ns("predict.predict_batch") - tracer.median_ns("detect.transform") -
      tracer.median_ns("detect.score_batch");
  layers["predict.predict_batch_ns_per_window"] =
      tracer.median_ns_per_item("predict.predict_batch");
  layers["predict.windows_per_call"] = tracer.median_items("predict.predict_batch");
  layers["detect.transform_ns_per_window"] = tracer.median_ns_per_item("detect.transform");
  layers["detect.score_batch_ns_per_window"] = tracer.median_ns_per_item("detect.score_batch");
  return layers;
}

}  // namespace perfbench
