#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "data/timeseries.hpp"
#include "data/window.hpp"
#include "predict/batch_planner.hpp"
#include "predict/bilstm_forecaster.hpp"
#include "predict/registry.hpp"
#include "domains/bgms/cohort.hpp"
#include "domains/bgms/patient.hpp"

namespace goodones::predict {
namespace {

bgms::CohortConfig tiny_cohort_config() {
  bgms::CohortConfig config;
  config.train_steps = 900;
  config.test_steps = 200;
  config.seed = 11;
  return config;
}

ForecasterConfig tiny_forecaster_config() {
  ForecasterConfig config;
  config.hidden = 10;
  config.head_hidden = 8;
  config.epochs = 4;
  config.seed = 21;
  return config;
}

struct Fixture {
  bgms::PatientTrace trace;
  data::TelemetrySeries train_series;
  data::TelemetrySeries test_series;
  std::vector<data::Window> train_windows;
  std::vector<data::Window> test_windows;

  Fixture() {
    trace = bgms::generate_patient({bgms::Subset::kA, 0}, tiny_cohort_config());
    train_series = bgms::to_series(trace.train);
    test_series = bgms::to_series(trace.test);
    data::WindowConfig window;
    window.step = 2;
    train_windows = data::make_windows(train_series, window);
    test_windows = data::make_windows(test_series, window);
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

TEST(ForecasterScaler, PinsTargetRange) {
  const auto scaler = fit_forecaster_scaler(fixture().train_series.values, bgms::kCgm,
                                            bgms::kMinGlucose, bgms::kMaxGlucose);
  // The pinned range's ends map to 0 and 1 and back.
  EXPECT_DOUBLE_EQ(scaler.transform_value(bgms::kMinGlucose, bgms::kCgm), 0.0);
  EXPECT_DOUBLE_EQ(scaler.transform_value(bgms::kMaxGlucose, bgms::kCgm), 1.0);
  EXPECT_DOUBLE_EQ(scaler.inverse_transform_value(0.0, bgms::kCgm), bgms::kMinGlucose);
  EXPECT_DOUBLE_EQ(scaler.inverse_transform_value(1.0, bgms::kCgm), bgms::kMaxGlucose);
}

TEST(Forecaster, PredictsWithinPhysiologicalRange) {
  const auto& f = fixture();
  BiLstmForecaster model(tiny_forecaster_config(),
                         fit_forecaster_scaler(f.train_series.values, bgms::kCgm, bgms::kMinGlucose,
                                           bgms::kMaxGlucose));
  model.train(f.train_windows);
  for (std::size_t i = 0; i < 20; ++i) {
    const double pred = model.predict(f.test_windows[i].features);
    EXPECT_GT(pred, 0.0);
    EXPECT_LT(pred, 600.0);
  }
}

TEST(Forecaster, TrainingBeatsUntrainedModel) {
  const auto& f = fixture();
  const auto scaler = fit_forecaster_scaler(f.train_series.values, bgms::kCgm, bgms::kMinGlucose,
                                           bgms::kMaxGlucose);
  BiLstmForecaster untrained(tiny_forecaster_config(), scaler);
  BiLstmForecaster trained(tiny_forecaster_config(), scaler);
  trained.train(f.train_windows);
  EXPECT_LT(trained.evaluate_rmse(f.test_windows),
            untrained.evaluate_rmse(f.test_windows));
}

TEST(Forecaster, BeatsGlobalMeanBaseline) {
  const auto& f = fixture();
  BiLstmForecaster model(tiny_forecaster_config(),
                         fit_forecaster_scaler(f.train_series.values, bgms::kCgm, bgms::kMinGlucose,
                                           bgms::kMaxGlucose));
  model.train(f.train_windows);

  double mean_target = 0.0;
  for (const auto& w : f.train_windows) mean_target += w.target_value;
  mean_target /= static_cast<double>(f.train_windows.size());
  double baseline_sq = 0.0;
  for (const auto& w : f.test_windows) {
    baseline_sq += (mean_target - w.target_value) * (mean_target - w.target_value);
  }
  const double baseline_rmse =
      std::sqrt(baseline_sq / static_cast<double>(f.test_windows.size()));
  EXPECT_LT(model.evaluate_rmse(f.test_windows), baseline_rmse);
}

TEST(Forecaster, DeterministicAcrossInstances) {
  const auto& f = fixture();
  const auto scaler = fit_forecaster_scaler(f.train_series.values, bgms::kCgm, bgms::kMinGlucose,
                                           bgms::kMaxGlucose);
  BiLstmForecaster a(tiny_forecaster_config(), scaler);
  BiLstmForecaster b(tiny_forecaster_config(), scaler);
  a.train(f.train_windows);
  b.train(f.train_windows);
  for (std::size_t i = 0; i < 10; ++i) {
    ASSERT_DOUBLE_EQ(a.predict(f.test_windows[i].features),
                     b.predict(f.test_windows[i].features));
  }
}

/// FNV-1a over a byte string: a compact fingerprint for bitwise pins.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::string artifact_bytes(const BiLstmForecaster& model) {
  std::ostringstream out;
  model.save_artifact(out);
  return out.str();
}

struct GoldenTraining {
  std::size_t seq_len;
  std::size_t hidden;
  std::uint64_t artifact;    ///< FNV-1a of the save_artifact bytes
  std::uint64_t final_loss;  ///< bits of train()'s return value
  std::uint64_t prediction;  ///< bits of predict() on one held-out window
};

TEST(Forecaster, TrainingIsBitwisePinned) {
  // Every trained weight, the final loss and a prediction, pinned to the
  // bit. Any change to the forward pass, BPTT, gradient accumulation or the
  // optimizer that moves a single bit fails here, under every SIMD lane
  // (their kernels are bitwise-identical). The shapes cover the default window, a one-step window (where the forward
  // and backward cells see the same single row) and an odd length, each
  // with a wide and a tiny hidden layer; a batch of 8 over 45 windows ends
  // every epoch on a partial batch. exp, tanh and sigmoid are the
  // repository's own (nn/kernels/transcendental.hpp), so these values do not
  // depend on the C library; only a change to those functions needs new ones.
  constexpr GoldenTraining kGolden[] = {
      {12, 16, 0xB028B1BC54B552DAULL, 0x3F67DD22C175A7A6ULL, 0x4062DDE16958B653ULL},
      {12, 3, 0xA4BA6D2F9EB75CADULL, 0x3F8C33D0C9F7E6ABULL, 0x406311D086E099DAULL},
      {1, 16, 0xA4181A2E1A8B9D47ULL, 0x3F79F1087E75D83CULL, 0x40651A93485935A1ULL},
      {1, 3, 0xEE7158B8A824394DULL, 0x3F795D8706588A09ULL, 0x406517A89544B4DFULL},
      {5, 16, 0xE387DC95867F846FULL, 0x3F55D06AF4ECFBB3ULL, 0x406284EB79B95A77ULL},
      {5, 3, 0xA9C5CC5F51B4A208ULL, 0x3F84BEF63111D2F1ULL, 0x4063CEA4B3F3268EULL},
  };
  const auto& f = fixture();
  const auto scaler = fit_forecaster_scaler(f.train_series.values, bgms::kCgm,
                                            bgms::kMinGlucose, bgms::kMaxGlucose);
  for (const GoldenTraining& golden : kGolden) {
    SCOPED_TRACE("seq_len=" + std::to_string(golden.seq_len) +
                 " hidden=" + std::to_string(golden.hidden));
    data::WindowConfig window;
    window.seq_len = golden.seq_len;
    window.step = 20;
    const auto train_windows = data::make_windows(f.train_series, window);
    const auto test_windows = data::make_windows(f.test_series, window);
    ASSERT_EQ(train_windows.size(), 45u);
    ASSERT_FALSE(test_windows.empty());

    ForecasterConfig config;
    config.hidden = golden.hidden;
    config.head_hidden = 4;
    config.epochs = 2;
    config.batch_size = 8;
    config.target_channel = bgms::kCgm;
    config.seed = 31;
    BiLstmForecaster model(config, scaler);
    const double loss = model.train(train_windows);
    const nn::Matrix& probe = test_windows.front().features;

    EXPECT_EQ(fnv1a(artifact_bytes(model)), golden.artifact);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loss), golden.final_loss);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(model.predict(probe)), golden.prediction);
  }
}

/// Minimal Forecaster that only implements the scalar interface, so the
/// predict_batch default (loop over predict) is what gets exercised.
class SumModel final : public Forecaster {
 public:
  double predict(const nn::Matrix& x) const override {
    double sum = 0.0;
    for (std::size_t t = 0; t < x.rows(); ++t) {
      for (const double v : x.row(t)) sum += v;
    }
    return sum;
  }
};

nn::Matrix random_window(std::size_t rows, std::size_t cols, common::Rng& rng) {
  nn::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (double& v : m.row(r)) v = rng.uniform(40.0, 400.0);
  }
  return m;
}

TEST(PredictBatch, DefaultImplementationLoopsOverPredict) {
  const SumModel model;
  common::Rng rng(3);
  std::vector<nn::Matrix> windows;
  for (std::size_t i = 0; i < 5; ++i) windows.push_back(random_window(4, 3, rng));
  windows.push_back(nn::Matrix(2, 3, 1.0));  // mixed shapes are fine by default

  const auto batched = model.predict_batch(windows);
  ASSERT_EQ(batched.size(), windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    EXPECT_DOUBLE_EQ(batched[i], model.predict(windows[i]));
  }
}

TEST(PredictBatch, DefaultImplementationHandlesEmptyBatch) {
  const SumModel model;
  // Spelled out: `{}` would be ambiguous between the value-span and the
  // zero-copy pointer-span overloads.
  EXPECT_TRUE(model.predict_batch(std::span<const nn::Matrix>{}).empty());
}

TEST(PredictBatch, BiLstmParityOnRandomWindows) {
  // Unstructured random windows: the planner finds no shared rows, so this
  // exercises the pure packed-batch path against scalar predict().
  const auto& f = fixture();
  BiLstmForecaster model(tiny_forecaster_config(),
                         fit_forecaster_scaler(f.train_series.values, bgms::kCgm,
                                               bgms::kMinGlucose, bgms::kMaxGlucose));
  model.train(f.train_windows);

  common::Rng rng(17);
  std::vector<nn::Matrix> windows;
  for (std::size_t i = 0; i < 16; ++i) {
    windows.push_back(random_window(12, bgms::kNumChannels, rng));
  }
  const auto batched = model.predict_batch(windows);
  ASSERT_EQ(batched.size(), windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    EXPECT_NEAR(batched[i], model.predict(windows[i]), 1e-12) << "window " << i;
  }
}

TEST(PredictBatch, BiLstmParityAcrossMixedShapes) {
  // Heterogeneous batch: two sequence lengths interleaved. group_probes must
  // split them and scatter results back to the original order.
  const auto& f = fixture();
  BiLstmForecaster model(tiny_forecaster_config(),
                         fit_forecaster_scaler(f.train_series.values, bgms::kCgm,
                                               bgms::kMinGlucose, bgms::kMaxGlucose));
  model.train(f.train_windows);

  common::Rng rng(29);
  std::vector<nn::Matrix> windows;
  for (std::size_t i = 0; i < 10; ++i) {
    windows.push_back(random_window(i % 2 == 0 ? 12 : 8, bgms::kNumChannels, rng));
  }
  const auto batched = model.predict_batch(windows);
  ASSERT_EQ(batched.size(), windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    EXPECT_NEAR(batched[i], model.predict(windows[i]), 1e-12) << "window " << i;
  }
}

/// The planner reads windows through pointers into caller-owned storage.
std::vector<const nn::Matrix*> pointers_to(const std::vector<nn::Matrix>& windows) {
  std::vector<const nn::Matrix*> ptrs;
  for (const nn::Matrix& w : windows) ptrs.push_back(&w);
  return ptrs;
}

/// Every position of a batch, the index set cluster_probes plans.
std::vector<std::size_t> all_indices(std::size_t n) {
  std::vector<std::size_t> indices(n);
  for (std::size_t i = 0; i < n; ++i) indices[i] = i;
  return indices;
}

/// The shared-row plan of a same-shape batch that forms one cluster.
BatchPlan single_cluster_plan(const std::vector<nn::Matrix>& windows) {
  const auto clusters =
      cluster_probes(pointers_to(windows), all_indices(windows.size()));
  EXPECT_EQ(clusters.size(), 1u);
  return clusters.front().plan;
}

TEST(PredictBatch, BiLstmRejectsZeroRowWindowLikePredict) {
  // predict() rejects a window without rows; the batched path must refuse
  // it the same way instead of reading row T - 1 of an empty matrix.
  const auto& f = fixture();
  const BiLstmForecaster model(tiny_forecaster_config(),
                               fit_forecaster_scaler(f.train_series.values, bgms::kCgm,
                                                     bgms::kMinGlucose, bgms::kMaxGlucose));
  common::Rng rng(59);
  std::vector<nn::Matrix> windows;
  windows.push_back(random_window(12, bgms::kNumChannels, rng));
  windows.push_back(nn::Matrix(0, bgms::kNumChannels));
  EXPECT_THROW((void)model.predict(windows.back()), common::PreconditionError);
  EXPECT_THROW((void)model.predict_batch(windows), common::PreconditionError);
}

TEST(BatchPlanner, FindsSharedPrefixAndSuffixOfProbeBatch) {
  common::Rng rng(41);
  const nn::Matrix base = random_window(12, 4, rng);
  std::vector<nn::Matrix> probes(5, base);
  for (std::size_t vi = 0; vi < probes.size(); ++vi) {
    probes[vi](7, 0) = 500.0 + static_cast<double>(vi);
  }
  const BatchPlan plan = single_cluster_plan(probes);
  EXPECT_EQ(plan.shared_prefix, 7u);
  EXPECT_EQ(plan.shared_suffix, 4u);
}

TEST(BatchPlanner, IdenticalWindowsAreAllPrefix) {
  common::Rng rng(43);
  const nn::Matrix base = random_window(6, 3, rng);
  const std::vector<nn::Matrix> copies(4, base);
  const BatchPlan plan = single_cluster_plan(copies);
  EXPECT_EQ(plan.shared_prefix, 6u);
  EXPECT_EQ(plan.shared_suffix, 0u);  // prefix already covers every row
}

TEST(BatchPlanner, SingleWindowIsFullyShared) {
  common::Rng rng(47);
  const std::vector<nn::Matrix> one{random_window(5, 2, rng)};
  const BatchPlan plan = single_cluster_plan(one);
  EXPECT_EQ(plan.shared_prefix, 5u);
  EXPECT_EQ(plan.shared_suffix, 0u);
}

TEST(BatchPlanner, ClustersProbeSetsOfSeveralBaseWindows) {
  // A lockstep round merges the probe sets of several base windows: each
  // base's probes form one cluster with that base's exact shared rows, and
  // a window sharing no leading row with any other lands in the residual
  // cluster, which comes last.
  common::Rng rng(61);
  const nn::Matrix base_a = random_window(12, 4, rng);
  const nn::Matrix base_b = random_window(12, 4, rng);
  const auto probe = [](const nn::Matrix& base, std::size_t row, double value) {
    nn::Matrix p = base;
    p(row, 0) = value;
    return p;
  };
  const std::vector<nn::Matrix> windows{
      probe(base_a, 8, 500.0), probe(base_b, 5, 600.0), probe(base_a, 8, 501.0),
      random_window(12, 4, rng), probe(base_b, 5, 601.0), probe(base_a, 8, 502.0),
      probe(base_b, 5, 602.0), probe(base_a, 8, 503.0)};

  const auto clusters = cluster_probes(pointers_to(windows), all_indices(windows.size()));
  ASSERT_EQ(clusters.size(), 3u);
  EXPECT_EQ(clusters[0].indices, (std::vector<std::size_t>{0, 2, 5, 7}));
  EXPECT_EQ(clusters[0].plan.shared_prefix, 8u);
  EXPECT_EQ(clusters[0].plan.shared_suffix, 3u);
  EXPECT_EQ(clusters[1].indices, (std::vector<std::size_t>{1, 4, 6}));
  EXPECT_EQ(clusters[1].plan.shared_prefix, 5u);
  EXPECT_EQ(clusters[1].plan.shared_suffix, 6u);
  EXPECT_EQ(clusters[2].indices, (std::vector<std::size_t>{3}));
  EXPECT_EQ(clusters[2].plan.shared_prefix, 12u);
  EXPECT_EQ(clusters[2].plan.shared_suffix, 0u);
}

TEST(BatchPlanner, GroupsByShapePreservingOrder) {
  common::Rng rng(53);
  std::vector<nn::Matrix> windows;
  windows.push_back(random_window(12, 4, rng));
  windows.push_back(random_window(8, 4, rng));
  windows.push_back(random_window(12, 4, rng));
  windows.push_back(random_window(8, 4, rng));
  const auto groups = group_probes(pointers_to(windows));
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].indices, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(groups[1].indices, (std::vector<std::size_t>{1, 3}));
}

/// The 12-patient tiny cohort's training series plus a cheap registry
/// config, shared by the registry suites.
struct RegistryFixture {
  std::vector<bgms::PatientTrace> cohort;
  std::vector<data::TelemetrySeries> series_storage;
  std::vector<const data::TelemetrySeries*> train_series;
  std::vector<std::string> names;
  RegistryConfig config;

  RegistryFixture() : cohort(bgms::generate_cohort(tiny_cohort_config())) {
    config.forecaster = tiny_forecaster_config();
    config.forecaster.epochs = 2;
    config.train_window_step = 6;
    config.aggregate_window_step = 30;
    config.target_channel = bgms::kCgm;
    config.target_min = bgms::kMinGlucose;
    config.target_max = bgms::kMaxGlucose;

    series_storage.reserve(cohort.size());
    for (const auto& trace : cohort) {
      series_storage.push_back(bgms::to_series(trace.train));
      names.push_back(bgms::to_string(trace.params.id));
    }
    for (const auto& series : series_storage) train_series.push_back(&series);
  }

  ModelRegistry train(std::size_t threads) const {
    common::ThreadPool pool(threads);
    return ModelRegistry::train(train_series, names, data::WindowConfig{}, config, pool);
  }
};

TEST(Registry, TrainsPersonalizedAndAggregate) {
  const RegistryFixture f;
  const ModelRegistry registry = f.train(8);
  EXPECT_EQ(registry.num_personalized(), 12u);
  const BiLstmForecaster aggregate =
      train_aggregate(f.train_series, data::WindowConfig{}, f.config);
  // Both models pinned to the byte: their seeds, windows and scalers.
  EXPECT_EQ(fnv1a(artifact_bytes(registry.personalized(0))), 0x240B396A492B0B88ULL);
  EXPECT_EQ(fnv1a(artifact_bytes(aggregate)), 0x50BC167CB48B801FULL);

  data::WindowConfig window;
  window.step = 40;
  const auto series = bgms::to_series(f.cohort[0].test);
  const auto windows = data::make_windows(series, window);
  ASSERT_FALSE(windows.empty());
  // Both model kinds produce finite, plausible outputs.
  for (const auto& w : windows) {
    EXPECT_TRUE(std::isfinite(registry.personalized(0).predict(w.features)));
    EXPECT_TRUE(std::isfinite(aggregate.predict(w.features)));
  }
}

TEST(Registry, TrainingIsBitwiseIndependentOfPoolSize) {
  // One worker trains every model in entity order. Two and four start them
  // in different orders and train several at once. Per-model seeds and
  // per-model windows must make every schedule produce the same bytes.
  const RegistryFixture f;
  const ModelRegistry serial = f.train(1);
  ASSERT_EQ(serial.num_personalized(), f.cohort.size());
  for (const std::size_t threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const ModelRegistry parallel = f.train(threads);
    ASSERT_EQ(parallel.num_personalized(), f.cohort.size());
    for (std::size_t i = 0; i < f.cohort.size(); ++i) {
      EXPECT_TRUE(artifact_bytes(serial.personalized(i)) ==
                  artifact_bytes(parallel.personalized(i)))
          << "personalized model " << f.names[i];
    }
  }
}

TEST(Registry, OutOfRangeIndexThrows) {
  ModelRegistry registry;
  EXPECT_THROW((void)registry.personalized(0), common::PreconditionError);
}

}  // namespace
}  // namespace goodones::predict
