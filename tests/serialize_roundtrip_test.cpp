// Round-trip guarantees for every persisted artifact: stream primitives,
// each nn layer's parameters, both scalers, the forecaster artifact and all
// three detector kinds. The bar is bitwise equality — a reloaded model must
// score a fixed probe set exactly as the saved one did, because the serving
// path promises verdict parity with in-memory scoring.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "data/scaler.hpp"
#include "detect/knn.hpp"
#include "detect/madgan.hpp"
#include "detect/ocsvm.hpp"
#include "nn/dense.hpp"
#include "nn/lstm.hpp"
#include "nn/serialize.hpp"
#include "predict/bilstm_forecaster.hpp"
#include "risk/schedule.hpp"

namespace goodones {
namespace {

using common::SerializationError;

nn::Matrix random_matrix(std::size_t rows, std::size_t cols, common::Rng& rng) {
  nn::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (double& v : m.row(r)) v = rng.uniform(-2.0, 2.0);
  }
  return m;
}

void expect_bitwise_equal(const nn::Matrix& a, const nn::Matrix& b) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "element " << i;
  }
}

// --- stream primitives ------------------------------------------------------

TEST(StreamPrimitives, RoundTripAllScalarKinds) {
  std::stringstream stream;
  nn::write_u32(stream, 0xDEADBEEF);
  nn::write_u64(stream, 0x123456789ABCDEF0ULL);
  nn::write_f64(stream, -3.14159e200);
  nn::write_string(stream, "synthtel-6");
  nn::write_f64_vector(stream, {1.0, -2.5, 1e-300});
  nn::write_u8_vector(stream, {0, 1, 1, 0});

  EXPECT_EQ(nn::read_u32(stream), 0xDEADBEEFu);
  EXPECT_EQ(nn::read_u64(stream), 0x123456789ABCDEF0ULL);
  EXPECT_EQ(nn::read_f64(stream), -3.14159e200);
  EXPECT_EQ(nn::read_string(stream), "synthtel-6");
  EXPECT_EQ(nn::read_f64_vector(stream), (std::vector<double>{1.0, -2.5, 1e-300}));
  EXPECT_EQ(nn::read_u8_vector(stream), (std::vector<std::uint8_t>{0, 1, 1, 0}));
}

TEST(StreamPrimitives, TruncationThrowsTypedError) {
  std::stringstream stream;
  nn::write_u32(stream, 7);
  (void)nn::read_u32(stream);
  EXPECT_THROW((void)nn::read_u32(stream), SerializationError);
  EXPECT_THROW((void)nn::read_f64(stream), SerializationError);
  EXPECT_THROW((void)nn::read_string(stream), SerializationError);
}

TEST(StreamPrimitives, ImplausibleLengthPrefixThrowsInsteadOfAllocating) {
  std::stringstream stream;
  nn::write_u64(stream, std::uint64_t{1} << 40);  // claims ~10^12 doubles
  EXPECT_THROW((void)nn::read_f64_vector(stream), SerializationError);
}

TEST(StreamPrimitives, ExpectU32NamesTheMismatchedField) {
  std::stringstream stream;
  nn::write_u32(stream, 1);
  try {
    nn::expect_u32(stream, 2, "bundle version");
    FAIL() << "expected SerializationError";
  } catch (const SerializationError& e) {
    EXPECT_NE(std::string(e.what()).find("bundle version"), std::string::npos);
  }
}

// --- nn layers --------------------------------------------------------------

TEST(ParamRoundTrip, DenseLayerBitwise) {
  common::Rng rng(11);
  nn::Dense saved(5, 3, nn::Activation::kTanh, rng);
  nn::Dense loaded(5, 3, nn::Activation::kTanh, rng);  // different init stream

  std::stringstream stream;
  nn::write_parameters(stream, saved.parameters());
  nn::read_parameters(stream, loaded.parameters());

  const nn::Matrix probe = random_matrix(4, 5, rng);
  expect_bitwise_equal(saved.forward(probe), loaded.forward(probe));
}

TEST(ParamRoundTrip, LstmBitwise) {
  common::Rng rng(12);
  nn::Lstm saved(3, 6, rng);
  nn::Lstm loaded(3, 6, rng);

  std::stringstream stream;
  nn::write_parameters(stream, saved.parameters());
  nn::read_parameters(stream, loaded.parameters());

  const nn::Matrix probe = random_matrix(9, 3, rng);
  expect_bitwise_equal(saved.forward(probe), loaded.forward(probe));
}

TEST(ParamRoundTrip, ShapeMismatchThrowsTypedErrorAndLeavesTargetUntouched) {
  common::Rng rng(14);
  nn::Dense saved(4, 2, nn::Activation::kLinear, rng);
  nn::Dense target(2, 4, nn::Activation::kLinear, rng);
  const nn::Matrix probe = random_matrix(1, 2, rng);
  const nn::Matrix before = target.forward(probe);

  std::stringstream stream;
  nn::write_parameters(stream, saved.parameters());
  EXPECT_THROW(nn::read_parameters(stream, target.parameters()), SerializationError);

  // All-or-nothing: the failed load must not have modified any buffer.
  expect_bitwise_equal(target.forward(probe), before);
}

TEST(ParamRoundTrip, CountMismatchThrowsTypedErrorAndLeavesTargetUntouched) {
  common::Rng rng(16);
  nn::Dense saved(3, 2, nn::Activation::kLinear, rng);
  nn::Lstm target(3, 2, rng);  // three parameter buffers against two
  const nn::Matrix probe = random_matrix(4, 3, rng);
  const nn::Matrix before = target.forward(probe);

  std::stringstream stream;
  nn::write_parameters(stream, saved.parameters());
  EXPECT_THROW(nn::read_parameters(stream, target.parameters()), SerializationError);

  expect_bitwise_equal(target.forward(probe), before);
}

// --- scalers ----------------------------------------------------------------

TEST(ScalerRoundTrip, MinMaxBitwise) {
  common::Rng rng(15);
  data::MinMaxScaler saved;
  saved.fit(random_matrix(30, 4, rng));
  saved.set_column_range(1, -10.0, 42.5);

  std::stringstream stream;
  saved.save(stream);
  data::MinMaxScaler loaded;
  loaded.load(stream);

  ASSERT_EQ(loaded.num_features(), saved.num_features());
  const nn::Matrix probe = random_matrix(6, 4, rng);
  expect_bitwise_equal(saved.transform(probe), loaded.transform(probe));
  for (std::size_t r = 0; r < probe.rows(); ++r) {
    for (std::size_t c = 0; c < probe.cols(); ++c) {
      ASSERT_EQ(saved.inverse_transform_value(probe(r, c), c),
                loaded.inverse_transform_value(probe(r, c), c))
          << "row " << r << ", column " << c;
    }
  }
}

TEST(ScalerRoundTrip, StandardBitwise) {
  common::Rng rng(16);
  data::StandardScaler saved;
  saved.fit(random_matrix(25, 3, rng));

  std::stringstream stream;
  saved.save(stream);
  data::StandardScaler loaded;
  loaded.load(stream);

  const nn::Matrix probe = random_matrix(5, 3, rng);
  expect_bitwise_equal(saved.transform(probe), loaded.transform(probe));
}

TEST(ScalerRoundTrip, WrongTagThrowsTypedError) {
  common::Rng rng(17);
  data::MinMaxScaler minmax;
  minmax.fit(random_matrix(4, 2, rng));
  std::stringstream stream;
  minmax.save(stream);

  data::StandardScaler standard;
  EXPECT_THROW(standard.load(stream), SerializationError);
}

// --- severity schedule ------------------------------------------------------

TEST(ScheduleRoundTrip, NameAndTableBitwise) {
  const risk::SeveritySchedule saved = risk::SeveritySchedule::exponential(3.0);
  std::stringstream stream;
  saved.save(stream);
  risk::SeveritySchedule loaded;
  loaded.load(stream);

  EXPECT_EQ(loaded.name(), saved.name());
  for (const auto benign : {data::StateLabel::kLow, data::StateLabel::kNormal,
                            data::StateLabel::kHigh}) {
    for (const auto adv : {data::StateLabel::kLow, data::StateLabel::kNormal,
                           data::StateLabel::kHigh}) {
      EXPECT_EQ(loaded.coefficient(benign, adv), saved.coefficient(benign, adv));
    }
  }
}

// --- forecaster artifact ----------------------------------------------------

predict::BiLstmForecaster tiny_forecaster(std::uint64_t seed) {
  common::Rng rng(seed);
  predict::ForecasterConfig config;
  config.hidden = 6;
  config.head_hidden = 4;
  config.target_channel = 0;
  config.seed = seed;
  data::MinMaxScaler scaler;
  scaler.fit(random_matrix(40, 3, rng));
  scaler.set_column_range(0, -4.0, 4.0);
  return predict::BiLstmForecaster(config, std::move(scaler));
}

TEST(ForecasterArtifact, RoundTripBitwisePredictions) {
  common::Rng rng(21);
  const predict::BiLstmForecaster saved = tiny_forecaster(100);

  std::stringstream stream;
  saved.save_artifact(stream);
  const predict::BiLstmForecaster loaded = predict::BiLstmForecaster::load_artifact(stream);

  EXPECT_EQ(loaded.num_channels(), saved.num_channels());
  EXPECT_EQ(loaded.config().hidden, saved.config().hidden);
  for (int i = 0; i < 5; ++i) {
    const nn::Matrix probe = random_matrix(12, 3, rng);
    EXPECT_EQ(loaded.predict(probe), saved.predict(probe)) << "probe " << i;
  }
  // Batched path parity survives the round trip too.
  std::vector<nn::Matrix> batch;
  for (int i = 0; i < 4; ++i) batch.push_back(random_matrix(12, 3, rng));
  const auto saved_batch = saved.predict_batch(batch);
  const auto loaded_batch = loaded.predict_batch(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(loaded_batch[i], saved_batch[i]);
  }
}

TEST(ForecasterArtifact, TruncatedStreamThrowsTypedError) {
  const predict::BiLstmForecaster saved = tiny_forecaster(101);
  std::stringstream stream;
  saved.save_artifact(stream);
  const std::string full = stream.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW((void)predict::BiLstmForecaster::load_artifact(truncated),
               SerializationError);
}

TEST(ForecasterArtifact, WrongTagThrowsTypedError) {
  std::stringstream stream;
  nn::write_u32(stream, 0x12345678);
  EXPECT_THROW((void)predict::BiLstmForecaster::load_artifact(stream), SerializationError);
}

// --- detectors --------------------------------------------------------------

/// Fixed probe set at sample granularity (1 x dim rows).
std::vector<nn::Matrix> sample_probes(std::size_t dim, std::size_t count,
                                      std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<nn::Matrix> probes;
  probes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) probes.push_back(random_matrix(1, dim, rng));
  return probes;
}

void expect_identical_scores(const detect::AnomalyDetector& saved,
                             const detect::AnomalyDetector& loaded,
                             const std::vector<nn::Matrix>& probes) {
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(loaded.anomaly_score(probes[i]), saved.anomaly_score(probes[i]))
        << "probe " << i;
    EXPECT_EQ(loaded.flags(probes[i]), saved.flags(probes[i])) << "probe " << i;
  }
}

TEST(DetectorRoundTrip, KnnBitwise) {
  detect::KnnConfig config;
  config.k = 5;  // non-default: config must round-trip too
  detect::KnnDetector saved(config);
  saved.fit(sample_probes(4, 40, 31), sample_probes(4, 25, 32));

  std::stringstream stream;
  saved.save(stream);
  detect::KnnDetector loaded;  // default config, overwritten by load
  loaded.load(stream);

  EXPECT_EQ(loaded.train_size(), saved.train_size());
  expect_identical_scores(saved, loaded, sample_probes(4, 20, 33));
}

TEST(DetectorRoundTrip, OcsvmBitwise) {
  detect::OcsvmConfig config;
  config.kernel = detect::Kernel::kRbf;  // non-default kernel
  config.nu = 0.3;
  detect::OneClassSvm saved(config);
  saved.fit(sample_probes(5, 60, 41), {});

  std::stringstream stream;
  saved.save(stream);
  detect::OneClassSvm loaded;  // default (sigmoid) config, overwritten
  loaded.load(stream);

  EXPECT_EQ(loaded.rho(), saved.rho());
  EXPECT_EQ(loaded.num_support_vectors(), saved.num_support_vectors());
  expect_identical_scores(saved, loaded, sample_probes(5, 20, 42));
}

detect::MadGanConfig tiny_madgan_config() {
  detect::MadGanConfig config;
  config.epochs = 1;
  config.num_signals = 2;
  config.seq_len = 4;
  config.latent_dim = 2;
  config.hidden = 5;
  config.batch_size = 8;
  config.inversion_steps = 3;
  config.max_train_windows = 16;
  config.calibration_windows = 8;
  config.seed = 77;
  return config;
}

std::vector<nn::Matrix> window_probes(std::size_t seq_len, std::size_t signals,
                                      std::size_t count, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<nn::Matrix> probes;
  probes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    nn::Matrix w(seq_len, signals);
    for (std::size_t t = 0; t < seq_len; ++t) {
      for (double& v : w.row(t)) v = rng.uniform(0.0, 1.0);
    }
    probes.push_back(std::move(w));
  }
  return probes;
}

TEST(DetectorRoundTrip, MadGanBitwise) {
  const detect::MadGanConfig config = tiny_madgan_config();
  detect::MadGan saved(config);
  saved.fit(window_probes(config.seq_len, config.num_signals, 20, 51), {});

  std::stringstream stream;
  saved.save(stream);
  detect::MadGan loaded;  // default (12 x 4) shapes, rebuilt by load
  loaded.load(stream);

  EXPECT_EQ(loaded.threshold(), saved.threshold());
  const auto probes = window_probes(config.seq_len, config.num_signals, 6, 52);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(loaded.discrimination_score(probes[i]), saved.discrimination_score(probes[i]));
    EXPECT_EQ(loaded.reconstruction_error(probes[i]), saved.reconstruction_error(probes[i]));
  }
  expect_identical_scores(saved, loaded, probes);
}

TEST(DetectorRoundTrip, FlagsFromScoreAgreesWithFlags) {
  // The serving hot path computes anomaly_score once and derives the
  // verdict via flags_from_score; the two must never disagree.
  detect::KnnDetector knn;
  knn.fit(sample_probes(4, 30, 71), sample_probes(4, 30, 72));
  detect::OneClassSvm ocsvm;
  ocsvm.fit(sample_probes(4, 50, 73), {});
  const detect::MadGanConfig config = tiny_madgan_config();
  detect::MadGan madgan(config);
  madgan.fit(window_probes(config.seq_len, config.num_signals, 20, 74), {});

  for (const auto& probe : sample_probes(4, 25, 75)) {
    EXPECT_EQ(knn.flags_from_score(probe, knn.anomaly_score(probe)), knn.flags(probe));
    EXPECT_EQ(ocsvm.flags_from_score(probe, ocsvm.anomaly_score(probe)),
              ocsvm.flags(probe));
  }
  for (const auto& probe : window_probes(config.seq_len, config.num_signals, 6, 76)) {
    EXPECT_EQ(madgan.flags_from_score(probe, madgan.anomaly_score(probe)),
              madgan.flags(probe));
  }
}

/// A fitted RBF OneClassSVM and its artifact. The artifact opens with the
/// tag, the kernel word (u32 at 4), the gamma-mode word (u32 at 8), coef0
/// (f64 at 12), the degree word (u32 at 20), nu (f64 at 24) and the gamma
/// value (f64 at 32). It ends with the coefficient vector, rho and the u64
/// iteration count.
struct OcsvmArtifact {
  detect::OneClassSvm detector{[] {
    detect::OcsvmConfig config;
    config.kernel = detect::Kernel::kRbf;
    return config;
  }()};
  std::string bytes;

  OcsvmArtifact() {
    detector.fit(sample_probes(4, 40, 91), {});
    std::stringstream out;
    detector.save(out);
    bytes = out.str();
  }

  std::size_t rho_at() const { return bytes.size() - 16; }
  std::size_t last_coefficient_at() const { return rho_at() - 8; }
  /// The last support-vector entry precedes the coefficients' length prefix.
  std::size_t last_support_vector_entry_at() const {
    return rho_at() - 8 * detector.num_support_vectors() - 16;
  }

  /// The artifact with the word at `offset` replaced by `value`.
  template <typename T>
  std::string with(std::size_t offset, T value) const {
    std::string tampered = bytes;
    std::memcpy(tampered.data() + offset, &value, sizeof(value));
    return tampered;
  }

  /// Loads `tampered` into a fitted detector, expects a typed error, and
  /// checks that the rejection left that detector's scores untouched.
  void expect_rejected(const std::string& tampered, const char* what) const {
    detect::OneClassSvm target;
    target.fit(sample_probes(4, 30, 92), {});
    const auto probes = sample_probes(4, 6, 93);
    std::vector<double> before;
    for (const auto& probe : probes) before.push_back(target.anomaly_score(probe));
    std::stringstream in(tampered);
    EXPECT_THROW(target.load(in), SerializationError) << what;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      EXPECT_EQ(target.anomaly_score(probes[i]), before[i]) << what << ", probe " << i;
    }
  }
};

TEST(DetectorRoundTrip, InvalidOcsvmKernelInArtifactThrowsTypedError) {
  // An out-of-range kernel enum would make kernel_value() silently return
  // 0 for every pair; load must reject it instead. Words 2 and 3 named the
  // retired linear and polynomial kernels. The retired gamma-mode and
  // degree words keep one legal value each, 0 and 3.
  const OcsvmArtifact artifact;
  for (const std::uint32_t kernel : {9u, 2u, 3u}) {
    artifact.expect_rejected(artifact.with(4, kernel), "kernel word");
  }
  artifact.expect_rejected(artifact.with(8, std::uint32_t{1}), "gamma mode 1");
  artifact.expect_rejected(artifact.with(20, std::uint32_t{2}), "degree 2");
  std::stringstream good(artifact.bytes);
  detect::OneClassSvm loaded;
  EXPECT_NO_THROW(loaded.load(good));
}

TEST(DetectorRoundTrip, NonFiniteOcsvmScoringValueInArtifactThrowsTypedError) {
  // fit() never saves a non-finite value; one in the decision function can
  // make every score NaN, and flags_from_score(NaN) silently never flags.
  const OcsvmArtifact artifact;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  artifact.expect_rejected(artifact.with(32, nan), "NaN gamma value");
  artifact.expect_rejected(artifact.with(artifact.rho_at(), nan), "NaN rho");
  artifact.expect_rejected(artifact.with(12, inf), "infinite coef0");
  artifact.expect_rejected(artifact.with(artifact.last_coefficient_at(), nan),
                           "NaN coefficient");
  artifact.expect_rejected(artifact.with(artifact.last_support_vector_entry_at(), -inf),
                           "infinite support-vector entry");
  // nu must meet the constructor's precondition, 0 < nu <= 1.
  for (const double nu : {0.0, 1.5, nan}) {
    artifact.expect_rejected(artifact.with(24, nu), "nu outside (0, 1]");
  }
}

TEST(DetectorRoundTrip, InvalidKnnConfigInArtifactThrowsTypedError) {
  detect::KnnDetector saved;
  saved.fit(sample_probes(3, 10, 81), sample_probes(3, 10, 82));
  std::stringstream stream;
  saved.save(stream);
  // Rewrite the stream with k = 0 (which would vote 0/0 = NaN).
  std::string bytes = stream.str();
  std::stringstream tampered;
  nn::write_u32(tampered, 0x4B4E4E44);  // "KNND" tag
  nn::write_u64(tampered, 0);           // k = 0
  tampered << bytes.substr(4 + 8);      // rest of the original payload
  detect::KnnDetector target;
  EXPECT_THROW(target.load(tampered), SerializationError);
  // Any Minkowski p word other than 2 names a metric the detector does not
  // measure.
  for (const double p : {1.5, 1.0, 0.0, std::numeric_limits<double>::quiet_NaN()}) {
    std::stringstream other_metric;
    nn::write_u32(other_metric, 0x4B4E4E44);  // "KNND" tag
    nn::write_u64(other_metric, 7);           // k
    nn::write_f64(other_metric, p);           // minkowski p
    other_metric << bytes.substr(4 + 8 + 8);  // rest of the original payload
    EXPECT_THROW(target.load(other_metric), SerializationError) << "p = " << p;
  }
}

/// A kNN artifact with the default config around the given reference set.
std::string knn_artifact(const nn::Matrix& points, const std::vector<std::uint8_t>& labels) {
  std::stringstream out;
  nn::write_u32(out, 0x4B4E4E44);  // "KNND" tag
  nn::write_u64(out, 7);           // k
  nn::write_f64(out, 2.0);         // minkowski p
  nn::write_u64(out, 6000);        // max points per class
  nn::write_matrix(out, points);
  nn::write_u8_vector(out, labels);
  return out.str();
}

TEST(DetectorRoundTrip, GarbageKnnReferenceSetInArtifactThrowsTypedError) {
  detect::KnnDetector target;
  target.fit(sample_probes(3, 10, 83), sample_probes(3, 10, 84));
  const auto probes = sample_probes(3, 8, 85);
  std::vector<double> before;
  for (const auto& probe : probes) before.push_back(target.anomaly_score(probe));

  const nn::Matrix points = {{0.1, 0.2, 0.3}, {0.4, 0.5, 0.6}, {0.7, 0.8, 0.9}};
  const std::vector<std::uint8_t> labels = {0, 1, 0};
  const auto expect_rejected = [&](const std::string& bytes, const char* what) {
    std::stringstream in(bytes);
    EXPECT_THROW(target.load(in), SerializationError) << what;
  };
  // A label byte above 1 would give its row that many votes.
  expect_rejected(knn_artifact(points, {0, 2, 0}), "label 2");
  expect_rejected(knn_artifact(points, {255, 1, 0}), "label 255");
  // Every query against an empty reference set would throw.
  expect_rejected(knn_artifact(nn::Matrix(0, 3), {}), "zero rows");
  expect_rejected(knn_artifact(nn::Matrix(3, 0), labels), "zero-width rows");
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    nn::Matrix poisoned = points;
    poisoned(1, 0) = bad;
    expect_rejected(knn_artifact(poisoned, labels), "non-finite point");
  }

  // Every rejection left the fitted detector untouched...
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(target.anomaly_score(probes[i]), before[i]) << "probe " << i;
  }
  // ...and the untampered artifact loads.
  std::stringstream good(knn_artifact(points, labels));
  EXPECT_NO_THROW(target.load(good));
  EXPECT_EQ(target.train_size(), 3u);
}

TEST(ScalerRoundTrip, NonFiniteRangeInArtifactThrowsTypedError) {
  std::stringstream minmax_stream;
  nn::write_u32(minmax_stream, 0x4D4D5343);  // "MMSC" tag
  nn::write_f64_vector(minmax_stream, {0.0});
  nn::write_f64_vector(minmax_stream, {std::numeric_limits<double>::quiet_NaN()});
  data::MinMaxScaler minmax;
  EXPECT_THROW(minmax.load(minmax_stream), SerializationError);

  std::stringstream standard_stream;
  nn::write_u32(standard_stream, 0x53545343);  // "STSC" tag
  nn::write_f64_vector(standard_stream, {1.0});
  nn::write_f64_vector(standard_stream, {0.0});  // std = 0 divides by zero
  data::StandardScaler standard;
  EXPECT_THROW(standard.load(standard_stream), SerializationError);
}

TEST(DetectorRoundTrip, KindTagMismatchThrowsTypedError) {
  detect::KnnDetector knn;
  knn.fit(sample_probes(3, 10, 61), sample_probes(3, 10, 62));
  std::stringstream stream;
  knn.save(stream);

  detect::OneClassSvm wrong_kind;
  EXPECT_THROW(wrong_kind.load(stream), SerializationError);
}

TEST(DetectorRoundTrip, TruncatedDetectorStreamThrowsAndLeavesTargetUsable) {
  detect::KnnDetector saved;
  saved.fit(sample_probes(3, 12, 63), sample_probes(3, 12, 64));
  std::stringstream stream;
  saved.save(stream);
  const std::string full = stream.str();

  detect::KnnDetector target;
  target.fit(sample_probes(3, 8, 65), sample_probes(3, 8, 66));
  const auto probes = sample_probes(3, 5, 67);
  std::vector<double> before;
  for (const auto& p : probes) before.push_back(target.anomaly_score(p));

  std::stringstream truncated(full.substr(0, full.size() - 7));
  EXPECT_THROW(target.load(truncated), SerializationError);
  // The failed load left the previously fitted state fully intact.
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(target.anomaly_score(probes[i]), before[i]);
  }
}

}  // namespace
}  // namespace goodones
