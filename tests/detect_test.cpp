#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "detect/factory.hpp"
#include "detect/knn.hpp"
#include "detect/madgan.hpp"
#include "detect/ocsvm.hpp"

namespace goodones::detect {
namespace {

/// Synthetic telemetry windows: benign = flat traces near `level` with small
/// noise; malicious = traces pushed into a far-away band (mimicking the CGM
/// manipulation, which forces values >= 125/180 while benign sits ~0.15 in
/// scaled units).
nn::Matrix make_window(common::Rng& rng, double level, double noise, std::size_t steps = 12,
                       std::size_t channels = 4) {
  nn::Matrix w(steps, channels);
  for (std::size_t t = 0; t < steps; ++t) {
    w(t, 0) = level + rng.normal(0.0, noise);
    w(t, 1) = 0.5;
    w(t, 2) = 0.0;
    w(t, 3) = 0.0;
  }
  return w;
}

std::vector<nn::Matrix> make_windows(common::Rng& rng, std::size_t n, double level,
                                     double noise) {
  std::vector<nn::Matrix> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(make_window(rng, level, noise));
  return out;
}

TEST(Knn, SeparatesWellSeparatedClasses) {
  common::Rng rng(5);
  const auto benign = make_windows(rng, 120, 0.15, 0.02);
  const auto malicious = make_windows(rng, 120, 0.8, 0.02);
  KnnDetector detector;
  detector.fit(benign, malicious);

  common::Rng test_rng(6);
  int correct = 0;
  for (int i = 0; i < 40; ++i) {
    correct += detector.flags(make_window(test_rng, 0.8, 0.02)) ? 1 : 0;
    correct += !detector.flags(make_window(test_rng, 0.15, 0.02)) ? 1 : 0;
  }
  EXPECT_GE(correct, 78);  // ~100% on this trivially separable data
}

TEST(Knn, ScoreIsNeighborFraction) {
  common::Rng rng(7);
  const auto benign = make_windows(rng, 50, 0.1, 0.01);
  const auto malicious = make_windows(rng, 50, 0.9, 0.01);
  KnnDetector detector;
  detector.fit(benign, malicious);
  common::Rng test_rng(8);
  const double benign_score = detector.anomaly_score(make_window(test_rng, 0.1, 0.01));
  const double malicious_score = detector.anomaly_score(make_window(test_rng, 0.9, 0.01));
  EXPECT_GE(benign_score, 0.0);
  EXPECT_LE(benign_score, 1.0);
  EXPECT_LT(benign_score, 0.5);
  EXPECT_GT(malicious_score, 0.5);
}

TEST(Knn, SubsamplingCapsTrainingSet) {
  common::Rng rng(9);
  KnnConfig config;
  config.max_points_per_class = 30;
  KnnDetector detector(config);
  detector.fit(make_windows(rng, 100, 0.2, 0.05), make_windows(rng, 80, 0.8, 0.05));
  EXPECT_EQ(detector.train_size(), 60u);
}

TEST(Knn, RequiresBothClasses) {
  common::Rng rng(11);
  KnnDetector detector;
  const auto benign = make_windows(rng, 10, 0.2, 0.02);
  EXPECT_THROW(detector.fit(benign, {}), common::PreconditionError);
  EXPECT_THROW(detector.fit({}, benign), common::PreconditionError);
}

TEST(Knn, RejectsBadConfig) {
  KnnConfig config;
  config.k = 0;
  EXPECT_THROW(KnnDetector{config}, common::PreconditionError);
}

TEST(Knn, RejectsNonFiniteTrainingPoints) {
  common::Rng rng(12);
  const auto benign = make_windows(rng, 10, 0.2, 0.02);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    auto malicious = make_windows(rng, 10, 0.8, 0.02);
    malicious[3](5, 0) = bad;
    KnnDetector detector;
    EXPECT_THROW(detector.fit(benign, malicious), common::PreconditionError);
  }
}

TEST(Knn, NameMatchesPaper) {
  EXPECT_EQ(KnnDetector{}.name(), "kNN");
}

class OcsvmKernelSweep : public ::testing::TestWithParam<Kernel> {};

TEST_P(OcsvmKernelSweep, FlagsFarOutliers) {
  common::Rng rng(13);
  const auto benign = make_windows(rng, 200, 0.2, 0.03);
  OcsvmConfig config;
  config.kernel = GetParam();
  config.coef0 = 0.25;  // non-saturating for sigmoid
  config.nu = 0.1;
  OneClassSvm detector(config);
  detector.fit(benign, {});

  common::Rng test_rng(14);
  int flagged_outliers = 0;
  for (int i = 0; i < 25; ++i) {
    flagged_outliers += detector.flags(make_window(test_rng, 0.95, 0.01)) ? 1 : 0;
  }
  EXPECT_GE(flagged_outliers, 22) << "kernel " << static_cast<int>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Kernels, OcsvmKernelSweep,
                         ::testing::Values(Kernel::kRbf, Kernel::kSigmoid));

TEST(Ocsvm, NuControlsTrainingOutlierFraction) {
  // Schölkopf's nu-property: at most a nu fraction of training points end up
  // outside the learned region (approximately, for separable-ish data).
  common::Rng rng(17);
  const auto benign = make_windows(rng, 400, 0.3, 0.05);
  OcsvmConfig config;
  config.kernel = Kernel::kRbf;
  config.nu = 0.5;  // the paper's setting
  OneClassSvm detector(config);
  detector.fit(benign, {});

  std::size_t flagged = 0;
  for (const auto& w : benign) flagged += detector.flags(w) ? 1 : 0;
  const double fraction = static_cast<double>(flagged) / static_cast<double>(benign.size());
  EXPECT_NEAR(fraction, 0.5, 0.12);
}

TEST(Ocsvm, ProducesSupportVectors) {
  common::Rng rng(19);
  OcsvmConfig config;
  config.kernel = Kernel::kRbf;
  config.nu = 0.3;
  OneClassSvm detector(config);
  detector.fit(make_windows(rng, 150, 0.25, 0.04), {});
  EXPECT_GT(detector.num_support_vectors(), 0u);
  EXPECT_LE(detector.num_support_vectors(), 150u);
  EXPECT_GT(detector.iterations_used(), 0u);
}

TEST(Ocsvm, ScoreSignMatchesDecision) {
  common::Rng rng(23);
  OcsvmConfig config;
  config.kernel = Kernel::kRbf;
  config.nu = 0.2;
  OneClassSvm detector(config);
  detector.fit(make_windows(rng, 150, 0.2, 0.03), {});
  common::Rng test_rng(24);
  for (int i = 0; i < 20; ++i) {
    const auto w = make_window(test_rng, test_rng.uniform(0.0, 1.0), 0.05);
    EXPECT_EQ(detector.flags(w), detector.anomaly_score(w) > 0.0);
  }
}

TEST(Ocsvm, RequiresAtLeastTwoPoints) {
  common::Rng rng(29);
  OneClassSvm detector;
  EXPECT_THROW(detector.fit(make_windows(rng, 1, 0.2, 0.02), {}), common::PreconditionError);
}

TEST(Ocsvm, RejectsBadNu) {
  OcsvmConfig config;
  config.nu = 0.0;
  EXPECT_THROW(OneClassSvm{config}, common::PreconditionError);
  config.nu = 1.5;
  EXPECT_THROW(OneClassSvm{config}, common::PreconditionError);
}

TEST(Ocsvm, PaperConfigSigmoidCoef10StillRuns) {
  // Appendix-B parameters verbatim: the sigmoid kernel saturates (see
  // ocsvm.hpp) but fitting and scoring must remain well-defined.
  common::Rng rng(31);
  OcsvmConfig config;  // kernel=sigmoid, coef0=10, nu=0.5 are the defaults
  OneClassSvm detector(config);
  detector.fit(make_windows(rng, 100, 0.3, 0.05), {});
  common::Rng test_rng(32);
  EXPECT_TRUE(std::isfinite(detector.anomaly_score(make_window(test_rng, 0.9, 0.01))));
}

MadGanConfig tiny_madgan_config() {
  MadGanConfig config;
  config.epochs = 6;
  config.hidden = 12;
  config.latent_dim = 3;
  config.max_train_windows = 220;
  config.calibration_windows = 64;
  config.inversion_steps = 10;
  config.seed = 77;
  return config;
}

TEST(MadGan, MaliciousScoresExceedBenign) {
  common::Rng rng(37);
  const auto benign = make_windows(rng, 300, 0.2, 0.03);
  MadGan detector(tiny_madgan_config());
  detector.fit(benign, {});

  common::Rng test_rng(38);
  double benign_mean = 0.0;
  double malicious_mean = 0.0;
  const int n = 15;
  for (int i = 0; i < n; ++i) {
    benign_mean += detector.anomaly_score(make_window(test_rng, 0.2, 0.03));
    malicious_mean += detector.anomaly_score(make_window(test_rng, 0.85, 0.02));
  }
  EXPECT_GT(malicious_mean / n, benign_mean / n);
}

TEST(MadGan, FlagsFarOutliersAfterCalibration) {
  common::Rng rng(41);
  MadGan detector(tiny_madgan_config());
  detector.fit(make_windows(rng, 300, 0.2, 0.03), {});
  common::Rng test_rng(42);
  int flagged = 0;
  for (int i = 0; i < 20; ++i) {
    flagged += detector.flags(make_window(test_rng, 0.9, 0.01)) ? 1 : 0;
  }
  EXPECT_GE(flagged, 16);
}

TEST(MadGan, BenignFalsePositiveRateNearQuantile) {
  common::Rng rng(43);
  const auto benign = make_windows(rng, 300, 0.2, 0.03);
  auto config = tiny_madgan_config();
  config.threshold_quantile = 0.95;
  MadGan detector(config);
  detector.fit(benign, {});
  common::Rng test_rng(44);
  int flagged = 0;
  const int n = 60;
  for (int i = 0; i < n; ++i) {
    flagged += detector.flags(make_window(test_rng, 0.2, 0.03)) ? 1 : 0;
  }
  EXPECT_LE(static_cast<double>(flagged) / n, 0.25);  // ~5% nominal, generous bound
}

TEST(MadGan, ScoringIsDeterministic) {
  common::Rng rng(47);
  MadGan detector(tiny_madgan_config());
  detector.fit(make_windows(rng, 200, 0.25, 0.03), {});
  common::Rng test_rng(48);
  const auto w = make_window(test_rng, 0.6, 0.02);
  EXPECT_DOUBLE_EQ(detector.anomaly_score(w), detector.anomaly_score(w));
}

TEST(MadGan, GeneratorOutputHasSignalShapeAndRange) {
  common::Rng rng(53);
  MadGan detector(tiny_madgan_config());
  detector.fit(make_windows(rng, 150, 0.3, 0.05), {});
  common::Rng gen_rng(54);
  const auto synthetic = detector.generate(gen_rng);
  EXPECT_EQ(synthetic.rows(), 12u);
  EXPECT_EQ(synthetic.cols(), 4u);
  for (std::size_t t = 0; t < synthetic.rows(); ++t) {
    for (const double v : synthetic.row(t)) {
      ASSERT_GE(v, 0.0);  // sigmoid output head
      ASSERT_LE(v, 1.0);
    }
  }
}

TEST(MadGan, ScoreRequiresFit) {
  MadGan detector(tiny_madgan_config());
  common::Rng rng(55);
  EXPECT_THROW((void)detector.anomaly_score(make_window(rng, 0.5, 0.01)),
               common::PreconditionError);
}

TEST(MadGan, DrLambdaBlendsComponents) {
  common::Rng rng(59);
  const auto benign = make_windows(rng, 200, 0.25, 0.03);
  auto config = tiny_madgan_config();
  config.dr_lambda = 1.0;  // pure discrimination
  MadGan disc_only(config);
  disc_only.fit(benign, {});
  common::Rng test_rng(60);
  const auto w = make_window(test_rng, 0.5, 0.02);
  EXPECT_NEAR(disc_only.anomaly_score(w), disc_only.discrimination_score(w), 1e-12);
}

// --- score_batch parity -----------------------------------------------------
//
// The serving path makes ONE score_batch call per (entity, request); the
// contract is that batching is purely an execution strategy — every batched
// score must be BITWISE identical to the per-window anomaly_score, for the
// overridden fast path (MAD-GAN batched inversion) and the base-class loop
// (kNN, OneClassSVM) alike.

template <typename Detector>
void expect_batched_scores_bitwise_identical(const Detector& detector,
                                             const std::vector<nn::Matrix>& queries) {
  const std::vector<double> batched =
      detector.score_batch(std::span<const nn::Matrix>(queries));
  ASSERT_EQ(batched.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const double scalar = detector.anomaly_score(queries[i]);
    EXPECT_EQ(batched[i], scalar) << "window " << i << " drifted";
    EXPECT_EQ(detector.flags_from_score(queries[i], batched[i]), detector.flags(queries[i]))
        << "window " << i;
  }
  EXPECT_TRUE(detector.score_batch(std::span<const nn::Matrix>()).empty());
}

TEST(ScoreBatchParity, KnnDefaultLoopIsBitwiseIdentical) {
  common::Rng rng(71);
  KnnDetector detector;
  // Enough training points for a k-d tree several levels deep.
  detector.fit(make_windows(rng, 400, 0.2, 0.04), make_windows(rng, 350, 0.8, 0.04));
  common::Rng test_rng(72);
  std::vector<nn::Matrix> queries;
  for (int i = 0; i < 9; ++i) queries.push_back(make_window(test_rng, 0.15 + 0.09 * i, 0.03));
  expect_batched_scores_bitwise_identical(detector, queries);
}

TEST(ScoreBatchParity, OcsvmDefaultLoopIsBitwiseIdentical) {
  common::Rng rng(73);
  OneClassSvm detector;
  detector.fit(make_windows(rng, 120, 0.3, 0.05), {});
  common::Rng test_rng(74);
  std::vector<nn::Matrix> queries;
  for (int i = 0; i < 6; ++i) queries.push_back(make_window(test_rng, 0.2 + 0.12 * i, 0.03));
  expect_batched_scores_bitwise_identical(detector, queries);
}

TEST(ScoreBatchParity, MadGanBatchedInversionIsBitwiseIdentical) {
  common::Rng rng(75);
  MadGan detector(tiny_madgan_config());
  detector.fit(make_windows(rng, 200, 0.25, 0.03), {});
  common::Rng test_rng(76);
  std::vector<nn::Matrix> queries;
  for (int i = 0; i < 7; ++i) queries.push_back(make_window(test_rng, 0.1 + 0.12 * i, 0.03));
  expect_batched_scores_bitwise_identical(detector, queries);
  // Batch of one is the degenerate case the packing must also get right.
  expect_batched_scores_bitwise_identical(
      detector, std::vector<nn::Matrix>{queries.front()});
}

// --- kNN index vs. linear scan ----------------------------------------------
//
// KnnDetector answers from a k-d tree; its contract is the vote of a linear
// scan over the training rows in index order, ties at the k-th distance
// included. The scan below is that reference, written out over the same
// rows fit() stores (max_points_per_class = 0: every benign window, then
// every malicious one).

double scan_score(const std::vector<std::vector<double>>& rows,
                  const std::vector<std::uint8_t>& labels, std::span<const double> query,
                  std::size_t k) {
  k = std::min(k, rows.size());
  std::vector<std::pair<double, std::uint8_t>> heap;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    double sum = 0.0;
    for (std::size_t i = 0; i < query.size(); ++i) {
      const double d = query[i] - rows[r][i];
      sum += d * d;
    }
    const double dist = std::sqrt(sum);
    if (heap.size() < k) {
      heap.emplace_back(dist, labels[r]);
      std::push_heap(heap.begin(), heap.end());
    } else if (dist < heap.front().first) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = {dist, labels[r]};
      std::push_heap(heap.begin(), heap.end());
    }
  }
  std::size_t malicious = 0;
  for (const auto& [dist, label] : heap) malicious += label;
  return static_cast<double>(malicious) / static_cast<double>(heap.size());
}

enum class KChoice { kOne, kSeven, kAll, kAllPlusThree };

/// A reference set as fit() receives it, and as the scan sees it.
struct ReferenceSet {
  std::vector<nn::Matrix> benign;
  std::vector<nn::Matrix> malicious;
  std::vector<std::vector<double>> rows;
  std::vector<std::uint8_t> labels;
};

/// Seeded property fixture over (feature width, k), in the style of a
/// TestWithParam base that carries its own RNG and log-uniform size draws.
/// The seed's + 4 is the term Minkowski p = 2 added when the fixture also
/// ranged over p, so every case draws the points it always drew.
class KnnIndexVsScan : public ::testing::TestWithParam<std::tuple<std::size_t, KChoice>> {
 protected:
  KnnIndexVsScan()
      : dim_(std::get<0>(GetParam())),
        rng_(1000003 * dim_ + 101 * static_cast<std::uint64_t>(std::get<1>(GetParam())) + 4) {}

  /// Log-uniform draw in [lo, hi]: small sizes are as likely as large ones.
  double random_double_log(double lo, double hi) {
    const double v = std::exp(rng_.uniform(std::log(lo + 1.0), std::log(hi + 1.0))) - 1.0;
    return std::clamp(v, lo, hi);
  }

  /// The 48-wide case is a flattened 12 x 4 window, as in the tests above;
  /// the narrow ones are single samples.
  nn::Matrix to_window(const std::vector<double>& values) const {
    const std::size_t rows = dim_ == 48 ? 12 : 1;
    nn::Matrix window(rows, dim_ / rows);
    std::copy(values.begin(), values.end(), window.data());
    return window;
  }

  /// Coarse grid values make exact distance ties common; log-scaled
  /// continuous values exercise deep trees with real pruning.
  std::vector<double> random_point(bool grid) {
    std::vector<double> v(dim_);
    for (double& x : v) {
      x = grid ? 0.5 * static_cast<double>(rng_.uniform_int(-3, 3))
               : rng_.normal(0.0, 1.0) * random_double_log(0.01, 100.0);
    }
    return v;
  }

  /// Rows land in either class at random; both classes are non-empty.
  ReferenceSet make_reference(const std::vector<std::vector<double>>& points) {
    std::vector<std::vector<double>> benign;
    std::vector<std::vector<double>> malicious;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const bool bad = i == 0 ? false : i == 1 ? true : rng_.bernoulli(0.4);
      (bad ? malicious : benign).push_back(points[i]);
    }
    ReferenceSet set;
    for (const auto& v : benign) {
      set.benign.push_back(to_window(v));
      set.rows.push_back(v);
      set.labels.push_back(0);
    }
    for (const auto& v : malicious) {
      set.malicious.push_back(to_window(v));
      set.rows.push_back(v);
      set.labels.push_back(1);
    }
    return set;
  }

  std::size_t resolve_k(std::size_t n) const {
    switch (std::get<1>(GetParam())) {
      case KChoice::kOne: return 1;
      case KChoice::kSeven: return 7;
      case KChoice::kAll: return n;
      case KChoice::kAllPlusThree: return n + 3;
    }
    return 1;
  }

  /// Random points, every 7th reference row exactly, a far point, and
  /// non-finite points (served telemetry is never checked for finiteness).
  std::vector<std::vector<double>> make_queries(const ReferenceSet& set, bool grid) {
    std::vector<std::vector<double>> queries;
    for (int i = 0; i < 24; ++i) queries.push_back(random_point(grid));
    for (std::size_t r = 0; r < set.rows.size(); r += 7) queries.push_back(set.rows[r]);
    queries.push_back(std::vector<double>(dim_, 1e6));
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double bad : {nan, inf, -inf}) {
      std::vector<double> q = random_point(grid);
      q[dim_ / 2] = bad;
      queries.push_back(q);
    }
    std::vector<double> both = random_point(grid);
    both.front() = inf;
    both.back() = -inf;
    queries.push_back(both);
    return queries;
  }

  /// Fits, then checks every query bitwise against the scan, before and
  /// after a save -> load round trip.
  void expect_matches_scan(const ReferenceSet& set,
                           const std::vector<std::vector<double>>& queries) {
    const std::size_t k = resolve_k(set.rows.size());
    KnnConfig config;
    config.k = k;
    config.max_points_per_class = 0;
    KnnDetector fitted(config);
    fitted.fit(set.benign, set.malicious);
    ASSERT_EQ(fitted.train_size(), set.rows.size());
    std::stringstream artifact;
    fitted.save(artifact);
    KnnDetector loaded;
    loaded.load(artifact);

    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const double expected = scan_score(set.rows, set.labels, queries[q], k);
      const nn::Matrix window = to_window(queries[q]);
      ASSERT_EQ(bits(fitted.anomaly_score(window)), bits(expected))
          << "query " << q << " of " << queries.size() << ", n=" << set.rows.size();
      ASSERT_EQ(bits(loaded.anomaly_score(window)), bits(expected))
          << "after load, query " << q << ", n=" << set.rows.size();
    }
  }

  std::size_t dim_;
  common::Rng rng_;
};

TEST_P(KnnIndexVsScan, RandomRowsMatchScan) {
  const double max_rows = dim_ <= 6 ? 1500.0 : 300.0;
  for (const bool grid : {true, false}) {
    SCOPED_TRACE(grid ? "grid" : "continuous");
    const auto n = static_cast<std::size_t>(random_double_log(20.0, max_rows));
    std::vector<std::vector<double>> points;
    for (std::size_t i = 0; i < n; ++i) points.push_back(random_point(grid));
    const ReferenceSet set = make_reference(points);
    expect_matches_scan(set, make_queries(set, grid));
  }
}

TEST_P(KnnIndexVsScan, DuplicatedRowsWithMixedLabelsMatchScan) {
  // A few distinct rows, each repeated in both classes: every k-th distance
  // is a tie between malicious and benign copies of the same row.
  std::vector<std::vector<double>> distinct;
  for (int i = 0; i < 6; ++i) distinct.push_back(random_point(true));
  std::vector<std::vector<double>> points;
  const auto copies = static_cast<std::size_t>(random_double_log(3.0, 40.0));
  for (std::size_t c = 0; c < copies; ++c) {
    for (const auto& v : distinct) points.push_back(v);
  }
  const ReferenceSet set = make_reference(points);
  expect_matches_scan(set, make_queries(set, true));
}

TEST_P(KnnIndexVsScan, IdenticalRowsMatchScan) {
  const std::vector<double> row = random_point(false);
  const std::vector<std::vector<double>> points(
      static_cast<std::size_t>(random_double_log(2.0, 200.0)), row);
  const ReferenceSet set = make_reference(points);
  expect_matches_scan(set, make_queries(set, false));
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndKs, KnnIndexVsScan,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 4, 6, 48),
                       ::testing::Values(KChoice::kOne, KChoice::kSeven, KChoice::kAll,
                                         KChoice::kAllPlusThree)));

TEST(Factory, BuildsAllKindsWithMatchingNames) {
  const DetectorSuiteConfig config;
  EXPECT_EQ(make_detector(DetectorKind::kKnn, config)->name(), "kNN");
  EXPECT_EQ(make_detector(DetectorKind::kOcsvm, config)->name(), "OneClassSVM");
  EXPECT_EQ(make_detector(DetectorKind::kMadGan, config)->name(), "MAD-GAN");
  EXPECT_STREQ(to_string(DetectorKind::kMadGan), "MAD-GAN");
}

}  // namespace
}  // namespace goodones::detect
