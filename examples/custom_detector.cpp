// Extending the framework with your own anomaly detector.
//
// The risk-profiling framework treats detectors as plug-ins behind the
// AnomalyDetector interface. This example implements a simple robust
// z-score detector (median/MAD over per-sample features), registers it
// alongside the built-ins, and compares selective vs indiscriminate
// training on it — demonstrating that the paper's selective-training
// recipe applies to any static detector, not just the three it evaluated.
//
//   build/examples/custom_detector
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>

#include "core/framework.hpp"
#include "domains/bgms/adapter.hpp"
#include "data/window.hpp"
#include "detect/detector.hpp"

namespace {

using namespace goodones;

/// Median/MAD z-score detector: flags a sample when any feature deviates
/// from the training median by more than `threshold` robust standard
/// deviations. Unsupervised and embarrassingly simple — a useful baseline.
class RobustZScoreDetector final : public detect::AnomalyDetector {
 public:
  explicit RobustZScoreDetector(double threshold = 6.0) : threshold_(threshold) {}

  detect::InputGranularity granularity() const override {
    return detect::InputGranularity::kSample;
  }

  void fit(const std::vector<nn::Matrix>& benign,
           const std::vector<nn::Matrix>& /*malicious*/) override {
    const std::size_t dim = benign.front().size();
    medians_.resize(dim);
    mads_.resize(dim);
    std::vector<double> column(benign.size());
    for (std::size_t c = 0; c < dim; ++c) {
      for (std::size_t i = 0; i < benign.size(); ++i) {
        column[i] = data::flatten(benign[i])[c];
      }
      std::nth_element(column.begin(), column.begin() + column.size() / 2, column.end());
      medians_[c] = column[column.size() / 2];
      for (std::size_t i = 0; i < benign.size(); ++i) {
        column[i] = std::abs(data::flatten(benign[i])[c] - medians_[c]);
      }
      std::nth_element(column.begin(), column.begin() + column.size() / 2, column.end());
      // 1.4826 * MAD estimates the standard deviation for normal data.
      mads_[c] = std::max(1.4826 * column[column.size() / 2], 1e-6);
    }
  }

  double anomaly_score(const nn::Matrix& window) const override {
    const auto features = data::flatten(window);
    double worst = 0.0;
    for (std::size_t c = 0; c < features.size(); ++c) {
      worst = std::max(worst, std::abs(features[c] - medians_[c]) / mads_[c]);
    }
    return worst;
  }

  bool flags(const nn::Matrix& window) const override {
    return anomaly_score(window) > threshold_;
  }

  /// Optional serving-path fast lane. The contract when you override
  /// score_batch (see detect/detector.hpp):
  ///   1. element i corresponds to windows[i];
  ///   2. every score is BITWISE identical to anomaly_score(windows[i]) —
  ///      batching may only change the execution schedule, never a value
  ///      (the serving tests replay responses against persisted bundles
  ///      and compare with EXPECT_EQ on doubles);
  ///   3. an empty span returns an empty vector;
  ///   4. it must be const and thread-safe (the ScoringService calls it
  ///      from pool workers, one call per entity per request batch).
  /// Skip the override entirely when there is nothing to amortize across
  /// the batch — the base class loops anomaly_score for you, which is all
  /// this detector needs (shown here only to demonstrate the contract;
  /// MAD-GAN's batched latent inversion in src/detect/ is the override
  /// that actually pays, while kNN answers each query from its k-d tree
  /// index and keeps the base-class loop).
  std::vector<double> score_batch(std::span<const nn::Matrix> windows) const override {
    std::vector<double> scores;
    scores.reserve(windows.size());
    for (const nn::Matrix& window : windows) scores.push_back(anomaly_score(window));
    return scores;
  }

  std::string name() const override { return "RobustZScore"; }

 private:
  double threshold_;
  std::vector<double> medians_;
  std::vector<double> mads_;
};

/// Trains and evaluates the custom detector on a patient subset, reusing
/// the framework's data plumbing (scaled samples, attack campaigns).
core::ConfusionMatrix evaluate_custom(core::RiskProfilingFramework& framework,
                                      const std::vector<std::size_t>& train_victims) {
  RobustZScoreDetector detector;
  std::vector<nn::Matrix> benign;
  for (const auto p : train_victims) {
    auto samples = framework.benign_train_samples(p);
    benign.insert(benign.end(), samples.begin(), samples.end());
  }
  detector.fit(benign, {});

  core::ConfusionMatrix cm;
  for (std::size_t p = 0; p < framework.entities().size(); ++p) {
    for (const auto& sample : framework.benign_test_samples(p)) {
      cm.add(false, detector.flags(sample));
    }
    for (const auto& sample : framework.malicious_samples(framework.test_outcomes(p))) {
      cm.add(true, detector.flags(sample));
    }
  }
  return cm;
}

}  // namespace

int main() {
  const auto domain = std::make_shared<bgms::BgmsDomain>();
  core::FrameworkConfig config = domain->prepare(core::FrameworkConfig::fast());
  config.population.train_steps = 3000;
  config.population.test_steps = 900;
  config.registry.forecaster.epochs = 4;
  config.profiling_campaign.attack.harm_threshold = 250.0;
  config.evaluation_campaign.attack.harm_threshold = 250.0;
  core::RiskProfilingFramework framework(domain, config);

  const auto& clusters = framework.profiling().clusters;
  std::vector<std::size_t> everyone(framework.entities().size());
  for (std::size_t i = 0; i < everyone.size(); ++i) everyone[i] = i;

  const auto selective = evaluate_custom(framework, clusters.less_vulnerable);
  const auto indiscriminate = evaluate_custom(framework, everyone);

  std::cout << "Custom RobustZScore detector under the risk-profiling framework:\n";
  std::cout << "  selective (less vulnerable): recall " << selective.recall()
            << "  precision " << selective.precision() << "  F1 " << selective.f1()
            << "\n";
  std::cout << "  indiscriminate (all patients): recall " << indiscriminate.recall()
            << "  precision " << indiscriminate.precision() << "  F1 "
            << indiscriminate.f1() << "\n";
  std::cout << "\nAny AnomalyDetector implementation plugs into the same five-step "
               "pipeline;\nsee detect/detector.hpp for the interface.\n";
  return 0;
}
