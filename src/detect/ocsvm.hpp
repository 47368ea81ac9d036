// One-class support vector machine with an SMO solver (Schölkopf's
// nu-formulation, the algorithm behind scikit-learn/libsvm's OneClassSVM).
//
//   minimize    (1/2) * alpha^T Q alpha
//   subject to  0 <= alpha_i <= 1/(nu*l),  sum_i alpha_i = 1
//
// Decision: f(x) = sum_i alpha_i K(x_i, x) - rho; a sample is anomalous
// when f(x) < 0. The paper's Appendix-B parameters (sigmoid kernel,
// coef0 = 10, nu = 0.5) are expressible; note that on non-negative feature
// dot products a large positive coef0 saturates tanh and the kernel loses
// discrimination — our detector therefore standardizes features internally
// (z-score), matching common practice, and EXPERIMENTS.md documents the
// coef0 used in the reproduction runs. Gamma is 1/d, sklearn's "auto" (the
// paper's setting); on z-scored features it equals sklearn's "scale" too.
#pragma once

#include <cstdint>
#include <vector>

#include "data/scaler.hpp"
#include "detect/detector.hpp"

namespace goodones::detect {

enum class Kernel : std::uint8_t { kRbf, kSigmoid };

struct OcsvmConfig {
  Kernel kernel = Kernel::kSigmoid;  ///< paper Appendix B
  double coef0 = 10.0;               ///< paper Appendix B (see header note)
  double nu = 0.5;                   ///< paper Appendix B
  double tolerance = 1e-3;           ///< KKT stopping tolerance
  std::size_t max_iterations = 20000;  ///< SMO iteration cap (0 = paper's "-1"/unbounded)
  /// Caps training points (stride subsampling) to bound the kernel matrix.
  std::size_t max_train_points = 2000;
};

class OneClassSvm final : public AnomalyDetector {
 public:
  explicit OneClassSvm(OcsvmConfig config = {});

  /// Unsupervised: trains on `benign` only; `malicious` is ignored.
  void fit(const std::vector<nn::Matrix>& benign,
           const std::vector<nn::Matrix>& malicious) override;

  /// Negated decision function (-f(x)); positive = anomalous side.
  double anomaly_score(const nn::Matrix& window) const override;

  bool flags(const nn::Matrix& window) const override;

  bool flags_from_score(const nn::Matrix& /*window*/, double score) const override {
    return score > 0.0;
  }

  std::string name() const override { return "OneClassSVM"; }

  /// Persists the scoring-relevant config, the internal standardizer and
  /// the support-vector expansion; a reloaded detector's decision function
  /// is bit-identical.
  void save(std::ostream& out) const override;
  void load(std::istream& in) override;

  /// Per-sample classification, like the paper's kNN.
  InputGranularity granularity() const override { return InputGranularity::kSample; }

  double rho() const noexcept { return rho_; }
  std::size_t num_support_vectors() const noexcept { return support_vectors_.rows(); }

  /// Support-vector feature width (0 before fit).
  std::size_t input_width() const noexcept override { return support_vectors_.cols(); }
  std::size_t iterations_used() const noexcept { return iterations_used_; }

 private:
  double kernel_value(std::span<const double> a, std::span<const double> b) const;
  double decision_function(const std::vector<double>& standardized) const;

  OcsvmConfig config_;
  double gamma_value_ = 0.0;
  data::StandardScaler standardizer_;
  nn::Matrix support_vectors_;       // rows = SVs (standardized features)
  std::vector<double> coefficients_; // alpha_i of the kept SVs
  double rho_ = 0.0;
  std::size_t iterations_used_ = 0;
};

}  // namespace goodones::detect
