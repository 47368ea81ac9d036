#include "detect/ocsvm.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>

#include "common/error.hpp"
#include "data/window.hpp"
#include "nn/serialize.hpp"

namespace goodones::detect {

namespace {

constexpr std::uint32_t kOcsvmTag = 0x4F435356;  // "OCSV"

// The artifact keeps the words of two retired settings, so saved bytes do
// not change: the gamma mode (0, sklearn's "auto", the only gamma fit()
// computes) and the polynomial degree (3, which no kept kernel reads). load
// rejects any other value.
constexpr std::uint32_t kGammaAutoWord = 0;
constexpr std::uint32_t kDegreeWord = 3;

constexpr double kTau = 1e-12;  // curvature floor for non-PSD kernels (libsvm)

double dot(std::span<const double> a, std::span<const double> b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double squared_distance(std::span<const double> a, std::span<const double> b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

bool all_finite(std::span<const double> values) {
  return std::all_of(values.begin(), values.end(), [](double v) { return std::isfinite(v); });
}

}  // namespace

OneClassSvm::OneClassSvm(OcsvmConfig config) : config_(config) {
  GO_EXPECTS(config_.nu > 0.0 && config_.nu <= 1.0);
  GO_EXPECTS(config_.tolerance > 0.0);
  GO_EXPECTS(config_.max_train_points >= 2);
}

double OneClassSvm::kernel_value(std::span<const double> a, std::span<const double> b) const {
  switch (config_.kernel) {
    case Kernel::kRbf:
      return std::exp(-gamma_value_ * squared_distance(a, b));
    case Kernel::kSigmoid:
      return std::tanh(gamma_value_ * dot(a, b) + config_.coef0);
  }
  return 0.0;
}

void OneClassSvm::fit(const std::vector<nn::Matrix>& benign,
                      const std::vector<nn::Matrix>& /*malicious*/) {
  GO_EXPECTS(benign.size() >= 2);

  // Stride-subsample and flatten the benign windows.
  std::size_t n = std::min(benign.size(), config_.max_train_points);
  const double stride = static_cast<double>(benign.size()) / static_cast<double>(n);
  const std::size_t dim = benign.front().size();
  nn::Matrix raw(n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& w = benign[static_cast<std::size_t>(static_cast<double>(i) * stride)];
    const auto flat = data::flatten(w);
    GO_EXPECTS(flat.size() == dim);
    std::copy(flat.begin(), flat.end(), raw.row(i).begin());
  }

  standardizer_.fit(raw);
  const nn::Matrix x = standardizer_.transform(raw);

  // Gamma: sklearn's "auto" = 1/d. Its "scale" = 1/(d * var) is the same
  // value here, since standardized features have variance 1.
  gamma_value_ = 1.0 / static_cast<double>(dim);

  // --- SMO over the nu-one-class dual ---
  const double upper = 1.0 / (config_.nu * static_cast<double>(n));

  // libsvm's initialization: the first floor(nu*l) points at the upper
  // bound, one fractional point, rest zero. Satisfies sum(alpha) = 1.
  std::vector<double> alpha(n, 0.0);
  {
    const auto full = static_cast<std::size_t>(config_.nu * static_cast<double>(n));
    for (std::size_t i = 0; i < full && i < n; ++i) alpha[i] = upper;
    if (full < n) alpha[full] = 1.0 - static_cast<double>(full) * upper;
  }

  // Dense kernel matrix (bounded by max_train_points^2).
  nn::Matrix q(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double k = kernel_value(x.row(i), x.row(j));
      q(i, j) = k;
      q(j, i) = k;
    }
  }

  // Gradient of the dual objective: G = Q * alpha.
  std::vector<double> grad(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) sum += q(i, j) * alpha[j];
    grad[i] = sum;
  }

  const std::size_t max_iter =
      config_.max_iterations == 0 ? 10'000'000 : config_.max_iterations;
  std::size_t iter = 0;
  for (; iter < max_iter; ++iter) {
    // Maximal-violating-pair selection: i minimizes G among alpha_i < C,
    // j maximizes G among alpha_j > 0.
    std::size_t i_sel = n;
    std::size_t j_sel = n;
    double g_min = std::numeric_limits<double>::infinity();
    double g_max = -std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < n; ++t) {
      if (alpha[t] < upper - 1e-15 && grad[t] < g_min) {
        g_min = grad[t];
        i_sel = t;
      }
      if (alpha[t] > 1e-15 && grad[t] > g_max) {
        g_max = grad[t];
        j_sel = t;
      }
    }
    if (i_sel == n || j_sel == n || g_max - g_min < config_.tolerance) break;

    // Move mass from j to i along the equality constraint.
    double curvature = q(i_sel, i_sel) + q(j_sel, j_sel) - 2.0 * q(i_sel, j_sel);
    if (curvature <= 0.0) curvature = kTau;  // non-PSD kernel guard
    double delta = (g_max - g_min) / curvature;
    delta = std::min(delta, upper - alpha[i_sel]);
    delta = std::min(delta, alpha[j_sel]);
    if (delta <= 0.0) break;

    alpha[i_sel] += delta;
    alpha[j_sel] -= delta;
    for (std::size_t t = 0; t < n; ++t) {
      grad[t] += delta * (q(t, i_sel) - q(t, j_sel));
    }
  }
  iterations_used_ = iter;

  // rho: mean gradient over free support vectors; fall back to the bound
  // midpoint when none are free.
  double rho_sum = 0.0;
  std::size_t rho_count = 0;
  for (std::size_t t = 0; t < n; ++t) {
    if (alpha[t] > 1e-12 && alpha[t] < upper - 1e-12) {
      rho_sum += grad[t];
      ++rho_count;
    }
  }
  if (rho_count > 0) {
    rho_ = rho_sum / static_cast<double>(rho_count);
  } else {
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < n; ++t) {
      if (alpha[t] <= 1e-12) lo = std::max(lo, grad[t]);
      else hi = std::min(hi, grad[t]);
    }
    rho_ = (lo + hi) / 2.0;
  }

  // Keep only support vectors.
  std::vector<std::size_t> sv_index;
  for (std::size_t t = 0; t < n; ++t) {
    if (alpha[t] > 1e-12) sv_index.push_back(t);
  }
  GO_ENSURES(!sv_index.empty());
  support_vectors_ = nn::Matrix(sv_index.size(), dim);
  coefficients_.resize(sv_index.size());
  for (std::size_t s = 0; s < sv_index.size(); ++s) {
    const auto src = x.row(sv_index[s]);
    std::copy(src.begin(), src.end(), support_vectors_.row(s).begin());
    coefficients_[s] = alpha[sv_index[s]];
  }
}

double OneClassSvm::decision_function(const std::vector<double>& standardized) const {
  GO_EXPECTS(support_vectors_.rows() > 0);
  double sum = 0.0;
  for (std::size_t s = 0; s < support_vectors_.rows(); ++s) {
    sum += coefficients_[s] * kernel_value(standardized, support_vectors_.row(s));
  }
  return sum - rho_;
}

double OneClassSvm::anomaly_score(const nn::Matrix& window) const {
  const auto flat = data::flatten(window);
  nn::Matrix row(1, flat.size());
  std::copy(flat.begin(), flat.end(), row.row(0).begin());
  const nn::Matrix standardized = standardizer_.transform(row);
  std::vector<double> features(standardized.row(0).begin(), standardized.row(0).end());
  return -decision_function(features);
}

bool OneClassSvm::flags(const nn::Matrix& window) const {
  return anomaly_score(window) > 0.0;
}

void OneClassSvm::save(std::ostream& out) const {
  nn::write_u32(out, kOcsvmTag);
  nn::write_u32(out, static_cast<std::uint32_t>(config_.kernel));
  nn::write_u32(out, kGammaAutoWord);
  nn::write_f64(out, config_.coef0);
  nn::write_u32(out, kDegreeWord);
  nn::write_f64(out, config_.nu);
  nn::write_f64(out, gamma_value_);
  standardizer_.save(out);
  nn::write_matrix(out, support_vectors_);
  nn::write_f64_vector(out, coefficients_);
  nn::write_f64(out, rho_);
  nn::write_u64(out, iterations_used_);
}

void OneClassSvm::load(std::istream& in) {
  nn::expect_u32(in, kOcsvmTag, "OneClassSVM detector tag");
  OcsvmConfig config = config_;
  const std::uint32_t kernel = nn::read_u32(in, "OCSVM kernel");
  const std::uint32_t gamma_mode = nn::read_u32(in, "OCSVM gamma mode");
  // Validate enum ranges before casting: an out-of-range kernel would make
  // kernel_value() silently return 0 for every pair (constant scores).
  if (kernel > static_cast<std::uint32_t>(Kernel::kSigmoid) || gamma_mode != kGammaAutoWord) {
    throw common::SerializationError("OCSVM artifact carries an invalid kernel/gamma mode");
  }
  config.kernel = static_cast<Kernel>(kernel);
  config.coef0 = nn::read_f64(in, "OCSVM coef0");
  if (nn::read_u32(in, "OCSVM degree") != kDegreeWord) {
    throw common::SerializationError("OCSVM artifact carries an invalid degree");
  }
  config.nu = nn::read_f64(in, "OCSVM nu");
  const double gamma_value = nn::read_f64(in, "OCSVM gamma value");
  data::StandardScaler standardizer;
  standardizer.load(in);
  nn::Matrix support_vectors = nn::read_matrix(in);
  std::vector<double> coefficients = nn::read_f64_vector(in, "OCSVM coefficients");
  const double rho = nn::read_f64(in, "OCSVM rho");
  const std::uint64_t iterations = nn::read_u64(in, "OCSVM iterations");
  if (coefficients.size() != support_vectors.rows()) {
    throw common::SerializationError("OCSVM artifact coefficient/SV count mismatch");
  }
  if (standardizer.fitted() && standardizer.num_features() != support_vectors.cols()) {
    throw common::SerializationError("OCSVM artifact standardizer/SV width mismatch");
  }
  // fit() never saves a non-finite value, and one here can make every score
  // NaN (flags_from_score(NaN) silently never flags). nu must meet the
  // constructor's own precondition.
  if (!std::isfinite(config.coef0) || !std::isfinite(gamma_value) || !std::isfinite(rho) ||
      !all_finite(coefficients) ||
      !all_finite({support_vectors.data(), support_vectors.size()})) {
    throw common::SerializationError("OCSVM artifact carries a non-finite scoring value");
  }
  if (!(config.nu > 0.0 && config.nu <= 1.0)) {
    throw common::SerializationError("OCSVM artifact carries a nu outside (0, 1]");
  }
  config_ = config;
  gamma_value_ = gamma_value;
  standardizer_ = std::move(standardizer);
  support_vectors_ = std::move(support_vectors);
  coefficients_ = std::move(coefficients);
  rho_ = rho;
  iterations_used_ = iterations;
}

}  // namespace goodones::detect
