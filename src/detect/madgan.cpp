#include "detect/madgan.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"

namespace goodones::detect {

namespace {

constexpr std::uint32_t kMadGanTag = 0x4D414447;  // "MADG"

/// Deterministic stride subsample (pointers into `windows`).
std::vector<const nn::Matrix*> subsample(const std::vector<nn::Matrix>& windows,
                                         std::size_t cap) {
  std::vector<const nn::Matrix*> out;
  if (cap == 0 || windows.size() <= cap) {
    out.reserve(windows.size());
    for (const auto& w : windows) out.push_back(&w);
    return out;
  }
  out.reserve(cap);
  const double stride = static_cast<double>(windows.size()) / static_cast<double>(cap);
  for (std::size_t i = 0; i < cap; ++i) {
    out.push_back(&windows[static_cast<std::size_t>(static_cast<double>(i) * stride)]);
  }
  return out;
}

/// BCE gradient d/dp of -[y log p + (1-y) log(1-p)] with clamping.
double bce_grad(double p, double y) {
  const double clamped = std::clamp(p, 1e-7, 1.0 - 1e-7);
  return (clamped - y) / (clamped * (1.0 - clamped));
}

}  // namespace

MadGan::Generator::Generator(const MadGanConfig& config, common::Rng& rng)
    : lstm(config.latent_dim, config.hidden, rng),
      projection(config.hidden, config.num_signals, nn::Activation::kSigmoid, rng) {}

MadGan::Discriminator::Discriminator(const MadGanConfig& config, common::Rng& rng)
    : lstm(config.num_signals, config.hidden, rng),
      head(config.hidden, 1, nn::Activation::kSigmoid, rng) {}

MadGan::MadGan(MadGanConfig config)
    : config_(config),
      init_rng_(config.seed * 0x9E3779B97F4A7C15ULL + 1),
      generator_(config_, init_rng_),
      discriminator_(config_, init_rng_),
      inversion_z0_(config.seq_len, config.latent_dim) {
  GO_EXPECTS(config_.epochs > 0);
  GO_EXPECTS(config_.dr_lambda >= 0.0 && config_.dr_lambda <= 1.0);
  GO_EXPECTS(config_.threshold_quantile > 0.0 && config_.threshold_quantile < 1.0);
  // Fixed inversion start point: scoring is a pure function of the window.
  common::Rng z_rng(config.seed ^ 0xABCDEF12345678ULL);
  for (std::size_t t = 0; t < inversion_z0_.rows(); ++t) {
    for (double& v : inversion_z0_.row(t)) v = z_rng.normal(0.0, 0.5);
  }
}

nn::Matrix MadGan::sample_latent(common::Rng& rng) const {
  nn::Matrix z(config_.seq_len, config_.latent_dim);
  for (std::size_t t = 0; t < z.rows(); ++t) {
    for (double& v : z.row(t)) v = rng.normal();
  }
  return z;
}

nn::Matrix MadGan::generator_forward(const Generator& g, const nn::Matrix& z,
                                     nn::Lstm::Cache& lstm_cache,
                                     nn::Dense::Cache& proj_cache) {
  const nn::Matrix hidden = g.lstm.forward_cached(z, lstm_cache);
  return g.projection.forward_cached(hidden, proj_cache);
}

double MadGan::discriminator_forward(const Discriminator& d, const nn::Matrix& x,
                                     nn::Lstm::Cache& lstm_cache,
                                     nn::Dense::Cache& head_cache) {
  const nn::Matrix hidden = d.lstm.forward_cached(x, lstm_cache);
  nn::Matrix last(1, hidden.cols());
  const auto src = hidden.row(hidden.rows() - 1);
  std::copy(src.begin(), src.end(), last.row(0).begin());
  const nn::Matrix prob = d.head.forward_cached(last, head_cache);
  return prob(0, 0);
}

nn::Matrix MadGan::discriminator_backward(Discriminator& d, double grad_prob,
                                          const nn::Lstm::Cache& lstm_cache,
                                          const nn::Dense::Cache& head_cache) {
  nn::Matrix grad_out(1, 1);
  grad_out(0, 0) = grad_prob;
  const nn::Matrix grad_last = d.head.backward(grad_out, head_cache);
  nn::Matrix grad_hidden(lstm_cache.hidden.rows(), lstm_cache.hidden.cols());
  std::copy(grad_last.row(0).begin(), grad_last.row(0).end(),
            grad_hidden.row(grad_hidden.rows() - 1).begin());
  return d.lstm.backward(grad_hidden, lstm_cache);
}

void MadGan::fit(const std::vector<nn::Matrix>& benign,
                 const std::vector<nn::Matrix>& /*malicious*/) {
  GO_EXPECTS(!benign.empty());
  GO_EXPECTS(benign.front().rows() == config_.seq_len);
  GO_EXPECTS(benign.front().cols() == config_.num_signals);

  const auto train = subsample(benign, config_.max_train_windows);

  nn::ParamRefs g_params = generator_.lstm.parameters();
  for (auto* p : generator_.projection.parameters()) g_params.push_back(p);
  nn::ParamRefs d_params = discriminator_.lstm.parameters();
  for (auto* p : discriminator_.head.parameters()) d_params.push_back(p);

  nn::Adam g_optimizer(config_.learning_rate);
  nn::Adam d_optimizer(config_.learning_rate);
  common::Rng rng(config_.seed * 0xD1342543DE82EF95ULL + 7);

  std::vector<std::size_t> order(train.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < order.size(); start += config_.batch_size) {
      const std::size_t end = std::min(order.size(), start + config_.batch_size);
      const auto batch = static_cast<double>(end - start);

      // ---- Discriminator step: real -> 1, fake -> 0. ----
      for (std::size_t b = start; b < end; ++b) {
        const nn::Matrix& real = *train[order[b]];
        nn::Lstm::Cache dc;
        nn::Dense::Cache hc;
        const double p_real = discriminator_forward(discriminator_, real, dc, hc);
        discriminator_backward(discriminator_, bce_grad(p_real, 1.0) / batch, dc, hc);

        nn::Lstm::Cache gc;
        nn::Dense::Cache pc;
        const nn::Matrix fake = generator_forward(generator_, sample_latent(rng), gc, pc);
        nn::Lstm::Cache dc2;
        nn::Dense::Cache hc2;
        const double p_fake = discriminator_forward(discriminator_, fake, dc2, hc2);
        discriminator_backward(discriminator_, bce_grad(p_fake, 0.0) / batch, dc2, hc2);
      }
      nn::clip_global_grad_norm(d_params, config_.grad_clip);
      d_optimizer.step_and_zero(d_params);

      // ---- Generator step: make D call fakes real. ----
      for (std::size_t b = start; b < end; ++b) {
        nn::Lstm::Cache gc;
        nn::Dense::Cache pc;
        const nn::Matrix fake = generator_forward(generator_, sample_latent(rng), gc, pc);
        nn::Lstm::Cache dc;
        nn::Dense::Cache hc;
        const double p_fake = discriminator_forward(discriminator_, fake, dc, hc);
        const nn::Matrix grad_fake =
            discriminator_backward(discriminator_, bce_grad(p_fake, 1.0) / batch, dc, hc);
        const nn::Matrix grad_hidden = generator_.projection.backward(grad_fake, pc);
        generator_.lstm.backward(grad_hidden, gc);
      }
      // Discard the D gradients accumulated while backpropagating into G.
      nn::zero_all_grads(d_params);
      nn::clip_global_grad_norm(g_params, config_.grad_clip);
      g_optimizer.step_and_zero(g_params);
    }
  }

  // ---- Calibration: reconstruction scale + decision threshold. ----
  const auto calibration = subsample(benign, config_.calibration_windows);
  fitted_ = true;  // reconstruction/score paths require the flag

  std::vector<double> recon_errors;
  recon_errors.reserve(calibration.size());
  for (const auto* w : calibration) recon_errors.push_back(reconstruction_error(*w));
  recon_reference_ = std::max(common::quantile(recon_errors, 0.95), 1e-9);

  std::vector<double> scores;
  scores.reserve(calibration.size());
  for (const auto* w : calibration) scores.push_back(anomaly_score(*w));
  threshold_ = common::quantile(scores, config_.threshold_quantile);
}

double MadGan::discrimination_score(const nn::Matrix& window) const {
  GO_EXPECTS(fitted_);
  nn::Lstm::Cache dc;
  nn::Dense::Cache hc;
  return 1.0 - discriminator_forward(discriminator_, window, dc, hc);
}

double MadGan::reconstruction_error(const nn::Matrix& window) const {
  GO_EXPECTS(fitted_);
  // Latent-space inversion on a scratch generator (keeps this const and
  // thread-safe; backward only touches the scratch's gradient buffers).
  Generator scratch = generator_;
  nn::Matrix z = inversion_z0_;

  double best = std::numeric_limits<double>::infinity();
  for (std::size_t step = 0; step < config_.inversion_steps; ++step) {
    nn::Lstm::Cache gc;
    nn::Dense::Cache pc;
    const nn::Matrix reconstructed = generator_forward(scratch, z, gc, pc);
    const nn::LossResult loss = nn::mse_loss(reconstructed, window);
    best = std::min(best, loss.value);

    const nn::Matrix grad_hidden = scratch.projection.backward(loss.grad, pc);
    const nn::Matrix grad_z = scratch.lstm.backward(grad_hidden, gc);
    for (std::size_t t = 0; t < z.rows(); ++t) {
      auto z_row = z.row(t);
      const auto g_row = grad_z.row(t);
      for (std::size_t c = 0; c < z_row.size(); ++c) {
        z_row[c] -= config_.inversion_lr * g_row[c];
      }
    }
  }
  return best;
}

double MadGan::anomaly_score(const nn::Matrix& window) const {
  GO_EXPECTS(fitted_);
  const double disc = discrimination_score(window);
  const double recon = reconstruction_error(window) / recon_reference_;
  return config_.dr_lambda * disc + (1.0 - config_.dr_lambda) * recon;
}

bool MadGan::flags(const nn::Matrix& window) const {
  return anomaly_score(window) > threshold_;
}

std::vector<double> MadGan::score_batch(std::span<const nn::Matrix> windows) const {
  if (windows.empty()) return {};
  GO_EXPECTS(fitted_);
  const std::size_t batch = windows.size();
  for (const nn::Matrix& w : windows) {
    GO_EXPECTS(w.rows() == config_.seq_len && w.cols() == config_.num_signals);
  }

  // Discrimination term: one packed pass over the whole batch, every window
  // from the zero state; the head consumes each final state as its own
  // (1 x H) row, exactly as the scalar path consumes hidden.row(T - 1).
  std::vector<const nn::Matrix*> sequences;
  sequences.reserve(batch);
  for (const nn::Matrix& w : windows) sequences.push_back(&w);
  const nn::Lstm::PrefixState zero = discriminator_.lstm.initial_state();
  const std::vector<const nn::Lstm::PrefixState*> starts(batch, &zero);
  const nn::Matrix final_states = discriminator_.lstm.run_batch(sequences, starts, 0);
  std::vector<double> disc(batch);
  nn::Matrix last(1, final_states.cols());
  for (std::size_t i = 0; i < batch; ++i) {
    const auto src = final_states.row(i);
    std::copy(src.begin(), src.end(), last.row(0).begin());
    disc[i] = 1.0 - discriminator_.head.forward(last)(0, 0);
  }

  // Reconstruction term: batched latent inversion, three amortizations per
  // gradient step — (1) the generator LSTM runs forward over every
  // window's latent trajectory as packed per-timestep GEMMs, (2) the
  // reverse pass computes input gradients only (the inversion never reads
  // parameter gradients, so backward()'s dW/dWh GEMMs are skipped and no
  // scratch net copy is needed), with the recurrent transport batched, and
  // (3) the projection gradient flows through the const backward_input.
  // Every per-window value is bit-identical to the scalar path's.
  std::vector<nn::Matrix> z(batch, inversion_z0_);
  std::vector<double> best(batch, std::numeric_limits<double>::infinity());
  std::vector<nn::Lstm::Cache> lstm_caches;
  std::vector<nn::Matrix> grad_hiddens(batch);
  for (std::size_t step = 0; step < config_.inversion_steps; ++step) {
    generator_.lstm.forward_batch_cached(z, lstm_caches);
    for (std::size_t i = 0; i < batch; ++i) {
      nn::Dense::Cache proj_cache;
      const nn::Matrix reconstructed =
          generator_.projection.forward_cached(lstm_caches[i].hidden, proj_cache);
      const nn::LossResult loss = nn::mse_loss(reconstructed, windows[i]);
      best[i] = std::min(best[i], loss.value);
      grad_hiddens[i] = generator_.projection.backward_input(loss.grad, proj_cache);
    }
    const std::vector<nn::Matrix> grad_z =
        generator_.lstm.backward_input_batch(grad_hiddens, lstm_caches);
    for (std::size_t i = 0; i < batch; ++i) {
      for (std::size_t t = 0; t < z[i].rows(); ++t) {
        auto z_row = z[i].row(t);
        const auto g_row = grad_z[i].row(t);
        for (std::size_t c = 0; c < z_row.size(); ++c) {
          z_row[c] -= config_.inversion_lr * g_row[c];
        }
      }
    }
  }

  std::vector<double> scores(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    // Same association as anomaly_score: normalize first, then weight.
    const double recon = best[i] / recon_reference_;
    scores[i] = config_.dr_lambda * disc[i] + (1.0 - config_.dr_lambda) * recon;
  }
  return scores;
}

nn::Matrix MadGan::generate(common::Rng& rng) const {
  nn::Lstm::Cache gc;
  nn::Dense::Cache pc;
  return generator_forward(generator_, sample_latent(rng), gc, pc);
}

nn::ParamRefs MadGan::gan_parameters() {
  nn::ParamRefs params = generator_.lstm.parameters();
  for (auto* p : generator_.projection.parameters()) params.push_back(p);
  for (auto* p : discriminator_.lstm.parameters()) params.push_back(p);
  for (auto* p : discriminator_.head.parameters()) params.push_back(p);
  return params;
}

void MadGan::save(std::ostream& out) const {
  nn::write_u32(out, kMadGanTag);
  nn::write_u64(out, config_.epochs);
  nn::write_u64(out, config_.num_signals);
  nn::write_u64(out, config_.seq_len);
  nn::write_u64(out, config_.latent_dim);
  nn::write_u64(out, config_.hidden);
  nn::write_u64(out, config_.batch_size);
  nn::write_f64(out, config_.learning_rate);
  nn::write_f64(out, config_.grad_clip);
  nn::write_f64(out, config_.dr_lambda);
  nn::write_u64(out, config_.inversion_steps);
  nn::write_f64(out, config_.inversion_lr);
  nn::write_f64(out, config_.threshold_quantile);
  nn::write_u64(out, config_.max_train_windows);
  nn::write_u64(out, config_.calibration_windows);
  nn::write_u64(out, config_.seed);
  // gan_parameters() is non-const by design (it hands out mutable buffer
  // pointers for the optimizer); write_parameters only reads the values.
  MadGan& self = const_cast<MadGan&>(*this);
  nn::write_parameters(out, self.gan_parameters());
  nn::write_matrix(out, inversion_z0_);
  nn::write_f64(out, recon_reference_);
  nn::write_f64(out, threshold_);
  nn::write_u32(out, fitted_ ? 1 : 0);
}

void MadGan::load(std::istream& in) {
  nn::expect_u32(in, kMadGanTag, "MAD-GAN detector tag");
  MadGanConfig config;
  config.epochs = nn::read_u64(in, "MAD-GAN epochs");
  config.num_signals = nn::read_u64(in, "MAD-GAN num signals");
  config.seq_len = nn::read_u64(in, "MAD-GAN seq len");
  config.latent_dim = nn::read_u64(in, "MAD-GAN latent dim");
  config.hidden = nn::read_u64(in, "MAD-GAN hidden");
  config.batch_size = nn::read_u64(in, "MAD-GAN batch size");
  config.learning_rate = nn::read_f64(in, "MAD-GAN learning rate");
  config.grad_clip = nn::read_f64(in, "MAD-GAN grad clip");
  config.dr_lambda = nn::read_f64(in, "MAD-GAN dr lambda");
  config.inversion_steps = nn::read_u64(in, "MAD-GAN inversion steps");
  config.inversion_lr = nn::read_f64(in, "MAD-GAN inversion lr");
  config.threshold_quantile = nn::read_f64(in, "MAD-GAN threshold quantile");
  config.max_train_windows = nn::read_u64(in, "MAD-GAN max train windows");
  config.calibration_windows = nn::read_u64(in, "MAD-GAN calibration windows");
  config.seed = nn::read_u64(in, "MAD-GAN seed");
  // Validate before reconstructing so a corrupt artifact surfaces as a
  // SerializationError, not a constructor precondition failure.
  if (config.epochs == 0 || config.num_signals == 0 || config.seq_len == 0 ||
      config.latent_dim == 0 || config.hidden == 0 ||
      !(config.dr_lambda >= 0.0 && config.dr_lambda <= 1.0) ||
      !(config.threshold_quantile > 0.0 && config.threshold_quantile < 1.0)) {
    throw common::SerializationError("MAD-GAN artifact carries an invalid config");
  }
  // Scoring-critical fields: a tampered inversion_steps would make the
  // first anomaly_score() run ~forever; a non-finite inversion_lr would
  // NaN-poison every score (flags_from_score(NaN) = silently never flags).
  if (config.inversion_steps == 0 || config.inversion_steps > 1'000'000 ||
      !std::isfinite(config.inversion_lr) || config.inversion_lr <= 0.0 ||
      !std::isfinite(config.dr_lambda)) {
    throw common::SerializationError("MAD-GAN artifact carries an invalid scoring config");
  }
  // Rebuild nets at the artifact's shapes, then restore into the copy so
  // *this stays untouched if any later read fails.
  MadGan fresh(config);
  nn::read_parameters(in, fresh.gan_parameters());
  nn::Matrix z0 = nn::read_matrix(in);
  if (z0.rows() != config.seq_len || z0.cols() != config.latent_dim) {
    throw common::SerializationError("MAD-GAN artifact inversion-start shape mismatch");
  }
  fresh.inversion_z0_ = std::move(z0);
  fresh.recon_reference_ = nn::read_f64(in, "MAD-GAN recon reference");
  fresh.threshold_ = nn::read_f64(in, "MAD-GAN threshold");
  fresh.fitted_ = nn::read_u32(in, "MAD-GAN fitted flag") != 0;
  *this = std::move(fresh);
}

}  // namespace goodones::detect
