#include "attack/evasion.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace goodones::attack {

EvasionAttack::EvasionAttack(AttackConfig config) : config_(config) {
  GO_EXPECTS(config_.max_edits > 0);
  GO_EXPECTS(config_.harm_threshold > 0.0);
  GO_EXPECTS(config_.value_candidates >= 2);
  GO_EXPECTS(config_.baseline_box_min < config_.box_max);
  GO_EXPECTS(config_.active_box_min < config_.box_max);
}

double EvasionAttack::window_jitter(const data::Window& window) noexcept {
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  for (std::size_t t = 0; t < window.features.rows(); ++t) {
    for (const double v : window.features.row(t)) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      state ^= bits;
      (void)common::splitmix64_next(state);
    }
  }
  return static_cast<double>(common::splitmix64_next(state) >> 11) * 0x1.0p-53;
}

std::vector<double> EvasionAttack::candidate_values(data::Regime regime,
                                                    double jitter) const {
  const double lo = config_.box_min(regime);
  const double hi = config_.box_max;
  std::vector<double> values(config_.value_candidates);
  // Jittered interior grid, but the box maximum is always available: the
  // escalating attacker's strongest move must not depend on the jitter.
  const double spacing = (hi - lo) / static_cast<double>(values.size());
  for (std::size_t i = 0; i + 1 < values.size(); ++i) {
    values[i] = lo + spacing * (static_cast<double>(i) + jitter);
  }
  values.back() = hi;
  return values;
}

namespace {

/// Stepwise state machine of one window's greedy search, kept as an object
/// so EvasionAttack can advance many windows' searches in lockstep and merge
/// their candidate probes into one predict_batch call per round. consume()
/// makes every search decision.
class OrderedGreedySearch {
 public:
  /// `values` is the ascending candidate grid, `benign_prediction` the
  /// model output on the clean window (already counted as one probe).
  OrderedGreedySearch(const AttackConfig& config, const data::Window& window,
                      std::vector<double> values, double benign_prediction);

  bool done() const noexcept { return done_; }
  /// Timestep the next consume() call decides. Only valid while !done().
  /// Most recent samples influence the forecast most: edit back to front.
  std::size_t pending_row() const noexcept { return rows_ - 1 - k_; }
  /// The current (partially edited) window candidate probes must copy.
  const nn::Matrix& features() const noexcept { return result_.adversarial_features; }
  const std::vector<double>& values() const noexcept { return values_; }
  /// Applies one position's decision given the candidate predictions (in
  /// values() order, one per candidate) and advances to the next position.
  void consume(std::span<const double> candidate_preds);
  /// The final outcome; only meaningful once done().
  AttackResult take_result() { return std::move(result_); }

 private:
  std::size_t target_channel_;
  double stealth_fraction_;
  double threshold_;
  std::size_t rows_;
  std::vector<double> values_;
  std::size_t budget_;
  std::size_t k_ = 0;
  bool done_ = false;
  AttackResult result_;
};

OrderedGreedySearch::OrderedGreedySearch(const AttackConfig& config,
                                         const data::Window& window,
                                         std::vector<double> values,
                                         double benign_prediction)
    : target_channel_(config.target_channel),
      stealth_fraction_(config.stealth_fraction),
      threshold_(config.success_threshold(window.regime)),
      rows_(window.features.rows()),
      values_(std::move(values)),
      budget_(std::min<std::size_t>(config.max_edits, rows_)) {
  result_.benign_prediction = benign_prediction;
  result_.probes = 1;
  result_.adversarial_features = window.features;
  result_.adversarial_prediction = benign_prediction;
  if (benign_prediction > threshold_) {
    result_.success = true;  // the model already predicts past the harm level
    done_ = true;
  }
}

void OrderedGreedySearch::consume(std::span<const double> candidate_preds) {
  GO_EXPECTS(!done_);
  GO_EXPECTS(candidate_preds.size() == values_.size());
  result_.probes += candidate_preds.size();
  const std::size_t t = pending_row();

  // Stealth-first, as URET's minimal-perturbation search: if any candidate
  // value at this timestep achieves the attacker's goal, take the *smallest*
  // such value (it blends into the victim's benign abnormal range).
  // Otherwise escalate — but stealthily: among the candidates that improve
  // the forecast, take the smallest one that captures most of the
  // achievable gain rather than always slamming the box maximum.
  const double base_pred = result_.adversarial_prediction;
  double best_pred = base_pred;
  double best_value = result_.adversarial_features(t, target_channel_);
  for (std::size_t vi = 0; vi < values_.size(); ++vi) {  // ascending
    const double pred = candidate_preds[vi];
    if (pred > threshold_) {
      result_.adversarial_features(t, target_channel_) = values_[vi];
      result_.adversarial_prediction = pred;
      ++result_.edits;
      result_.success = true;
      done_ = true;
      return;
    }
    if (pred > best_pred) {
      best_pred = pred;
      best_value = values_[vi];
    }
  }
  if (best_pred > base_pred) {
    // Goal-adaptive stealth (see AttackConfig::stealth_fraction): when a
    // single edit can cover a substantial fraction of the remaining
    // distance to the threshold, take the smallest candidate that does;
    // otherwise escalate with the full best candidate.
    double chosen_value = best_value;
    double chosen_pred = best_pred;
    if (stealth_fraction_ > 0.0) {
      const double required = base_pred + stealth_fraction_ * (threshold_ - base_pred);
      if (best_pred >= required) {
        for (std::size_t vi = 0; vi < values_.size(); ++vi) {
          if (candidate_preds[vi] >= required) {
            chosen_value = values_[vi];
            chosen_pred = candidate_preds[vi];
            break;
          }
        }
      }
    }
    result_.adversarial_features(t, target_channel_) = chosen_value;
    result_.adversarial_prediction = chosen_pred;
    ++result_.edits;
  }
  if (++k_ == budget_) {
    result_.success = result_.adversarial_prediction > threshold_;
    done_ = true;
  }
}

}  // namespace

AttackResult EvasionAttack::attack_window(const predict::Forecaster& model,
                                          const data::Window& window) const {
  const data::Window* const windows[] = {&window};
  AttackResult result;
  attack_windows(model, windows, std::span<AttackResult>(&result, 1));
  return result;
}

void EvasionAttack::attack_windows(const predict::Forecaster& model,
                                   std::span<const data::Window* const> windows,
                                   std::span<AttackResult> results) const {
  GO_EXPECTS(windows.size() == results.size());
  for (const data::Window* window : windows) {
    GO_EXPECTS(config_.target_channel < window->features.cols());
    GO_EXPECTS(window->features.rows() > 0);
  }

  const std::size_t n = windows.size();

  // Merged benign baseline: one batch over every window's clean features.
  std::vector<const nn::Matrix*> benign_features;
  benign_features.reserve(n);
  for (const data::Window* w : windows) benign_features.push_back(&w->features);
  const std::vector<double> benign = model.predict_batch(benign_features);

  std::vector<OrderedGreedySearch> searches;
  searches.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const data::Window& w = *windows[i];
    searches.emplace_back(config_, w, candidate_values(w.regime, window_jitter(w)),
                          benign[i]);
  }

  // Each round gathers the still-active searches' candidate probes (one per
  // candidate value per window) into a single predict_batch call, so the
  // model's batched path merges prefix clusters across base windows. The
  // probe pool persists across rounds: same-shape copy-assignment into an
  // existing Matrix reuses its buffer, so rounds cost memcpys, not
  // allocations. `used` probes lead the pool each round.
  std::vector<nn::Matrix> probes;
  std::vector<std::size_t> active;
  while (true) {
    active.clear();
    std::size_t used = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (searches[i].done()) continue;
      active.push_back(i);
      const std::size_t t = searches[i].pending_row();
      for (const double value : searches[i].values()) {
        if (used < probes.size()) {
          probes[used] = searches[i].features();
        } else {
          probes.push_back(searches[i].features());
        }
        probes[used](t, config_.target_channel) = value;
        ++used;
      }
    }
    if (active.empty()) break;
    const std::vector<double> preds =
        model.predict_batch(std::span<const nn::Matrix>(probes.data(), used));
    std::size_t offset = 0;
    for (const std::size_t i : active) {
      const std::size_t count = searches[i].values().size();
      searches[i].consume(std::span<const double>(preds).subspan(offset, count));
      offset += count;
    }
  }
  for (std::size_t i = 0; i < n; ++i) results[i] = searches[i].take_result();
}

}  // namespace goodones::attack
