// Bidirectional-LSTM forecaster (the surrogate target model).
//
// Architecture: BiLSTM over the (seq_len x channels) telemetry window,
// last-timestep concatenated state -> tanh dense -> linear dense ->
// normalized target, inverse-scaled to raw units. Mirrors the
// personalized/aggregate BiLSTM models of Rubin-Falcone et al. that the
// paper attacks; the channel count and target channel come from the domain.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <vector>

#include "data/scaler.hpp"
#include "data/window.hpp"
#include "nn/dense.hpp"
#include "nn/lstm.hpp"
#include "predict/forecaster.hpp"

namespace goodones::predict {

struct ForecasterConfig {
  std::size_t hidden = 24;        ///< LSTM units per direction
  std::size_t head_hidden = 16;   ///< width of the dense head
  std::size_t epochs = 6;
  std::size_t batch_size = 32;
  double learning_rate = 3e-3;
  double grad_clip = 1.0;         ///< global-norm gradient clipping
  /// Channel of the forecast target within the telemetry matrix (used for
  /// target scaling); the domain adapter sets it.
  std::size_t target_channel = 0;
  std::uint64_t seed = 7;
};

class BiLstmForecaster final : public Forecaster {
 public:
  /// Builds an untrained model; `scaler` must already be fitted on the
  /// intended training distribution (its feature count fixes the channel
  /// count of every window this model accepts).
  BiLstmForecaster(const ForecasterConfig& config, data::MinMaxScaler scaler);

  /// Trains on forecasting windows (raw units). Returns the final-epoch
  /// mean training MSE in *normalized* units.
  double train(const std::vector<data::Window>& windows);

  double predict(const nn::Matrix& raw_features) const override;

  /// True batched inference path: probes are grouped by shape, then split
  /// into prefix clusters (a cross-window campaign batch merges probes of
  /// several base windows, so one global prefix is useless but per-base
  /// prefixes are long). Each cluster's shared rows are consumed once —
  /// served from a trail cache that remembers the state after EVERY prefix
  /// row — and all cluster tails with equal prefix length run as one packed
  /// batch GEMM. Bit-compatible with the scalar predict() path under the
  /// default double precision. Campaign probes pass nn::Precision::kFast,
  /// which runs the LSTM gates in the fast lane, while exact verification
  /// keeps using the default on the same shared const model. The
  /// contiguous-window form (Forecaster's adapter) lands here too, so both
  /// forms are bitwise-identical.
  using Forecaster::predict_batch;
  std::vector<double> predict_batch(
      std::span<const nn::Matrix* const> raw_windows,
      nn::Precision precision = nn::Precision::kDouble) const override;

  /// RMSE in raw units over a window set (evaluation helper).
  double evaluate_rmse(const std::vector<data::Window>& windows) const;

  const data::MinMaxScaler& scaler() const noexcept { return scaler_; }
  const ForecasterConfig& config() const noexcept { return config_; }
  std::size_t num_channels() const noexcept { return scaler_.num_features(); }

  /// Versioned model artifact: architecture config + fitted scaler + all
  /// parameters in one stream. load_artifact needs no pre-built model of
  /// matching shape — the artifact is self-describing, which is what the
  /// serving-path ModelRegistry persists.
  void save_artifact(std::ostream& out) const;
  /// Reconstructs the full model (bit-identical predictions, no retraining).
  /// Throws common::SerializationError on malformed input.
  static BiLstmForecaster load_artifact(std::istream& in);

 private:
  nn::ParamRefs parameters();

  /// Activations of one forward pass, as the backward passes consume them.
  struct ForwardCache {
    nn::Lstm::Cache fwd;  ///< forward cell over all T rows
    nn::Lstm::Cache bwd;  ///< backward cell's single step, on row T - 1
    nn::Dense::Cache head1;
    nn::Dense::Cache head2;
  };

  /// Forward in normalized space; fills `cache` and returns the scalar. The
  /// head reads only the last timestep, where the backward cell has taken
  /// just its first reversed step (on row T - 1), so that one step is all
  /// of the backward cell that runs.
  double forward_normalized(const nn::Matrix& scaled, ForwardCache& cache) const;

  /// Forward-cell recurrent state after `prefix_rows` rows of `scaled`,
  /// served from (and recorded into) the prefix trail cache. Bit-identical
  /// to advance() over those rows from the zero state.
  nn::Lstm::PrefixState fwd_prefix_state(const nn::Matrix& scaled,
                                         std::size_t prefix_rows) const;
  /// Drops cached prefix trails; must run after anything that mutates the
  /// weights.
  void invalidate_scoring_state();

  /// Memo of forward-cell prefix trails, content-addressed by the scaled
  /// prefix rows. A greedy campaign probes the same base window at every
  /// edit position; successive batches hit the trail (the state after EVERY
  /// row) instead of re-advancing an ever-different prefix from scratch. A
  /// hit is validated bitwise against the cached rows, so it returns exactly
  /// the state advance() would recompute.
  struct PrefixCache {
    struct Entry {
      nn::Matrix rows;                           ///< cached scaled prefix rows
      std::vector<nn::Lstm::PrefixState> trail;  ///< trail[k] = state after k rows
    };
    static constexpr std::size_t kCapacity = 64;
    std::mutex mu;
    /// Kept in MRU order: most recently used at the back, eviction pops the
    /// front. Lookups scan backward and stop at the first full hit.
    std::vector<Entry> entries;

    PrefixCache() = default;
    // The cache is a memo, not model state: copies start cold (and the
    // mutex is not copyable anyway).
    PrefixCache(const PrefixCache&) {}
    PrefixCache& operator=(const PrefixCache&) { return *this; }
  };

  ForecasterConfig config_;
  data::MinMaxScaler scaler_;
  // Declared before the layers so member-initialization order guarantees a
  // deterministic weight-init stream derived from the config seed.
  common::Rng init_rng_;
  // The two directions: the forward cell runs over all T rows; the head
  // reads only the backward cell's first reversed step (on row T - 1).
  nn::Lstm fwd_cell_;
  nn::Lstm bwd_cell_;
  nn::Dense head1_;
  nn::Dense head2_;
  mutable PrefixCache prefix_cache_;
};

/// Fits the forecaster feature scaler on a training series, pinning the
/// target channel to the domain's physiological/operational range so all
/// models share one target scale (required for cross-entity risk
/// comparison).
data::MinMaxScaler fit_forecaster_scaler(const nn::Matrix& train_values,
                                         std::size_t target_channel,
                                         double target_min, double target_max);

}  // namespace goodones::predict
