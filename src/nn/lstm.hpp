// Single-direction LSTM over a full sequence, with exact backpropagation
// through time that also yields gradients with respect to the *inputs*.
//
// Input gradients serve MAD-GAN only: its DR-score inverts the generator by
// gradient descent in latent space. Training reads parameter gradients.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/matrix.hpp"
#include "nn/param.hpp"
#include "nn/simd.hpp"

namespace goodones::nn {

class Lstm {
 public:
  /// Weights Xavier-initialized from `rng`; forget-gate bias starts at 1
  /// (the standard initialization that keeps early gradients flowing).
  Lstm(std::size_t input_dim, std::size_t hidden_dim, common::Rng& rng);

  std::size_t input_dim() const noexcept { return input_dim_; }
  std::size_t hidden_dim() const noexcept { return hidden_dim_; }

  /// Runs the sequence x (T x input_dim) from zero initial state and
  /// returns all hidden states (T x hidden_dim).
  Matrix forward(const Matrix& x) const;

  /// Per-sequence activation cache captured by forward_cached.
  struct Cache {
    Matrix input;      // T x D
    Matrix gate_i;     // T x H, post-sigmoid
    Matrix gate_f;     // T x H, post-sigmoid
    Matrix gate_g;     // T x H, post-tanh
    Matrix gate_o;     // T x H, post-sigmoid
    Matrix cell;       // T x H, c_t
    Matrix cell_tanh;  // T x H, tanh(c_t)
    Matrix hidden;     // T x H, h_t
  };

  Matrix forward_cached(const Matrix& x, Cache& cache) const;

  /// Snapshot of the recurrent (hidden, cell) state after consuming some
  /// prefix of a sequence. Candidate probes that share a prefix with a base
  /// window replay from the snapshot instead of from t = 0.
  struct PrefixState {
    std::size_t steps = 0;       ///< timesteps already consumed
    std::vector<double> hidden;  ///< H values
    std::vector<double> cell;    ///< H values
  };

  /// The zero state every sequence starts from.
  PrefixState initial_state() const;

  /// Advances `state` in place over all rows of `x` (the shared prefix).
  /// Bit-identical to the corresponding steps of forward(). When `trail` is
  /// given, a snapshot of the state after EVERY consumed row is appended to
  /// it (x.rows() entries): the per-position prefix cache in
  /// BiLstmForecaster replays greedy searches from these snapshots instead
  /// of re-advancing the prefix per probe batch.
  void advance(PrefixState& state, const Matrix& x,
               std::vector<PrefixState>* trail = nullptr) const;

  /// Batched inference: B equal-length sequences, sequence i resuming from
  /// its own snapshot *starts[i] at row `first_row` (rows before it are the
  /// prefix the snapshot already consumed; pass initial_state() with
  /// first_row == 0 for whole sequences). Per timestep the batch is
  /// processed as one packed (B x 4H) pre-activation GEMM, so one call can
  /// span several prefix clusters: a cross-window campaign batch merges
  /// every cluster's tails into it. Returns the final hidden state of each
  /// sequence as rows of a (B x H) matrix — bit-identical to running
  /// forward() over each full sequence and taking the last row.
  /// first_row == rows() returns the snapshots. Precision::kFast keeps the
  /// double GEMMs and swaps the gate transcendentals for the vectorized
  /// polynomial kernels — an approximation lane, not bit-stable against the
  /// kDouble reference.
  Matrix run_batch(std::span<const Matrix* const> sequences,
                   std::span<const PrefixState* const> starts, std::size_t first_row,
                   Precision precision = Precision::kDouble) const;

  /// One LSTM step from the zero state over each row of `rows` (N x D);
  /// returns the (N x H) hidden states. Bit-identical to advance() over a
  /// single-row matrix per row — this batches the backward cell's one-step
  /// evaluation across every probe of a scoring batch.
  Matrix first_step_batch(const Matrix& rows,
                          Precision precision = Precision::kDouble) const;

  /// Batched forward over B equal-length sequences from the zero state that
  /// also fills one scalar-compatible Cache per sequence, so each sequence
  /// can still be backpropagated individually with backward(). The input
  /// projection of the whole batch runs as one packed GEMM per call and the
  /// recurrent step as one (B x 4H) GEMM per timestep. Outputs and caches
  /// are bit-identical to calling forward_cached() per sequence — this is
  /// what lets MAD-GAN batch its latent inversion across a request's
  /// windows without perturbing a single score.
  void forward_batch_cached(std::span<const Matrix> sequences,
                            std::vector<Cache>& caches) const;

  /// Backpropagation through time. `grad_hidden` holds dLoss/dh_t for every
  /// timestep (T x hidden_dim; rows may be zero when only some steps feed
  /// the loss). Accumulates parameter gradients and returns dLoss/dx.
  Matrix backward(const Matrix& grad_hidden, const Cache& cache);

  /// backward() without its final dX GEMM, for training, which never reads
  /// input gradients: accumulates the same parameter gradients and returns
  /// dLoss/d(pre-activations) (T x 4H), from which backward() derives dX.
  Matrix backward_params(const Matrix& grad_hidden, const Cache& cache);

  /// Batched input-gradient-only BPTT over B cached same-length sequences:
  /// returns dLoss/dx per sequence WITHOUT touching parameter gradients
  /// (hence const). MAD-GAN's latent inversion only ever consumes dX — the
  /// parameter-gradient GEMMs backward() also runs are pure waste there,
  /// and skipping them plus batching the per-timestep recurrent transport
  /// (one (B x 4H) x Wh^T GEMM per step) is where the batched inversion's
  /// speedup comes from. Each returned dX is bit-identical to what
  /// backward() returns for that sequence.
  std::vector<Matrix> backward_input_batch(std::span<const Matrix> grad_hidden,
                                           std::span<const Cache> caches) const;

  ParamRefs parameters() noexcept { return {&w_x_, &w_h_, &b_}; }

  ParamBuffer& weight_input() noexcept { return w_x_; }
  ParamBuffer& weight_hidden() noexcept { return w_h_; }
  ParamBuffer& bias() noexcept { return b_; }
  const ParamBuffer& weight_input() const noexcept { return w_x_; }
  const ParamBuffer& weight_hidden() const noexcept { return w_h_; }
  const ParamBuffer& bias() const noexcept { return b_; }

 private:
  std::size_t input_dim_;
  std::size_t hidden_dim_;
  // Gate order within the fused 4H dimension: [input, forget, cell, output].
  ParamBuffer w_x_;  // D x 4H
  ParamBuffer w_h_;  // H x 4H
  ParamBuffer b_;    // 1 x 4H
};

}  // namespace goodones::nn
