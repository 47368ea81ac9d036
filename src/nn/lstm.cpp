#include "nn/lstm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "nn/activations.hpp"
#include "nn/simd.hpp"

namespace goodones::nn {

Lstm::Lstm(std::size_t input_dim, std::size_t hidden_dim, common::Rng& rng)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      w_x_(input_dim, 4 * hidden_dim),
      w_h_(hidden_dim, 4 * hidden_dim),
      b_(1, 4 * hidden_dim) {
  GO_EXPECTS(input_dim > 0 && hidden_dim > 0);
  w_x_.init_xavier(rng, input_dim, hidden_dim);
  w_h_.init_xavier(rng, hidden_dim, hidden_dim);
  // Forget-gate bias = 1 so cells retain state early in training.
  for (std::size_t j = 0; j < hidden_dim_; ++j) b_.value(0, hidden_dim_ + j) = 1.0;
}

Matrix Lstm::forward(const Matrix& x) const {
  Cache scratch;
  return forward_cached(x, scratch);
}

Matrix Lstm::forward_cached(const Matrix& x, Cache& cache) const {
  GO_EXPECTS(x.cols() == input_dim_);
  GO_EXPECTS(x.rows() > 0);
  const std::size_t steps = x.rows();
  const std::size_t h = hidden_dim_;

  cache.input = x;
  cache.gate_i = Matrix(steps, h);
  cache.gate_f = Matrix(steps, h);
  cache.gate_g = Matrix(steps, h);
  cache.gate_o = Matrix(steps, h);
  cache.cell = Matrix(steps, h);
  cache.cell_tanh = Matrix(steps, h);
  cache.hidden = Matrix(steps, h);

  // Precompute x * Wx for all timesteps at once (the big matmul).
  const Matrix x_proj = matmul(x, w_x_.value);
  const simd::KernelTable& kt = simd::active();

  std::vector<double> h_prev(h, 0.0);
  std::vector<double> c_prev(h, 0.0);
  std::vector<double> pre(4 * h);

  for (std::size_t t = 0; t < steps; ++t) {
    // pre = x_proj[t] + b + h_prev * Wh. The recurrent term is skipped on
    // the first step (h_prev is zero), matching forward_batch_cached.
    const auto xp = x_proj.row(t);
    for (std::size_t j = 0; j < 4 * h; ++j) pre[j] = xp[j] + b_.value(0, j);
    if (t > 0) kt.matmul_acc(h_prev.data(), w_h_.value.data(), pre.data(), 1, h, 4 * h);

    kt.lstm_gates_cached(pre.data(), h, cache.gate_i.row(t).data(),
                         cache.gate_f.row(t).data(), cache.gate_g.row(t).data(),
                         cache.gate_o.row(t).data(), cache.cell.row(t).data(),
                         cache.cell_tanh.row(t).data(), cache.hidden.row(t).data(),
                         c_prev.data(), h_prev.data());
  }
  return cache.hidden;
}

Lstm::PrefixState Lstm::initial_state() const {
  PrefixState state;
  state.hidden.assign(hidden_dim_, 0.0);
  state.cell.assign(hidden_dim_, 0.0);
  return state;
}

void Lstm::advance(PrefixState& state, const Matrix& x,
                   std::vector<PrefixState>* trail) const {
  GO_EXPECTS(x.cols() == input_dim_);
  GO_EXPECTS(state.hidden.size() == hidden_dim_ && state.cell.size() == hidden_dim_);
  if (x.rows() == 0) return;
  const std::size_t h = hidden_dim_;
  const simd::KernelTable& kt = simd::active();

  // Same arithmetic and accumulation order as forward_cached, minus the
  // per-gate caches: the snapshot must be bit-identical to the scalar path.
  const Matrix x_proj = matmul(x, w_x_.value);
  std::vector<double> pre(4 * h);
  for (std::size_t t = 0; t < x.rows(); ++t) {
    const auto xp = x_proj.row(t);
    for (std::size_t j = 0; j < 4 * h; ++j) pre[j] = xp[j] + b_.value(0, j);
    // A fresh state's first step has a zero hidden vector — skip its GEMM,
    // like the batched paths do.
    if (t > 0 || state.steps > 0) {
      kt.matmul_acc(state.hidden.data(), w_h_.value.data(), pre.data(), 1, h, 4 * h);
    }
    kt.lstm_gates(pre.data(), h, state.cell.data(), state.hidden.data());
    if (trail != nullptr) {
      PrefixState snapshot;
      snapshot.steps = state.steps + t + 1;
      snapshot.hidden = state.hidden;
      snapshot.cell = state.cell;
      trail->push_back(std::move(snapshot));
    }
  }
  state.steps += x.rows();
}

Matrix Lstm::run_batch(std::span<const Matrix* const> sequences,
                       std::span<const PrefixState* const> starts,
                       std::size_t first_row) const {
  GO_EXPECTS(!sequences.empty());
  GO_EXPECTS(starts.size() == sequences.size());
  const std::size_t batch = sequences.size();
  GO_EXPECTS(first_row <= sequences.front()->rows());
  const std::size_t steps = sequences.front()->rows() - first_row;
  for (const Matrix* s : sequences) {
    GO_EXPECTS(s->rows() == first_row + steps && s->cols() == input_dim_);
  }
  const std::size_t h = hidden_dim_;
  const simd::KernelTable& kt = simd::active();

  Matrix h_state(batch, h);
  Matrix c_state(batch, h);
  bool any_started = false;
  for (std::size_t i = 0; i < batch; ++i) {
    const PrefixState& start = *starts[i];
    GO_EXPECTS(start.hidden.size() == h && start.cell.size() == h);
    std::copy(start.hidden.begin(), start.hidden.end(), h_state.row(i).begin());
    std::copy(start.cell.begin(), start.cell.end(), c_state.row(i).begin());
    any_started = any_started || start.steps > 0;
  }
  if (steps == 0) return h_state;

  // One packed GEMM projects every sequence's inputs (plus bias) at once;
  // rows [t*B, (t+1)*B) of the result are timestep t's batch block.
  const Matrix packed = pack_step_major(sequences, first_row, steps);
  Matrix pre_proj(packed.rows(), 4 * h);
  kt.matmul_bias(packed.data(), w_x_.value.data(), b_.value.data(), pre_proj.data(),
                 packed.rows(), input_dim_, 4 * h);

  Matrix pre(batch, 4 * h);
  for (std::size_t t = 0; t < steps; ++t) {
    // Timestep t's batch block is contiguous in the packed projection.
    std::memcpy(pre.data(), pre_proj.data() + t * batch * 4 * h,
                batch * 4 * h * sizeof(double));
    // pre += h_state * Wh: batched recurrent GEMM. When every start is the
    // fresh zero state the first step has nothing to add — same skip as the
    // scalar step's t == 0.
    if (t > 0 || any_started) {
      kt.matmul_acc(h_state.data(), w_h_.value.data(), pre.data(), batch, h, 4 * h);
    }
    for (std::size_t i = 0; i < batch; ++i) {
      kt.lstm_gates(pre.row(i).data(), h, c_state.row(i).data(), h_state.row(i).data());
    }
  }
  return h_state;
}

Matrix Lstm::first_step_batch(const Matrix& rows) const {
  GO_EXPECTS(rows.cols() == input_dim_);
  const std::size_t n = rows.rows();
  const std::size_t h = hidden_dim_;
  const simd::KernelTable& kt = simd::active();

  // From the zero state there is no recurrent term: one projection GEMM and
  // one gate pass per row gives every sequence's first hidden state.
  Matrix pre(n, 4 * h);
  kt.matmul_bias(rows.data(), w_x_.value.data(), b_.value.data(), pre.data(), n, input_dim_,
                 4 * h);
  Matrix h_state(n, h);
  Matrix c_state(n, h);
  for (std::size_t i = 0; i < n; ++i) {
    kt.lstm_gates(pre.row(i).data(), h, c_state.row(i).data(), h_state.row(i).data());
  }
  return h_state;
}

void Lstm::forward_batch_cached(std::span<const Matrix> sequences,
                                std::vector<Cache>& caches) const {
  GO_EXPECTS(!sequences.empty());
  const std::size_t batch = sequences.size();
  const std::size_t steps = sequences.front().rows();
  GO_EXPECTS(steps > 0);
  for (const Matrix& s : sequences) {
    GO_EXPECTS(s.rows() == steps && s.cols() == input_dim_);
  }
  const std::size_t h = hidden_dim_;

  caches.resize(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    Cache& cache = caches[i];
    cache.input = sequences[i];
    // Reuse the buffers across calls when the shape is unchanged: an
    // inversion loop calls this every gradient step with identical shapes,
    // and the realloc churn would otherwise eat the batching win.
    if (cache.hidden.rows() != steps || cache.hidden.cols() != h) {
      cache.gate_i = Matrix(steps, h);
      cache.gate_f = Matrix(steps, h);
      cache.gate_g = Matrix(steps, h);
      cache.gate_o = Matrix(steps, h);
      cache.cell = Matrix(steps, h);
      cache.cell_tanh = Matrix(steps, h);
      cache.hidden = Matrix(steps, h);
    }
  }

  // Same packed layout and accumulation order as run_batch: one GEMM for
  // every sequence's input projection, one recurrent GEMM per timestep.
  std::vector<const Matrix*> seq_ptrs;
  seq_ptrs.reserve(batch);
  for (const Matrix& s : sequences) seq_ptrs.push_back(&s);
  const Matrix packed = pack_step_major(seq_ptrs, 0, steps);
  const Matrix pre_proj = matmul_bias(packed, w_x_.value, b_.value);
  const simd::KernelTable& kt = simd::active();

  Matrix h_state(batch, h);
  Matrix c_state(batch, h);
  Matrix pre(batch, 4 * h);
  for (std::size_t t = 0; t < steps; ++t) {
    std::memcpy(pre.data(), pre_proj.data() + t * batch * 4 * h,
                batch * 4 * h * sizeof(double));
    if (t > 0) matmul_accumulate(h_state, w_h_.value, pre);
    for (std::size_t i = 0; i < batch; ++i) {
      Cache& cache = caches[i];
      kt.lstm_gates_cached(pre.row(i).data(), h, cache.gate_i.row(t).data(),
                           cache.gate_f.row(t).data(), cache.gate_g.row(t).data(),
                           cache.gate_o.row(t).data(), cache.cell.row(t).data(),
                           cache.cell_tanh.row(t).data(), cache.hidden.row(t).data(),
                           c_state.row(i).data(), h_state.row(i).data());
    }
  }
}

Matrix Lstm::backward(const Matrix& grad_hidden, const Cache& cache) {
  // dX = dpre * Wx^T.
  return matmul_trans_b(backward_params(grad_hidden, cache), w_x_.value);
}

Matrix Lstm::backward_params(const Matrix& grad_hidden, const Cache& cache) {
  const std::size_t steps = cache.input.rows();
  const std::size_t h = hidden_dim_;
  GO_EXPECTS(grad_hidden.rows() == steps && grad_hidden.cols() == h);

  Matrix grad_pre_all(steps, 4 * h);  // dLoss/d(pre-activations), all steps
  std::vector<double> dh_next(h, 0.0);
  std::vector<double> dc_next(h, 0.0);
  const simd::KernelTable& kt = simd::active();

  for (std::size_t t = steps; t-- > 0;) {
    const auto gi = cache.gate_i.row(t);
    const auto gf = cache.gate_f.row(t);
    const auto gg = cache.gate_g.row(t);
    const auto go = cache.gate_o.row(t);
    const auto ctt = cache.cell_tanh.row(t);
    const auto gh = grad_hidden.row(t);
    auto dpre = grad_pre_all.row(t);

    for (std::size_t j = 0; j < h; ++j) {
      const double dh = gh[j] + dh_next[j];
      const double dct = dh * go[j] * tanh_grad_from_output(ctt[j]) + dc_next[j];
      const double c_prev = t > 0 ? cache.cell(t - 1, j) : 0.0;

      const double di = dct * gg[j];
      const double df = dct * c_prev;
      const double dg = dct * gi[j];
      const double do_ = dh * ctt[j];

      dpre[j] = di * sigmoid_grad_from_output(gi[j]);
      dpre[h + j] = df * sigmoid_grad_from_output(gf[j]);
      dpre[2 * h + j] = dg * tanh_grad_from_output(gg[j]);
      dpre[3 * h + j] = do_ * sigmoid_grad_from_output(go[j]);

      dc_next[j] = dct * gf[j];
    }

    // dh_next = dpre * Wh^T (contribution to the previous hidden state) —
    // each element is the same ascending-j dot product as before.
    std::fill(dh_next.begin(), dh_next.end(), 0.0);
    kt.matmul_tb_acc(dpre.data(), w_h_.value.data(), dh_next.data(), 1, 4 * h, h);
  }

  // Parameter gradients, batched over time:
  //   dWx += x^T * dpre ; db += column sums of dpre ;
  //   dWh += h_{t-1}^T * dpre (shift hidden by one step).
  matmul_trans_a_accumulate(cache.input, grad_pre_all, w_x_.grad);
  for (std::size_t t = 0; t < steps; ++t) {
    axpy(1.0, grad_pre_all.row(t), b_.grad.row(0));
  }
  for (std::size_t t = 1; t < steps; ++t) {
    // Rank-1 update dWh += h_{t-1}^T * dpre_t, branchless.
    kt.matmul_ta_acc(cache.hidden.row(t - 1).data(), grad_pre_all.row(t).data(),
                     w_h_.grad.data(), 1, h, 4 * h);
  }
  return grad_pre_all;
}

std::vector<Matrix> Lstm::backward_input_batch(std::span<const Matrix> grad_hidden,
                                               std::span<const Cache> caches) const {
  GO_EXPECTS(!caches.empty());
  GO_EXPECTS(grad_hidden.size() == caches.size());
  const std::size_t batch = caches.size();
  const std::size_t steps = caches.front().input.rows();
  const std::size_t h = hidden_dim_;
  for (std::size_t i = 0; i < batch; ++i) {
    GO_EXPECTS(caches[i].input.rows() == steps);
    GO_EXPECTS(grad_hidden[i].rows() == steps && grad_hidden[i].cols() == h);
  }

  std::vector<Matrix> grad_pre_all(batch, Matrix(steps, 4 * h));
  Matrix dpre_t(batch, 4 * h);   // this timestep's pre-activation grads, packed
  Matrix dh_next(batch, h);      // zero-initialized, like the scalar path
  Matrix dc_next(batch, h);

  for (std::size_t t = steps; t-- > 0;) {
    for (std::size_t i = 0; i < batch; ++i) {
      const Cache& cache = caches[i];
      const auto gi = cache.gate_i.row(t);
      const auto gf = cache.gate_f.row(t);
      const auto gg = cache.gate_g.row(t);
      const auto go = cache.gate_o.row(t);
      const auto ctt = cache.cell_tanh.row(t);
      const auto gh = grad_hidden[i].row(t);
      auto dpre = dpre_t.row(i);
      auto dhn = dh_next.row(i);
      auto dcn = dc_next.row(i);

      // Same per-element recurrence as backward().
      for (std::size_t j = 0; j < h; ++j) {
        const double dh = gh[j] + dhn[j];
        const double dct = dh * go[j] * tanh_grad_from_output(ctt[j]) + dcn[j];
        const double c_prev = t > 0 ? cache.cell(t - 1, j) : 0.0;

        dpre[j] = dct * gg[j] * sigmoid_grad_from_output(gi[j]);
        dpre[h + j] = dct * c_prev * sigmoid_grad_from_output(gf[j]);
        dpre[2 * h + j] = dct * gi[j] * tanh_grad_from_output(gg[j]);
        dpre[3 * h + j] = dh * ctt[j] * sigmoid_grad_from_output(go[j]);

        dcn[j] = dct * gf[j];
      }
      std::copy(dpre.begin(), dpre.end(), grad_pre_all[i].row(t).begin());
    }
    // dh_next = dpre * Wh^T for the whole batch in one GEMM; each output
    // element is the same j-ascending dot product the scalar loop runs.
    dh_next = matmul_trans_b(dpre_t, w_h_.value);
  }

  std::vector<Matrix> grad_input;
  grad_input.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    grad_input.push_back(matmul_trans_b(grad_pre_all[i], w_x_.value));
  }
  return grad_input;
}

}  // namespace goodones::nn
