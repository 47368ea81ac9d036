// Parameter storage shared by all layers.
//
// A ParamBuffer pairs a value matrix with its gradient accumulator. Layers
// own their buffers; the optimizer receives non-owning pointers (Core
// Guidelines I.11 — ownership never transfers through it).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "nn/matrix.hpp"

namespace goodones::nn {

struct ParamBuffer {
  Matrix value;
  Matrix grad;

  ParamBuffer() = default;
  ParamBuffer(std::size_t rows, std::size_t cols) : value(rows, cols), grad(rows, cols) {}

  void zero_grad() noexcept { grad.set_zero(); }

  /// Xavier/Glorot uniform initialization with explicit fan-in/out.
  void init_xavier(common::Rng& rng, std::size_t fan_in, std::size_t fan_out);

  /// Uniform init in [-bound, bound].
  void init_uniform(common::Rng& rng, double bound);
};

/// Non-owning list of a model's parameters, in a stable order. The optimizer
/// keys its per-parameter state on position in this list, so a model must
/// always report its buffers in the same order.
using ParamRefs = std::vector<ParamBuffer*>;

/// Zeroes every gradient buffer.
void zero_all_grads(const ParamRefs& params) noexcept;

/// Global L2 norm of all gradients (for clipping / diagnostics).
double global_grad_norm(const ParamRefs& params) noexcept;

/// Scales all gradients so the global norm does not exceed max_norm.
void clip_global_grad_norm(const ParamRefs& params, double max_norm) noexcept;

}  // namespace goodones::nn
