// Planning for batched inference over probe windows.
//
// Greedy evasion searches emit batches of candidate windows that are copies
// of one base window with a single timestep edited; back-to-front editing
// means long runs of leading rows are bitwise identical across the batch.
// The planner discovers that structure generically (no coupling to the
// attack) so BiLstmForecaster::predict_batch can snapshot recurrent state
// after the shared prefix and replay only the unshared tail per probe.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nn/matrix.hpp"

namespace goodones::predict {

/// Shared row structure of a same-shape window batch.
struct BatchPlan {
  /// Leading rows bitwise-identical across every window.
  std::size_t shared_prefix = 0;
  /// Trailing rows bitwise-identical across every window. Counted over the
  /// rows after the shared prefix, so prefix + suffix never exceeds rows().
  std::size_t shared_suffix = 0;
};

/// One shape-homogeneous slice of a heterogeneous probe batch.
struct ProbeGroup {
  std::vector<std::size_t> indices;  ///< positions in the original batch
};

/// Groups a probe batch by (rows, cols) shape — batched recurrent execution
/// needs equal sequence lengths. cluster_probes() then plans each group.
/// Groups appear in first-seen order; indices within a group stay ascending.
/// The windows are pointers into caller-owned storage (request groups,
/// column-store gathers, probe pools), so planning copies no window bytes.
std::vector<ProbeGroup> group_probes(std::span<const nn::Matrix* const> windows);

/// One prefix cluster inside a shape group: members that share enough
/// leading rows for a single PrefixState snapshot to cover them all.
struct ProbeCluster {
  std::vector<std::size_t> indices;  ///< positions in the original batch
  BatchPlan plan;                    ///< exact shared rows among the members
};

/// Splits one shape group (`indices`, all same shape) into prefix clusters.
/// A cross-window campaign batch merges probes of SEVERAL base windows: one
/// global shared prefix is usually zero, but per base window the probes
/// still share almost everything. Greedy pass: each window joins the first
/// existing cluster it shares at least one leading row with (against the
/// cluster's running common prefix), else starts its own; single-member
/// clusters are then merged into one residual cluster (its exact plan —
/// typically prefix 0 — makes the packed whole-sequence GEMM the fallback,
/// i.e. exactly the pre-clustering behavior). Cluster order: multi-member
/// clusters in first-seen order, residual last; member indices ascending.
/// A cluster of one window is fully shared (prefix == rows, suffix == 0).
std::vector<ProbeCluster> cluster_probes(std::span<const nn::Matrix* const> windows,
                                         std::span<const std::size_t> indices);

}  // namespace goodones::predict
