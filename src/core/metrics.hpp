// Detection metrics and runtime observability counters.
//
// Detection: the paper's evaluation reports recall (its priority: false
// negatives are lethal in safety-critical systems), precision (false
// positives cost availability) and their harmonic mean (F1, Appendix C).
// Observability: long-running attack campaigns report shard progress and
// probe throughput through the process-wide counter registry. The serving
// stack reports into the same registry under dotted prefixes — "serve.*"
// (ScoringService), "serve.adaptive.*" (AdaptiveController cadence,
// refreshes, refresh_failures), "serve.daemon.*" (connections, frames,
// scores, error/malformed frames) — and the daemon's Stats message serves
// the whole snapshot over IPC.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace goodones::core {

struct ConfusionMatrix {
  std::size_t tp = 0;  ///< malicious, flagged
  std::size_t fp = 0;  ///< benign, flagged
  std::size_t fn = 0;  ///< malicious, missed
  std::size_t tn = 0;  ///< benign, passed

  void add(bool actual_malicious, bool flagged) noexcept;
  ConfusionMatrix& merge(const ConfusionMatrix& other) noexcept;

  std::size_t total() const noexcept { return tp + fp + fn + tn; }
  std::size_t positives() const noexcept { return tp + fn; }

  /// tp / (tp + fn); 0 when there are no positives.
  double recall() const noexcept;
  /// tp / (tp + fp); degenerate cases: 1 when nothing was flagged and no
  /// positives existed (vacuously precise), 0 when positives existed but
  /// nothing was flagged.
  double precision() const noexcept;
  /// Harmonic mean of recall and precision; 0 when both are 0.
  double f1() const noexcept;
  /// fn / (tp + fn); the paper's headline safety number.
  double false_negative_rate() const noexcept;
};

/// Named monotonic counters for coarse progress/throughput observability
/// (shard completion, windows attacked, forecaster probes). Thread-safe via
/// a mutex, so callers aggregate locally and add once per shard or batch,
/// never per item.
class CounterRegistry {
 public:
  void add(std::string_view name, std::uint64_t delta);
  /// Current value; 0 for a counter never touched.
  std::uint64_t value(std::string_view name) const;
  /// All counters, sorted by name.
  std::vector<std::pair<std::string, std::uint64_t>> snapshot() const;
  /// Clears every counter (test isolation / between campaign batches).
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
};

/// The process-wide registry the campaign scheduler reports into.
CounterRegistry& counters();

}  // namespace goodones::core
