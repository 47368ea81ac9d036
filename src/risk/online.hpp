// Online risk profiling — the adaptive extension the paper sketches in
// Appendix D and §V: "an iterative process that regularly reassesses
// patient risk profiles and continuously updates them as new data become
// available ... patients showing increased resilience are incorporated
// into the retraining process, while those becoming more vulnerable are
// excluded."
//
// The profiler maintains an exponentially-weighted risk level per victim;
// observe() folds in new attacked-window outcomes as they arrive (the
// defender's own simulation), observe_risks() folds in serving-time
// instantaneous risks (what serve::AdaptiveController feeds it from live
// ScoreResults), and reassess() re-derives the vulnerability partition. A
// hysteresis margin prevents victims near the boundary from oscillating
// between clusters on every batch. The full state round-trips through
// save()/load() so an adaptive serving loop resumes across restarts
// without re-observing history.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "attack/campaign.hpp"
#include "risk/schedule.hpp"

namespace goodones::risk {

struct OnlineProfilerConfig {
  /// Exponential forgetting factor per observation batch: 1 = never forget
  /// (levels converge to the cumulative mean of batch means), smaller =
  /// faster adaptation to regime changes.
  double decay = 0.9;
  /// Relative hysteresis around the cluster boundary: a victim switches
  /// groups only when its level crosses the boundary by this fraction.
  double hysteresis = 0.1;
  SeveritySchedule schedule = SeveritySchedule::paper_default();
};

class OnlineRiskProfiler {
 public:
  /// The current vulnerability partition (victim indices).
  struct Partition {
    std::vector<std::size_t> less_vulnerable;
    std::vector<std::size_t> more_vulnerable;
  };

  /// `victims` fixes the tracked population and its order (display names).
  OnlineRiskProfiler(std::vector<std::string> victims, OnlineProfilerConfig config);

  std::size_t num_victims() const noexcept { return levels_.size(); }

  /// Folds one batch of attacked-window outcomes for victim `index` into
  /// its exponentially-weighted risk level (log1p-compressed, matching the
  /// offline pipeline's clustering space). Empty batches are ignored.
  void observe(std::size_t index, const std::vector<attack::WindowOutcome>& outcomes);

  /// Folds one batch of already-computed instantaneous risks R_t (raw Eq.-1
  /// units, e.g. serve::WindowScore::risk) for victim `index`. This is the
  /// serving-time entry point: at test time there is no WindowOutcome, only
  /// the scored window's severity-weighted deviation. Same log1p
  /// compression and decay semantics as observe(); empty batches ignored.
  void observe_risks(std::size_t index, std::span<const double> risks);

  /// Current smoothed risk level of a victim (log1p space).
  double level(std::size_t index) const;

  /// Number of observation batches folded in for a victim.
  std::size_t batches(std::size_t index) const;

  /// Recomputes the vulnerability partition from current levels: the split
  /// point is the largest gap in sorted levels (the 1-D analogue of the
  /// offline dendrogram's max-gap cut), with hysteresis against the
  /// previous assignment. Requires at least one observed batch per victim.
  /// A single-victim population always lands in the less-vulnerable group.
  const Partition& reassess();

  /// Latest partition (empty before the first reassess()).
  const Partition& partition() const noexcept { return partition_; }

  /// Persists the complete profiling state (victims, levels, batch counts,
  /// hysteresis memory) so a restarted controller resumes exactly where it
  /// left off. Tag-framed like the detector artifacts.
  void save(std::ostream& out) const;

  /// Restores state written by save(). Throws common::SerializationError on
  /// truncation, tag mismatch, or a victim roster that disagrees with this
  /// profiler's (the artifact must describe the same population), leaving
  /// the profiler untouched on failure.
  void load(std::istream& in);

 private:
  void fold_batch(std::size_t index, double batch_mean);

  OnlineProfilerConfig config_;
  std::vector<std::string> victims_;
  std::vector<double> levels_;
  std::vector<std::size_t> batch_counts_;
  std::vector<bool> currently_less_;  // hysteresis memory
  bool first_assessment_ = true;
  Partition partition_;
};

}  // namespace goodones::risk
