#include "risk/online.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/error.hpp"
#include "nn/serialize.hpp"

namespace goodones::risk {

namespace {

constexpr std::uint32_t kProfilerTag = 0x4F525050;  // "ORPP"

}  // namespace

OnlineRiskProfiler::OnlineRiskProfiler(std::vector<std::string> victims,
                                       OnlineProfilerConfig config)
    : config_(config),
      victims_(std::move(victims)),
      levels_(victims_.size(), 0.0),
      batch_counts_(victims_.size(), 0),
      currently_less_(victims_.size(), false) {
  GO_EXPECTS(!victims_.empty());
  GO_EXPECTS(config_.decay > 0.0 && config_.decay <= 1.0);
  GO_EXPECTS(config_.hysteresis >= 0.0 && config_.hysteresis < 1.0);
}

void OnlineRiskProfiler::fold_batch(std::size_t index, double batch_mean) {
  if (batch_counts_[index] == 0) {
    levels_[index] = batch_mean;
  } else if (config_.decay == 1.0) {
    // Never forget: the level is the cumulative mean of all batch means
    // (the limit the config documents; a literal EWMA with decay 1 would
    // freeze on the first batch instead).
    const auto n = static_cast<double>(batch_counts_[index]);
    levels_[index] = (levels_[index] * n + batch_mean) / (n + 1.0);
  } else {
    // Exponentially-weighted update: decay-fraction of the old level plus
    // the complementary weight of the fresh evidence.
    levels_[index] = config_.decay * levels_[index] + (1.0 - config_.decay) * batch_mean;
  }
  ++batch_counts_[index];
}

void OnlineRiskProfiler::observe(std::size_t index,
                                 const std::vector<attack::WindowOutcome>& outcomes) {
  GO_EXPECTS(index < levels_.size());
  if (outcomes.empty()) return;

  double batch_mean = 0.0;
  for (const auto& outcome : outcomes) {
    batch_mean += std::log1p(instantaneous_risk(outcome, config_.schedule));
  }
  batch_mean /= static_cast<double>(outcomes.size());
  fold_batch(index, batch_mean);
}

void OnlineRiskProfiler::observe_risks(std::size_t index, std::span<const double> risks) {
  GO_EXPECTS(index < levels_.size());
  if (risks.empty()) return;

  double batch_mean = 0.0;
  for (const double risk : risks) {
    GO_EXPECTS(risk >= 0.0);
    batch_mean += std::log1p(risk);
  }
  batch_mean /= static_cast<double>(risks.size());
  fold_batch(index, batch_mean);
}

double OnlineRiskProfiler::level(std::size_t index) const {
  GO_EXPECTS(index < levels_.size());
  return levels_[index];
}

std::size_t OnlineRiskProfiler::batches(std::size_t index) const {
  GO_EXPECTS(index < batch_counts_.size());
  return batch_counts_[index];
}

const OnlineRiskProfiler::Partition& OnlineRiskProfiler::reassess() {
  for (const std::size_t count : batch_counts_) {
    GO_EXPECTS(count > 0);
  }

  // 1-D max-gap split of the sorted levels (degenerate spread -> everyone
  // is equally vulnerable; put all victims in the less-vulnerable group).
  std::vector<std::size_t> order(levels_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return levels_[a] < levels_[b]; });

  double best_gap = 0.0;
  std::size_t split_after = order.size();  // index into the sorted order
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    const double gap = levels_[order[i + 1]] - levels_[order[i]];
    if (gap > best_gap) {
      best_gap = gap;
      split_after = i;
    }
  }

  partition_ = Partition{};
  if (split_after == order.size() || best_gap <= 0.0) {
    partition_.less_vulnerable = order;
    std::fill(currently_less_.begin(), currently_less_.end(), true);
    return partition_;
  }

  // Boundary with hysteresis: after the first assessment, victims keep
  // their previous side unless they cross the boundary by the configured
  // relative margin.
  const double boundary =
      (levels_[order[split_after]] + levels_[order[split_after + 1]]) / 2.0;
  const double margin =
      first_assessment_ ? 0.0 : config_.hysteresis * std::abs(boundary);
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    const bool less = levels_[i] < boundary - margin
                          ? true
                          : (levels_[i] > boundary + margin ? false : currently_less_[i]);
    currently_less_[i] = less;
    (less ? partition_.less_vulnerable : partition_.more_vulnerable).push_back(i);
  }
  first_assessment_ = false;
  return partition_;
}

void OnlineRiskProfiler::save(std::ostream& out) const {
  nn::write_u32(out, kProfilerTag);
  nn::write_u32(out, static_cast<std::uint32_t>(victims_.size()));
  for (const auto& name : victims_) nn::write_string(out, name);
  nn::write_f64_vector(out, levels_);
  std::vector<std::uint8_t> less_bytes(victims_.size());
  for (std::size_t i = 0; i < victims_.size(); ++i) {
    less_bytes[i] = currently_less_[i] ? 1 : 0;
  }
  for (const std::size_t count : batch_counts_) nn::write_u64(out, count);
  nn::write_u8_vector(out, less_bytes);
  nn::write_u32(out, first_assessment_ ? 1 : 0);
}

void OnlineRiskProfiler::load(std::istream& in) {
  nn::expect_u32(in, kProfilerTag, "online profiler tag");
  const std::uint32_t n = nn::read_u32(in, "online profiler victim count");
  if (n != victims_.size()) {
    throw common::SerializationError(
        "online profiler artifact victim count mismatch: artifact " + std::to_string(n) +
        ", profiler tracks " + std::to_string(victims_.size()));
  }
  for (std::size_t i = 0; i < victims_.size(); ++i) {
    const std::string name = nn::read_string(in, "online profiler victim name");
    if (name != victims_[i]) {
      throw common::SerializationError("online profiler artifact victim roster mismatch: '" +
                                       name + "' vs '" + victims_[i] + "'");
    }
  }
  std::vector<double> levels = nn::read_f64_vector(in, "online profiler levels");
  if (levels.size() != victims_.size()) {
    throw common::SerializationError("online profiler artifact level count mismatch");
  }
  // A NaN or infinite level is a corrupt artifact: reassess() cannot split
  // on it (a NaN level puts the whole roster in one group).
  for (const double level : levels) {
    if (!std::isfinite(level)) {
      throw common::SerializationError("online profiler artifact carries a non-finite level");
    }
  }
  std::vector<std::size_t> counts(victims_.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = nn::read_u64(in, "online profiler batch count");
  }
  const std::vector<std::uint8_t> less_bytes =
      nn::read_u8_vector(in, "online profiler hysteresis memory");
  if (less_bytes.size() != victims_.size()) {
    throw common::SerializationError("online profiler artifact hysteresis size mismatch");
  }
  const bool first = nn::read_u32(in, "online profiler first-assessment flag") != 0;

  // All reads succeeded: commit atomically.
  levels_ = std::move(levels);
  batch_counts_ = std::move(counts);
  for (std::size_t i = 0; i < victims_.size(); ++i) currently_less_[i] = less_bytes[i] != 0;
  first_assessment_ = first;
  partition_ = Partition{};
}

}  // namespace goodones::risk
