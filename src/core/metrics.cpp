#include "core/metrics.hpp"

namespace goodones::core {

void ConfusionMatrix::add(bool actual_malicious, bool flagged) noexcept {
  if (actual_malicious) {
    if (flagged) ++tp;
    else ++fn;
  } else {
    if (flagged) ++fp;
    else ++tn;
  }
}

ConfusionMatrix& ConfusionMatrix::merge(const ConfusionMatrix& other) noexcept {
  tp += other.tp;
  fp += other.fp;
  fn += other.fn;
  tn += other.tn;
  return *this;
}

double ConfusionMatrix::recall() const noexcept {
  const std::size_t denom = tp + fn;
  return denom == 0 ? 0.0 : static_cast<double>(tp) / static_cast<double>(denom);
}

double ConfusionMatrix::precision() const noexcept {
  const std::size_t denom = tp + fp;
  if (denom == 0) return positives() == 0 ? 1.0 : 0.0;
  return static_cast<double>(tp) / static_cast<double>(denom);
}

double ConfusionMatrix::f1() const noexcept {
  const double r = recall();
  const double p = precision();
  return (r + p) == 0.0 ? 0.0 : 2.0 * r * p / (r + p);
}

double ConfusionMatrix::false_negative_rate() const noexcept {
  const std::size_t denom = tp + fn;
  return denom == 0 ? 0.0 : static_cast<double>(fn) / static_cast<double>(denom);
}

void CounterRegistry::add(std::string_view name, std::uint64_t delta) {
  const std::scoped_lock lock(mutex_);
  const auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

std::uint64_t CounterRegistry::value(std::string_view name) const {
  const std::scoped_lock lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::vector<std::pair<std::string, std::uint64_t>> CounterRegistry::snapshot() const {
  const std::scoped_lock lock(mutex_);
  return {counters_.begin(), counters_.end()};
}

void CounterRegistry::reset() {
  const std::scoped_lock lock(mutex_);
  counters_.clear();
}

CounterRegistry& counters() {
  static CounterRegistry registry;
  return registry;
}

}  // namespace goodones::core
