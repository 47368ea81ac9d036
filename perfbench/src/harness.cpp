#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#include "nn/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double us_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

namespace {

std::map<std::int64_t, std::vector<double>> split_blocks(
    const std::vector<std::pair<double, double>>& samples, double block_s) {
  std::map<std::int64_t, std::vector<double>> blocks;
  for (const auto& [time_s, value] : samples) {
    blocks[static_cast<std::int64_t>(time_s / block_s)].push_back(value);
  }
  return blocks;
}

}  // namespace

double median_over_blocks(const std::vector<std::pair<double, double>>& samples, double block_s,
                          double q) {
  std::vector<double> per_block;
  for (auto& [index, values] : split_blocks(samples, block_s)) {
    per_block.push_back(quantile(std::move(values), q));
  }
  return median(std::move(per_block));
}

double median_of_block_means(const std::vector<std::pair<double, double>>& samples,
                             double block_s) {
  std::vector<double> per_block;
  for (const auto& [index, values] : split_blocks(samples, block_s)) {
    per_block.push_back(std::accumulate(values.begin(), values.end(), 0.0) /
                        static_cast<double>(values.size()));
  }
  return median(std::move(per_block));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// --- tracing -----------------------------------------------------------------

void Tracer::Buffer::add(std::uint64_t request, const char* name, const char* parent,
                         double items, Clock::time_point start, Clock::time_point end) {
  Span span;
  span.request = request;
  span.name = name;
  span.parent = parent;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      start.time_since_epoch()).count();
  span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    end.time_since_epoch()).count();
  span.items = items;
  spans_.push_back(span);
}

Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer::Buffer& Tracer::buffer() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return buffers_.emplace_back();
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const Buffer& buffer : buffers_) {
    all.insert(all.end(), buffer.spans_.begin(), buffer.spans_.end());
  }
  return all;
}

std::vector<double> Tracer::durations(const char* name, bool per_item) const {
  std::vector<double> out;
  for (const Span& span : spans()) {
    if (std::string_view(span.name) != name) continue;
    out.push_back(per_item && span.items > 0 ? span.duration_ns() / span.items
                                             : span.duration_ns());
  }
  return out;
}

double Tracer::median_ns(const char* name) const { return median(durations(name, false)); }

double Tracer::median_ns_per_item(const char* name) const {
  return median(durations(name, true));
}

double Tracer::median_request_sum_ns(const char* name) const {
  std::map<std::uint64_t, double> per_request;
  for (const Span& span : spans()) {
    if (std::string_view(span.name) == name) per_request[span.request] += span.duration_ns();
  }
  std::vector<double> sums;
  sums.reserve(per_request.size());
  for (const auto& [request, sum] : per_request) sums.push_back(sum);
  return median(sums);
}

double Tracer::median_items(const char* name) const {
  std::vector<double> items;
  for (const Span& span : spans()) {
    if (std::string_view(span.name) == name) items.push_back(span.items);
  }
  return median(items);
}

void Tracer::write_jsonl(const std::filesystem::path& path, const std::string& header) const {
  const std::int64_t epoch = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 epoch_.time_since_epoch()).count();
  std::ofstream out(path);
  out << header << "\n";
  for (const Span& span : spans()) {
    out << "{\"request\":" << span.request << ",\"name\":\"" << span.name
        << "\",\"parent\":\"" << span.parent << "\",\"start_ns\":" << span.start_ns - epoch
        << ",\"end_ns\":" << span.end_ns - epoch << ",\"items\":" << span.items << "}\n";
  }
}

// --- reporting ---------------------------------------------------------------

Stamp make_stamp(const Options& options, const char* precision) {
  Stamp stamp;
  stamp.git_sha = options.git_sha;
  stamp.src_digest = options.src_digest;
  stamp.isa = goodones::nn::simd::isa_name(goodones::nn::simd::active_isa());
  stamp.precision = precision;
  stamp.nproc = std::thread::hardware_concurrency();
  stamp.build_type = PERFBENCH_BUILD_TYPE;
  stamp.workload = options.workload;
  stamp.seed = options.seed;
  stamp.traced = options.trace;
  return stamp;
}

std::string to_json(const Stamp& stamp) {
  std::ostringstream json;
  json << "{\"git_sha\":\"" << stamp.git_sha << "\",\"src_digest\":\"" << stamp.src_digest
       << "\",\"isa\":\"" << stamp.isa << "\",\"precision\":\"" << stamp.precision
       << "\",\"nproc\":" << stamp.nproc << ",\"build_type\":\"" << stamp.build_type
       << "\",\"workload\":\"" << stamp.workload << "\",\"seed\":" << stamp.seed
       << ",\"traced\":" << (stamp.traced ? "true" : "false") << "}";
  return json.str();
}

void Report::add(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

namespace {

/// Every per-layer metric a traced run reports, with its unit — the same
/// list, in the same order, as BENCHMARK.json's "per_layer".
struct LayerMetric {
  const char* name;
  const char* unit;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"wire.encode_ns", "ns"},
    {"wire.decode_ns", "ns"},
    {"wire.bytes_per_window", "bytes"},
    {"transport.health_rtt_ns", "ns"},
    {"transport.reconnects", "count"},
    {"counters.add_ns", "ns"},
    {"scoring.score_ns", "ns"},
    {"scoring.score_views_ns_per_window", "ns"},
    {"scoring.self_ns", "ns"},
    {"predict.predict_batch_ns_per_window", "ns"},
    {"predict.windows_per_call", "count"},
    {"predict.train_s", "s"},
    {"detect.transform_ns_per_window", "ns"},
    {"detect.score_batch_ns_per_window", "ns"},
    {"detect.fit_s", "s"},
    {"detect.eval_s", "s"},
    {"store.append_ns_per_tick", "ns"},
    {"store.cut_ns_per_window", "ns"},
    {"store.gather_ns_per_window", "ns"},
    {"store.segments_sealed", "count"},
    {"store.bytes_mapped", "bytes"},
    {"router.forward_ns", "ns"},
    {"router.shard_for_ns", "ns"},
    {"attack.campaign_s", "s"},
    {"attack.probes_per_window", "count"},
    {"attack.success_ratio", "ratio"},
    {"risk.profile_s", "s"},
    {"cluster.agglomerate_s", "s"},
    {"generator.lag_p99_us", "us"},
    {"trace.overhead_us", "us"},
    {"trace.e2e_median_us", "us"},
    {"trace.stage_sum_us", "us"},
    {"trace.unattributed_us", "us"},
};

}  // namespace

void Report::add_layers(const std::map<std::string, double>& values) {
  for (const auto& [name, value] : values) {
    const bool known = std::any_of(std::begin(kLayerMetrics), std::end(kLayerMetrics),
                                   [&](const LayerMetric& m) { return name == m.name; });
    if (!known) throw std::logic_error("per-layer metric outside the catalog: " + name);
  }
  for (const LayerMetric& metric : kLayerMetrics) {
    const auto found = values.find(metric.name);
    add(metric.name, found == values.end() ? 0.0 : found->second, metric.unit);
  }
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::print(const Stamp& stamp) const {
  std::ostringstream human;
  human << "perfbench " << stamp.workload << " seed=" << stamp.seed
        << (stamp.traced ? " (traced)" : "") << "\n";
  for (const std::string& line : notes_) human << "  " << line << "\n";
  for (const Metric& metric : metrics_) {
    char value[64];
    std::snprintf(value, sizeof value, "%.6g", metric.value);
    human << "  " << metric.name << " = " << value << " " << metric.unit << "\n";
  }
  human << "  correct=" << (correct ? "true" : "false") << " attempted=" << attempted
        << " failed=" << failed << "\n";
  human << "perfbench-stamp " << to_json(stamp) << "\n";
  std::cout << human.str();

  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
    json << (i == 0 ? "" : ", ") << "\"" << metrics_[i].name << "\": {\"value\": " << value
         << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

void reconcile(const std::string& what, double e2e_median_us, const std::vector<Stage>& stages,
               Report& report, std::map<std::string, double>& layers) {
  double sum = 0.0;
  std::ostringstream line;
  line << "stage-sum reconciliation (" << what << "):";
  for (const Stage& stage : stages) {
    const double contribution = stage.median_us * stage.multiplicity;
    sum += contribution;
    char buffer[128];
    std::snprintf(buffer, sizeof buffer, " %s(x%g)=%.2fus", stage.name.c_str(),
                  stage.multiplicity, contribution);
    line << buffer;
  }
  report.note(line.str());
  char summary[256];
  std::snprintf(summary, sizeof summary,
                "  e2e median %.2fus, sum of stage medians %.2fus, unattributed %.2fus (%.1f%%)",
                e2e_median_us, sum, e2e_median_us - sum,
                e2e_median_us > 0 ? 100.0 * (e2e_median_us - sum) / e2e_median_us : 0.0);
  report.note(summary);
  layers["trace.e2e_median_us"] = e2e_median_us;
  layers["trace.stage_sum_us"] = sum;
  layers["trace.unattributed_us"] = e2e_median_us - sum;
}

}  // namespace perfbench
