// Shared scaffolding of the perfbench workloads: options, timing, quantiles,
// the in-memory span tracer, the environment stamp and the result line.
//
// Every workload follows one shape. It sets itself up a few times (the
// median set-up time is reported), measures for --seconds, checks that what
// the program answered is correct, and reports a fixed set of end-to-end
// metrics (untraced runs) or per-layer metrics (traced runs). The last line
// of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< BENCHMARK.json's run_seconds
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty = cwd.
  std::filesystem::path trace_dir;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

double seconds_since(Clock::time_point start);
double us_between(Clock::time_point start, Clock::time_point end);

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Contention from other tenants of a shared host slows a run down in
/// stretches of seconds. Timings and rates are therefore taken per block
/// (0.5 s of traffic, or one pipeline repetition) and reported as the
/// median over blocks: a stretch covering less than half the run does not
/// move it, a slowdown the program causes in most blocks does.
///
/// Splits (time_s, value) samples into consecutive blocks of `block_s`
/// seconds, takes quantile q (or the mean) inside each block, and returns
/// the median of those block values.
double median_over_blocks(const std::vector<std::pair<double, double>>& samples, double block_s,
                          double q);
double median_of_block_means(const std::vector<std::pair<double, double>>& samples,
                             double block_s);

/// Peak resident set size of this process so far, set-up included, in MiB.
double peak_rss_mb();

/// SplitMix64 step: derives independent, reproducible input streams from the
/// workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

// --- tracing -----------------------------------------------------------------

/// One timed call into a layer's public function, made from benchmark code.
/// Spans of one request share `request`. `parent` names the stage this call
/// belongs to on the request's path ("" for a root); a replayed stage runs
/// after its parent, not inside it. `items` is the unit count the call
/// processed (windows, ticks), for per-item normalisation.
struct Span {
  std::uint64_t request = 0;
  const char* name = "";
  const char* parent = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double items = 1.0;

  double duration_ns() const { return static_cast<double>(end_ns - start_ns); }
};

/// Spans are appended to per-thread buffers (no lock on the hot path) and
/// only merged and written out after the run.
class Tracer {
 public:
  class Buffer {
   public:
    /// Times fn() as one span and returns its result.
    template <typename Fn>
    auto record(std::uint64_t request, const char* name, const char* parent, double items,
                Fn&& fn) -> decltype(fn()) {
      const Clock::time_point start = Clock::now();
      if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        add(request, name, parent, items, start, Clock::now());
      } else {
        auto result = fn();
        add(request, name, parent, items, start, Clock::now());
        return result;
      }
    }
    void add(std::uint64_t request, const char* name, const char* parent, double items,
             Clock::time_point start, Clock::time_point end);

   private:
    friend class Tracer;
    std::vector<Span> spans_;
  };

  Tracer();

  /// A fresh buffer owned by the tracer; one per recording thread.
  Buffer& buffer();

  /// All spans recorded so far.
  std::vector<Span> spans() const;

  /// Median span duration of `name` (ns), optionally per item; 0 when the
  /// span never ran in this workload.
  double median_ns(const char* name) const;
  double median_ns_per_item(const char* name) const;
  /// Median over requests of the summed durations of their `name` spans
  /// (a request that encodes twice counts both encodes); 0 when absent.
  double median_request_sum_ns(const char* name) const;
  /// Median of `items` over the spans named `name`.
  double median_items(const char* name) const;

  /// Writes `header` (one JSON object) and then every span, one JSON object
  /// per line.
  void write_jsonl(const std::filesystem::path& path, const std::string& header) const;

 private:
  std::vector<double> durations(const char* name, bool per_item) const;

  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::deque<Buffer> buffers_;
};

// --- reporting ---------------------------------------------------------------

/// Who measured what, where: only runs with matching stamps are compared.
struct Stamp {
  std::string git_sha;
  std::string src_digest;
  std::string isa;
  std::string precision;
  unsigned nproc = 0;
  std::string build_type;
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
};

Stamp make_stamp(const Options& options, const char* precision);
std::string to_json(const Stamp& stamp);

/// The run's outcome: metrics in declaration order plus the correctness
/// verdict. print() emits the human-readable block, the stamp and, last,
/// the one-line JSON result.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Adds every per-layer metric of the catalog (harness.cpp) in catalog
  /// order. A layer the workload never calls reports 0; a name outside the
  /// catalog is a programming error and throws.
  void add_layers(const std::map<std::string, double>& values);
  /// A line printed above the result (reconciliation tables, aliases).
  void note(const std::string& line);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void print(const Stamp& stamp) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

/// One stage on the critical path of a workload's unit of work, for the
/// stage-sum reconciliation.
struct Stage {
  std::string name;
  double median_us = 0.0;
  double multiplicity = 1.0;  ///< times the stage lies on one unit's path
};

/// Prints "end-to-end median vs sum of stage medians" and records the
/// trace.* reconciliation metrics.
void reconcile(const std::string& what, double e2e_median_us, const std::vector<Stage>& stages,
               Report& report, std::map<std::string, double>& layers);

/// Set-up repetitions of the serving workloads; setup_s is their median.
inline constexpr std::size_t kSetups = 9;

/// Median set-up time over kSetups repetitions of make(); keeps the last
/// repetition's product, destroying the earlier ones before the next starts.
template <typename T>
double timed_setups(const std::function<T()>& make, T& kept) {
  std::vector<double> seconds;
  for (std::size_t i = 0; i < kSetups; ++i) {
    kept = T();  // release the previous repetition first
    const Clock::time_point start = Clock::now();
    kept = make();
    seconds.push_back(seconds_since(start));
  }
  return median(seconds);
}

// --- workloads ---------------------------------------------------------------

void run_interactive_score(const Options& options, Report& report, Tracer& tracer);
void run_stream_ingest(const Options& options, Report& report, Tracer& tracer);
void run_risk_profile(const Options& options, Report& report, Tracer& tracer);

}  // namespace perfbench
