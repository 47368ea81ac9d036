// perfbench: the repository benchmark binary. Normally started through
// perfbench/run.py, which builds it first:
//
//   perfbench --workload interactive_score|stream_ingest|risk_profile
//             --seed N --seconds S --trace 0|1
//             [--trace-dir DIR] [--git-sha SHA] [--src-digest HEX]
//
// It works in the current directory (sockets, registries, stores) and prints
// the result as the last line of stdout. Exit code 0 means a result was
// printed; anything else means the run failed and printed none.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common/logging.hpp"
#include "harness.hpp"

namespace {

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else if (flag == "--git-sha") {
      options.git_sha = value;
    } else if (flag == "--src-digest") {
      options.src_digest = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!(options.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const perfbench::Options options = parse(argc, argv);
    goodones::common::set_log_level(goodones::common::LogLevel::kWarn);

    perfbench::Report report;
    perfbench::Tracer tracer;
    if (options.workload == "interactive_score") {
      perfbench::run_interactive_score(options, report, tracer);
    } else if (options.workload == "stream_ingest") {
      perfbench::run_stream_ingest(options, report, tracer);
    } else if (options.workload == "risk_profile") {
      perfbench::run_risk_profile(options, report, tracer);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload + "'");
    }

    const perfbench::Stamp stamp = perfbench::make_stamp(options, "double");
    if (options.trace) {
      const std::filesystem::path path =
          options.trace_dir / (options.workload + "-seed" + std::to_string(options.seed) +
                               ".spans.jsonl");
      tracer.write_jsonl(path, "{\"stamp\":" + perfbench::to_json(stamp) + "}");
      report.note("spans written to " + path.string());
    }
    report.print(stamp);
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
