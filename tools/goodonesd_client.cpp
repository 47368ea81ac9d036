// goodonesd_client — CLI client for the serving wire protocol (daemon or
// router: both ends of the mesh speak the same frames).
//
//   goodonesd_client ENDPOINT score ENTITY WINDOWS.CSV [--regime 0|1]
//   goodonesd_client ENDPOINT ingest ENTITY TICKS.CSV [--regime 0|1]
//   goodonesd_client ENDPOINT score-latest ENTITY [COUNT] [--seq-len N]
//   goodonesd_client ENDPOINT stats [PREFIX]
//   goodonesd_client ENDPOINT health
//   goodonesd_client ENDPOINT refresh
//   goodonesd_client ENDPOINT promote [GENERATION]
//   goodonesd_client ENDPOINT rollback [GENERATION]
//   goodonesd_client ENDPOINT canary-status
//   goodonesd_client ENDPOINT drain SHARD      (router only)
//   goodonesd_client ENDPOINT shutdown
//
// promote/rollback resolve a staged canary candidate (canary-mode daemons
// stage Refresh rebuilds instead of hot-swapping them). Bare form addresses
// whatever is staged; an explicit GENERATION is exactly-once across
// retries. canary-status is `stats serve.canary` spelled as a verb — the
// mirrored-evidence gauges the promotion policy is judging.
//
// ENDPOINT is unix:/path/to.sock, tcp:host:port, or a bare path (unix
// shorthand — the pre-mesh invocation keeps working).
//
// WINDOWS.CSV carries one or more telemetry windows: a "window" column
// groups rows (timesteps) into windows, every other column is one raw
// telemetry channel in the bundle's channel order:
//
//   window,reading,context0
//   0,112.5,0
//   0,114.1,0
//   1,180.2,35
//   ...
//
// TICKS.CSV streams raw history into the daemon's column store: every
// column is one telemetry channel in the bundle's channel order, every row
// one tick (a "window" column, if present, is ignored — the same CSV a
// score command consumes replays as a contiguous tick stream). After
// ingesting, `score-latest ENTITY [COUNT]` scores the COUNT most recent
// stored windows server-side — no window bytes cross the wire at all.
//
// Scores print one line per window — forecast, residual, anomaly score,
// verdict, risk — plus the bundle generation that produced the verdicts
// (the daemon's provenance tag; watch it change across a hot swap). Used
// by tests/serve_daemon_test.cpp and the README daemon quickstart.
//
// Exit status: 2 for a bad command line (every argument is parsed before
// dialing; a malformed or missing value prints "goodonesd_client:
// <argument>: <message>"), 1 when the request fails, 0 otherwise.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/csv.hpp"
#include "common/socket.hpp"
#include "serve/daemon.hpp"

#include "parse_number.hpp"

using namespace goodones;

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " ENDPOINT score ENTITY WINDOWS.CSV [--regime 0|1]\n"
            << "       " << argv0 << " ENDPOINT ingest ENTITY TICKS.CSV [--regime 0|1]\n"
            << "       " << argv0 << " ENDPOINT score-latest ENTITY [COUNT] [--seq-len N]\n"
            << "       " << argv0 << " ENDPOINT stats [PREFIX]\n"
            << "       " << argv0 << " ENDPOINT health\n"
            << "       " << argv0 << " ENDPOINT refresh\n"
            << "       " << argv0 << " ENDPOINT promote [GENERATION]\n"
            << "       " << argv0 << " ENDPOINT rollback [GENERATION]\n"
            << "       " << argv0 << " ENDPOINT canary-status\n"
            << "       " << argv0 << " ENDPOINT drain SHARD\n"
            << "       " << argv0 << " ENDPOINT shutdown\n"
            << "ENDPOINT: unix:/path, tcp:host:port, or a bare unix path\n";
  return 2;
}

/// tools::parse_unsigned, with errors that name the argument (`name`).
std::uint64_t parse_unsigned(const std::string& name, const std::string& text) {
  try {
    return tools::parse_unsigned<std::uint64_t>(text);
  } catch (const std::exception& error) {
    throw std::invalid_argument(name + ": " + error.what());
  }
}

data::Regime parse_regime(const std::string& text) {
  if (text == "0") return data::Regime::kBaseline;
  if (text == "1") return data::Regime::kActive;
  throw std::invalid_argument("--regime: expected 0 or 1, got '" + text + "'");
}

/// Everything a verb reads from its command line.
struct Invocation {
  common::Endpoint endpoint;
  std::string verb;
  std::string operand;  ///< ENTITY, PREFIX or SHARD
  std::string csv_path;
  data::Regime regime = data::Regime::kBaseline;
  std::uint64_t count = 1;
  std::uint64_t seq_len = 0;     ///< 0 = the daemon's configured window length
  std::uint64_t generation = 0;  ///< 0 = whatever candidate is staged
};

/// Parses ENDPOINT VERB [ARGS...] without any I/O. Returns nullopt for a
/// command line that matches no usage form; throws for a malformed or
/// missing value, with a message that starts with the argument's name.
std::optional<Invocation> parse_invocation(std::span<char* const> args) {
  Invocation in;
  try {
    in.endpoint = common::Endpoint::parse(args[0]);
  } catch (const std::exception& error) {
    throw std::invalid_argument(std::string("ENDPOINT: ") + error.what());
  }
  in.verb = args[1];
  std::size_t i = 2;
  const auto positional = [&](std::string& into) {
    if (i == args.size() || std::string(args[i]).rfind("--", 0) == 0) return false;
    into = args[i++];
    return true;
  };
  const auto flag_value = [&](const std::string& flag) -> std::string {
    if (i + 1 == args.size()) throw std::invalid_argument(flag + ": needs a value");
    i += 2;
    return args[i - 1];
  };
  std::string number;
  if (in.verb == "score" || in.verb == "ingest") {
    if (!positional(in.operand) || !positional(in.csv_path)) return std::nullopt;
    while (i < args.size() && std::string(args[i]) == "--regime") {
      in.regime = parse_regime(flag_value("--regime"));
    }
  } else if (in.verb == "score-latest") {
    if (!positional(in.operand)) return std::nullopt;
    if (positional(number)) in.count = parse_unsigned("COUNT", number);
    while (i < args.size() && std::string(args[i]) == "--seq-len") {
      in.seq_len = parse_unsigned("--seq-len", flag_value("--seq-len"));
    }
  } else if (in.verb == "stats") {
    positional(in.operand);
  } else if (in.verb == "drain") {
    if (!positional(in.operand)) return std::nullopt;
  } else if (in.verb == "promote" || in.verb == "rollback") {
    if (positional(number)) in.generation = parse_unsigned("GENERATION", number);
  } else if (in.verb != "health" && in.verb != "refresh" && in.verb != "canary-status" &&
             in.verb != "shutdown") {
    return std::nullopt;
  }
  if (i != args.size()) return std::nullopt;
  return in;
}

/// Parses the windows CSV: rows grouped by the "window" column (in file
/// order), remaining columns = channels in order.
std::vector<serve::TelemetryWindow> load_windows(const std::string& path,
                                                 data::Regime regime) {
  const common::CsvTable table = common::CsvTable::read(path);
  const std::size_t window_col = table.column_index("window");
  const std::size_t channels = table.num_cols() - 1;
  if (channels == 0) throw std::runtime_error("windows csv needs channel columns");

  // Group rows by window id, preserving first-appearance order.
  std::vector<std::string> order;
  std::map<std::string, std::vector<std::vector<double>>> grouped;
  for (const auto& row : table.rows()) {
    const std::string& id = row[window_col];
    if (grouped.find(id) == grouped.end()) order.push_back(id);
    std::vector<double> values;
    values.reserve(channels);
    for (std::size_t c = 0; c < table.num_cols(); ++c) {
      if (c == window_col) continue;
      values.push_back(tools::parse_finite(row[c]));
    }
    grouped[id].push_back(std::move(values));
  }

  std::vector<serve::TelemetryWindow> windows;
  windows.reserve(order.size());
  for (const std::string& id : order) {
    const auto& rows = grouped[id];
    serve::TelemetryWindow window;
    window.regime = regime;
    window.features = nn::Matrix(rows.size(), channels);
    for (std::size_t t = 0; t < rows.size(); ++t) {
      for (std::size_t c = 0; c < channels; ++c) window.features(t, c) = rows[t][c];
    }
    windows.push_back(std::move(window));
  }
  return windows;
}

/// Parses a ticks CSV: every column one channel in bundle order, every row
/// one tick; a "window" column (the score-CSV grouping key) is ignored so
/// the same file serves both verbs.
std::pair<nn::Matrix, std::vector<data::Regime>> load_ticks(const std::string& path,
                                                            data::Regime regime) {
  const common::CsvTable table = common::CsvTable::read(path);
  std::size_t window_col = table.num_cols();  // sentinel: no window column
  for (std::size_t c = 0; c < table.num_cols(); ++c) {
    if (table.header()[c] == "window") window_col = c;
  }
  const std::size_t channels = table.num_cols() - (window_col < table.num_cols() ? 1 : 0);
  if (channels == 0) throw std::runtime_error("ticks csv needs channel columns");

  nn::Matrix ticks(table.num_rows(), channels);
  for (std::size_t t = 0; t < table.num_rows(); ++t) {
    std::size_t out = 0;
    for (std::size_t c = 0; c < table.num_cols(); ++c) {
      if (c == window_col) continue;
      ticks(t, out++) = tools::parse_finite(table.rows()[t][c]);
    }
  }
  return {std::move(ticks), std::vector<data::Regime>(table.num_rows(), regime)};
}

void print_response(const std::string& entity, const serve::ScoreResponse& response) {
  std::cout << "entity " << entity << ": cluster " << serve::to_string(response.cluster)
            << ", generation " << response.generation << "\n";
  for (std::size_t w = 0; w < response.windows.size(); ++w) {
    const serve::WindowScore& score = response.windows[w];
    std::cout << "  window " << w << ": forecast " << score.forecast << ", residual "
              << score.residual << ", anomaly " << score.anomaly_score << ", "
              << (score.flagged ? "FLAGGED" : "ok") << ", risk " << score.risk << "\n";
  }
}

int run_score(serve::DaemonClient& client, const std::string& entity,
              const std::string& csv_path, data::Regime regime) {
  serve::ScoreRequest request;
  request.entity = entity;
  request.windows = load_windows(csv_path, regime);
  const serve::ScoreResponse response = client.score(request);
  print_response(entity, response);
  return 0;
}

int run_ingest(serve::DaemonClient& client, const std::string& entity,
               const std::string& csv_path, data::Regime regime) {
  serve::wire::IngestRequest request;
  request.entity = entity;
  std::tie(request.ticks, request.regimes) = load_ticks(csv_path, regime);
  const serve::wire::IngestReply reply = client.ingest(request);
  std::cout << "entity " << entity << ": ingested " << reply.accepted << " ticks ("
            << reply.total_ticks << " stored)\n";
  return 0;
}

int run_score_latest(serve::DaemonClient& client, const std::string& entity,
                     std::uint64_t count, std::uint64_t seq_len) {
  serve::wire::ScoreLatestRequest request;
  request.entity = entity;
  request.count = count;
  request.seq_len = seq_len;
  const serve::ScoreResponse response = client.score_latest(request);
  print_response(entity, response);
  return 0;
}

int run(serve::DaemonClient& client, const Invocation& in) {
  if (in.verb == "score") return run_score(client, in.operand, in.csv_path, in.regime);
  if (in.verb == "ingest") return run_ingest(client, in.operand, in.csv_path, in.regime);
  if (in.verb == "score-latest") {
    return run_score_latest(client, in.operand, in.count, in.seq_len);
  }
  if (in.verb == "stats") {
    for (const auto& [name, value] : client.stats()) {
      if (name.rfind(in.operand, 0) == 0) std::cout << name << " " << value << "\n";
    }
    return 0;
  }
  if (in.verb == "health") {
    const serve::wire::GenerationReply reply = client.health();
    std::cout << (reply.flag ? "draining" : "serving") << ", generation " << reply.generation
              << "\n";
    return 0;
  }
  if (in.verb == "drain") {
    const serve::wire::DrainReply reply = client.drain(in.operand);
    std::cout << reply.message << "\n";
    return reply.drained ? 0 : 1;
  }
  if (in.verb == "refresh") {
    const serve::wire::GenerationReply reply = client.refresh();
    std::cout << (reply.flag ? "refreshed: new generation "
                             : "no partition move; still serving generation ")
              << reply.generation << "\n";
    return 0;
  }
  if (in.verb == "promote") {
    const serve::wire::GenerationReply reply = client.promote(in.generation);
    std::cout << (reply.flag ? "promoted: primary is now generation "
                             : "nothing to apply; primary is generation ")
              << reply.generation << "\n";
    return 0;
  }
  if (in.verb == "rollback") {
    const serve::wire::GenerationReply reply = client.rollback(in.generation);
    std::cout << (reply.flag ? "rolled back: candidate dropped, primary stays generation "
                             : "nothing to apply; primary is generation ")
              << reply.generation << "\n";
    return 0;
  }
  if (in.verb == "canary-status") {
    for (const auto& [name, value] : client.stats()) {
      if (name.rfind("serve.canary", 0) == 0) std::cout << name << " " << value << "\n";
    }
    return 0;
  }
  client.shutdown();  // parse_invocation admits no other verb
  std::cout << "daemon acknowledged shutdown\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);
  std::optional<Invocation> invocation;
  try {
    invocation = parse_invocation(std::span<char* const>(argv + 1, argv + argc));
  } catch (const std::exception& error) {
    std::cerr << "goodonesd_client: " << error.what() << "\n";
    return 2;
  }
  if (!invocation) return usage(argv[0]);
  try {
    // Fail-fast client config: no silent reconnect loops from a CLI.
    serve::DaemonClientConfig client_config;
    client_config.channel.reconnect = false;
    client_config.channel.backoff.max_attempts = 1;
    serve::DaemonClient client(invocation->endpoint, client_config);
    return run(client, *invocation);
  } catch (const std::exception& error) {
    std::cerr << "goodonesd_client: " << error.what() << "\n";
    return 1;
  }
}
