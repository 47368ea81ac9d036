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
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/csv.hpp"
#include "common/socket.hpp"
#include "serve/daemon.hpp"

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
      values.push_back(std::stod(row[c]));
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
      ticks(t, out++) = std::stod(table.rows()[t][c]);
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
                     std::size_t count, std::size_t seq_len) {
  serve::wire::ScoreLatestRequest request;
  request.entity = entity;
  request.count = count;
  request.seq_len = seq_len;  // 0 = the daemon's configured window length
  const serve::ScoreResponse response = client.score_latest(request);
  print_response(entity, response);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);
  const std::string endpoint_text = argv[1];
  const std::string command = argv[2];
  try {
    // Endpoint::parse treats a bare path as unix shorthand; fail-fast
    // client config (no silent reconnect loops from a CLI).
    serve::DaemonClientConfig client_config;
    client_config.channel.reconnect = false;
    client_config.channel.backoff.max_attempts = 1;
    serve::DaemonClient client(common::Endpoint::parse(endpoint_text), client_config);
    if (command == "score") {
      if (argc < 5) return usage(argv[0]);
      data::Regime regime = data::Regime::kBaseline;
      if (argc >= 7 && std::string(argv[5]) == "--regime") {
        regime = std::string(argv[6]) == "1" ? data::Regime::kActive
                                             : data::Regime::kBaseline;
      }
      return run_score(client, argv[3], argv[4], regime);
    }
    if (command == "ingest") {
      if (argc < 5) return usage(argv[0]);
      data::Regime regime = data::Regime::kBaseline;
      if (argc >= 7 && std::string(argv[5]) == "--regime") {
        regime = std::string(argv[6]) == "1" ? data::Regime::kActive
                                             : data::Regime::kBaseline;
      }
      return run_ingest(client, argv[3], argv[4], regime);
    }
    if (command == "score-latest") {
      if (argc < 4) return usage(argv[0]);
      std::size_t count = 1;
      std::size_t seq_len = 0;
      int i = 4;
      if (i < argc && std::string(argv[i]).rfind("--", 0) != 0) {
        count = static_cast<std::size_t>(std::stoul(argv[i++]));
      }
      if (i + 1 < argc && std::string(argv[i]) == "--seq-len") {
        seq_len = static_cast<std::size_t>(std::stoul(argv[i + 1]));
      }
      return run_score_latest(client, argv[3], count, seq_len);
    }
    if (command == "stats") {
      const std::string prefix = argc >= 4 ? argv[3] : "";
      for (const auto& [name, value] : client.stats()) {
        if (name.rfind(prefix, 0) == 0) std::cout << name << " " << value << "\n";
      }
      return 0;
    }
    if (command == "health") {
      const serve::wire::GenerationReply reply = client.health();
      std::cout << (reply.flag ? "draining" : "serving") << ", generation "
                << reply.generation << "\n";
      return 0;
    }
    if (command == "drain") {
      if (argc < 4) return usage(argv[0]);
      const serve::wire::DrainReply reply = client.drain(argv[3]);
      std::cout << reply.message << "\n";
      return reply.drained ? 0 : 1;
    }
    if (command == "refresh") {
      const serve::wire::GenerationReply reply = client.refresh();
      std::cout << (reply.flag ? "refreshed: new generation "
                               : "no partition move; still serving generation ")
                << reply.generation << "\n";
      return 0;
    }
    if (command == "promote") {
      const std::uint64_t generation = argc >= 4 ? std::stoull(argv[3]) : 0;
      const serve::wire::GenerationReply reply = client.promote(generation);
      std::cout << (reply.flag ? "promoted: primary is now generation "
                               : "nothing to apply; primary is generation ")
                << reply.generation << "\n";
      return 0;
    }
    if (command == "rollback") {
      const std::uint64_t generation = argc >= 4 ? std::stoull(argv[3]) : 0;
      const serve::wire::GenerationReply reply = client.rollback(generation);
      std::cout << (reply.flag ? "rolled back: candidate dropped, primary stays generation "
                               : "nothing to apply; primary is generation ")
                << reply.generation << "\n";
      return 0;
    }
    if (command == "canary-status") {
      for (const auto& [name, value] : client.stats()) {
        if (name.rfind("serve.canary", 0) == 0) std::cout << name << " " << value << "\n";
      }
      return 0;
    }
    if (command == "shutdown") {
      client.shutdown();
      std::cout << "daemon acknowledged shutdown\n";
      return 0;
    }
    return usage(argv[0]);
  } catch (const std::exception& error) {
    std::cerr << "goodonesd_client: " << error.what() << "\n";
    return 1;
  }
}
