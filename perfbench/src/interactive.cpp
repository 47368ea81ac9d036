// interactive_score: single-window Score frames over a unix socket to one
// in-process Daemon.
//
// The run is a sequence of 0.5 s blocks on two client connections, each
// request carrying one window, round-robin over the 16-entity fleet. Most
// blocks are open loop at one fixed offered rate: latency is timed from
// each request's due time, so a stall also charges the requests queued
// behind it. Every fourth block is closed loop: both connections send back
// to back, and the windows scored per second are the program's capacity.
// Every reply is compared bitwise with the in-process ScoringService
// verdict for the same window.
#include <array>
#include <cmath>
#include <memory>
#include <random>
#include <thread>

#include <sys/prctl.h>

#include "core/metrics.hpp"
#include "data/window.hpp"
#include "harness.hpp"
#include "serve/daemon.hpp"
#include "serve/wire.hpp"
#include "serving.hpp"

namespace perfbench {

namespace gs = goodones::serve;
using goodones::nn::Matrix;

namespace {

constexpr std::size_t kClients = 2;
/// Offered load of the open-loop blocks across both clients: 40-50% of the
/// closed-loop capacity (16-22k windows/s) the closed-loop blocks measured
/// on a 4-core x86-64 (AVX2) VM. Fixed, so a slower program shows up as
/// latency rather than as a lower rate. At 12000 req/s the same VM's median
/// latency spread twice as much over seeds, from queueing behind the host's
/// scheduling stalls.
constexpr double kOfferedPerSecond = 8000.0;
/// Distinct windows per entity in the request pool.
constexpr std::size_t kWindowsPerEntity = 32;
constexpr double kWarmupSeconds = 0.5;
/// 4000 requests per open-loop block, so 40 beyond the p99.
constexpr double kBlockSeconds = 0.5;
/// Blocks repeat in cycles of four: open, open (traced, in traced runs),
/// open, closed. Spreading the closed-loop blocks over the run keeps one
/// stretch of host contention from covering all of them, and traced runs
/// measure the tracing overhead inside one process.
constexpr std::size_t kCycle = 4;
/// In traced blocks every kTraceEvery-th request of a client also replays
/// its stages in process.
constexpr std::size_t kTraceEvery = 4;

enum class BlockKind { kOpen, kOpenTraced, kClosed };

BlockKind block_kind(std::size_t block, bool traced_run) {
  switch (block % kCycle) {
    case 1:
      return traced_run ? BlockKind::kOpenTraced : BlockKind::kOpen;
    case 3:
      return BlockKind::kClosed;
    default:
      return BlockKind::kOpen;
  }
}

/// Bitwise equality of two responses scored with the same bundle: entity,
/// cluster, generation and every window's verdict.
bool same_verdicts(const gs::ScoreResponse& a, const gs::ScoreResponse& b) {
  if (a.entity_index != b.entity_index) return false;
  if (a.cluster != b.cluster || a.generation != b.generation) return false;
  if (a.windows.size() != b.windows.size()) return false;
  for (std::size_t w = 0; w < a.windows.size(); ++w) {
    if (!same_window(a.windows[w], b.windows[w])) return false;
  }
  return true;
}

/// Lowers this thread's timer slack so sleeps wake close to their deadline.
void tighten_timer_slack() { ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL); }

/// Sleeps until shortly before `due`, then spins to it.
void wait_until(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(20);
  if (Clock::now() < due - kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

struct Setup {
  ServingFleet fleet;
  std::unique_ptr<gs::ScoringService> reference;
  std::unique_ptr<gs::Daemon> daemon;
  std::vector<std::unique_ptr<gs::DaemonClient>> clients;  // destroyed before the daemon
};

std::unique_ptr<Setup> set_up(std::uint64_t seed) {
  auto setup = std::make_unique<Setup>();
  setup->fleet = build_serving_fleet(seed, "registry");
  setup->reference = make_reference(setup->fleet);

  gs::DaemonConfig config;
  config.listen = goodones::common::Endpoint::unix_socket("interactive.sock");
  config.registry_root = "registry";
  config.adaptive_enabled = true;        // the adaptive tap observes every verdict...
  config.adaptive.auto_refresh = false;  // ...but no rebuild lands in a timed run
  setup->daemon =
      std::make_unique<gs::Daemon>(gs::clone_serving_model(setup->fleet.model), config);
  setup->daemon->start();
  for (std::size_t c = 0; c < kClients; ++c) {
    setup->clients.push_back(std::make_unique<gs::DaemonClient>(setup->daemon->endpoint()));
  }
  return setup;
}

struct Traffic {
  std::vector<gs::ScoreRequest> requests;  ///< request r addresses entity r % fleet size
  std::vector<gs::ScoreResponse> expected;
};

Traffic make_traffic(const Setup& setup, std::uint64_t seed) {
  std::mt19937_64 rng(mix_seed(seed, 2));
  const std::size_t seq_len = goodones::data::kDefaultSeqLen;
  Traffic traffic;
  for (std::size_t slot = 0; slot < kWindowsPerEntity; ++slot) {
    for (const FleetTrace& trace : setup.fleet.traces) {
      const std::size_t end = seq_len - 1 + rng() % (trace.ticks.rows() - seq_len + 1);
      gs::ScoreRequest request;
      request.entity = trace.entity;
      request.windows.push_back({cyclic_window(trace, end, seq_len), trace.regimes[end]});
      traffic.expected.push_back(setup.reference->score(request));
      traffic.requests.push_back(std::move(request));
    }
  }
  return traffic;
}

/// What one client connection saw in one block.
struct ClientRecord {
  std::vector<double> latency_us;  ///< due -> reply, per request
  std::vector<double> lag_us;      ///< due -> send
  std::vector<double> service_us;  ///< send -> reply
  std::uint64_t windows = 0;       ///< windows of correct replies
  Clock::time_point last_done;
  Tally tally;
};

/// The in-process replay of one served request's stages, each timed as a
/// span under the request's id: codecs, the scoring call on the daemon's
/// own ScoringService and the forecaster/detector calls inside it, a
/// counter add, and a Health round trip (a frame with no scoring).
void replay_stages(Setup& setup, gs::DaemonClient& client, const gs::ScoreRequest& request,
                   const gs::ScoreResponse& response, std::uint64_t id,
                   Tracer::Buffer& buffer, Tally& tally) {
  const double windows = static_cast<double>(request.windows.size());
  const std::string payload = buffer.record(id, "wire.encode", "client.roundtrip", 1, [&] {
    return gs::wire::encode_score_request(request);
  });
  buffer.record(id, "wire.decode", "client.roundtrip", 1,
                [&] { return gs::wire::decode_score_request(payload); });

  gs::ScoringService& service = setup.daemon->service();
  buffer.record(id, "scoring.score", "client.roundtrip", windows,
                [&] { return service.score(request); });
  std::vector<const Matrix*> features;
  for (const gs::TelemetryWindow& window : request.windows) features.push_back(&window.features);
  replay_scoring_stages(*service.model(), request.entity, features, id, "scoring.score", buffer);

  const std::string reply = buffer.record(id, "wire.encode", "client.roundtrip", 1, [&] {
    return gs::wire::encode_score_response(response);
  });
  buffer.record(id, "wire.decode", "client.roundtrip", 1,
                [&] { return gs::wire::decode_score_response(reply); });
  buffer.record(id, "counters.add", "client.roundtrip", 1,
                [&] { goodones::core::counters().add("perfbench.probe", 1); });
  buffer.record(id, "transport.health", "client.roundtrip", 1, [&] { return client.health(); });

  tally.wire_bytes_per_window =
      (2 * kFrameHeaderBytes + static_cast<double>(payload.size() + reply.size())) / windows;
}

/// One client connection's part of a block: request i of the block is due
/// at t0 + i / rate and goes out on connection i % kClients; rate 0 sends
/// back to back (closed loop).
void client_loop(Setup& setup, const Traffic& traffic, std::size_t c, double rate,
                 Clock::time_point t0, Clock::time_point end, std::uint64_t id_base,
                 Tracer::Buffer* buffer, ClientRecord& record) {
  tighten_timer_slack();
  wait_until(t0);
  gs::DaemonClient& client = *setup.clients[c];
  const std::size_t pool = traffic.requests.size();
  for (std::uint64_t j = 0;; ++j) {
    const std::uint64_t i = j * kClients + c;
    const Clock::time_point due =
        rate > 0 ? t0 + std::chrono::nanoseconds(
                            static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate))
                 : Clock::now();
    if (due >= end) break;
    wait_until(due);

    const gs::ScoreRequest& request = traffic.requests[i % pool];
    const Clock::time_point sent = Clock::now();
    gs::ScoreResponse response;
    bool ok = true;
    try {
      response = client.score(request);
    } catch (const std::exception&) {
      ok = false;
      ++record.tally.errors;
    }
    const Clock::time_point done = Clock::now();
    ++record.tally.attempted;
    if (ok && !same_verdicts(response, traffic.expected[i % pool])) {
      ok = false;
      ++record.tally.mismatches;
    }
    if (ok) record.windows += request.windows.size();
    record.latency_us.push_back(us_between(due, done));
    record.lag_us.push_back(us_between(due, sent));
    record.service_us.push_back(us_between(sent, done));
    record.last_done = done;

    if (buffer != nullptr) {
      const std::uint64_t id = id_base + i;
      buffer->add(id, "client.roundtrip", "", 1, sent, done);
      if (ok && j % kTraceEvery == 0) {
        replay_stages(setup, client, request, response, id, *buffer, record.tally);
      }
    }
  }
}

/// What one block came to, across both connections.
struct Block {
  BlockKind kind = BlockKind::kOpen;
  std::vector<double> latency_us;
  std::vector<double> lag_us;
  std::vector<double> service_us;
  double windows_per_s = 0.0;  ///< windows of correct replies / block time
  Tally tally;
};

Block run_block(Setup& setup, const Traffic& traffic, BlockKind kind, double seconds,
                std::uint64_t id_base, Tracer& tracer) {
  std::array<ClientRecord, kClients> records;
  const double rate = kind == BlockKind::kClosed ? 0.0 : kOfferedPerSecond;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  const Clock::time_point end =
      t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
  run_clients(kClients, kind == BlockKind::kOpenTraced, tracer,
              [&](std::size_t c, Tracer::Buffer* buffer) {
                client_loop(setup, traffic, c, rate, t0, end, id_base, buffer, records[c]);
              });

  Block block;
  block.kind = kind;
  std::uint64_t windows = 0;
  Clock::time_point last_done = t0;
  for (const ClientRecord& record : records) {
    block.latency_us.insert(block.latency_us.end(), record.latency_us.begin(),
                            record.latency_us.end());
    block.lag_us.insert(block.lag_us.end(), record.lag_us.begin(), record.lag_us.end());
    block.service_us.insert(block.service_us.end(), record.service_us.begin(),
                            record.service_us.end());
    windows += record.windows;
    last_done = std::max(last_done, record.last_done);
    block.tally += record.tally;
  }
  const double elapsed = std::chrono::duration<double>(last_done - t0).count();
  block.windows_per_s = elapsed > 0 ? static_cast<double>(windows) / elapsed : 0.0;
  return block;
}

}  // namespace

void run_interactive_score(const Options& options, Report& report, Tracer& tracer) {
  std::unique_ptr<Setup> setup;
  const double setup_s =
      timed_setups<std::unique_ptr<Setup>>([&] { return set_up(options.seed); }, setup);
  const Traffic traffic = make_traffic(*setup, options.seed);

  run_block(*setup, traffic, BlockKind::kOpen, kWarmupSeconds, 0, tracer);
  // At least one whole cycle, so every kind of block runs.
  const std::size_t count =
      std::max<std::size_t>(kCycle, std::llround(options.seconds / kBlockSeconds));
  std::vector<Block> blocks;
  for (std::size_t b = 0; b < count; ++b) {
    blocks.push_back(run_block(*setup, traffic, block_kind(b, options.trace), kBlockSeconds,
                               std::uint64_t{b + 1} << 32, tracer));
  }

  Tally total;
  // Per open-loop block: due-time p50/p95/p99 and the send-to-reply p95.
  std::vector<double> p50s, p95s, p99s, service_p95s;
  std::vector<double> capacity, lag, latency_untraced, latency_traced;
  for (const Block& block : blocks) {
    total += block.tally;
    if (block.kind == BlockKind::kClosed) {
      capacity.push_back(block.windows_per_s);
      continue;
    }
    lag.insert(lag.end(), block.lag_us.begin(), block.lag_us.end());
    std::vector<double>& pooled =
        block.kind == BlockKind::kOpenTraced ? latency_traced : latency_untraced;
    pooled.insert(pooled.end(), block.latency_us.begin(), block.latency_us.end());
    if (block.kind == BlockKind::kOpen) {
      p50s.push_back(quantile(block.latency_us, 0.5));
      p95s.push_back(quantile(block.latency_us, 0.95));
      p99s.push_back(quantile(block.latency_us, 0.99));
      service_p95s.push_back(quantile(block.service_us, 0.95));
    }
  }
  std::uint64_t reconnects = 0;
  for (const auto& client : setup->clients) reconnects += client->reconnects();
  settle(total, "verdicts differing from in-process ScoringService::score", report);

  const double lag_p99 = quantile(lag, 0.99);
  report.note(std::to_string(blocks.size()) + " blocks of " +
              std::to_string(std::llround(kBlockSeconds * 1e3)) + " ms on " +
              std::to_string(kClients) + " unix-socket connections: " +
              std::to_string(blocks.size() - capacity.size()) + " open loop at " +
              std::to_string(kOfferedPerSecond) + " req/s (" +
              std::to_string(latency_untraced.size() + latency_traced.size()) +
              " requests timed from their due time), " + std::to_string(capacity.size()) +
              " closed loop");
  report.note("generator lag p99 " + std::to_string(lag_p99) + " us" +
              (lag_p99 > 1000.0 ? "  ** GENERATOR BEHIND SCHEDULE: latencies include "
                                  "client-side backlog **"
                                : ""));

  if (!options.trace) {
    const double p50 = median(p50s), service_p95 = median(service_p95s);
    const double windows_per_s = median(capacity);
    report.note("verdict_p50_us = " + std::to_string(p50) + " us, verdict_p95_us = " +
                std::to_string(median(p95s)) + " us, verdict_p99_us = " +
                std::to_string(median(p99s)) + " us (from due time); service_p95_us = " +
                std::to_string(service_p95) + " us (send to reply); windows_per_s = " +
                std::to_string(windows_per_s) + " 1/s (closed loop)");
    // The due-time tail is not gated: past the p90 it follows the host's
    // scheduling stalls (a spinning thread on the idle VM loses ~2% of its
    // time in gaps of up to 20 ms) and the backlog they leave, not the
    // program. The send-to-reply p95 still charges a stall to the request
    // it hits.
    report.add("latency_typical_us", p50, "us");
    report.add("latency_p95_us", service_p95, "us");
    report.add("throughput_per_s", windows_per_s, "1/s");
    report.add("setup_s", setup_s, "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  std::map<std::string, double> layers =
      serving_layers(tracer, "scoring.score", total, reconnects);
  const double score_ns = tracer.median_ns("scoring.score");
  layers["scoring.score_ns"] = score_ns;
  layers["generator.lag_p99_us"] = lag_p99;
  layers["trace.overhead_us"] = median(latency_traced) - median(latency_untraced);

  reconcile("interactive_score, one Score round trip",
            tracer.median_ns("client.roundtrip") / 1e3,
            {{"wire.encode", layers["wire.encode_ns"] / 1e3},
             {"wire.decode", layers["wire.decode_ns"] / 1e3},
             {"transport.health_rtt", layers["transport.health_rtt_ns"] / 1e3},
             {"scoring.score", score_ns / 1e3}},
            report, layers);
  report.add_layers(layers);
}

}  // namespace perfbench
