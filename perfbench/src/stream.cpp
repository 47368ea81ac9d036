// stream_ingest: closed-loop Ingest + ScoreLatest through a Router to two
// shard Daemons over loopback TCP.
//
// Each shard serves its consistent-hash slice of the 16-entity fleet and
// persists its column store under the run directory, so segments seal
// during the run. Each client step Ingests a block of kTicksPerStep new
// ticks for one of its entities, then ScoreLatests the kTicksPerStep windows
// those ticks completed. Every entity replays its held-out telemetry
// cyclically from a seeded offset, so the verdict expected for any window
// is known up front: served verdicts are checked bitwise against the
// in-process ScoringService::score of the materialized window.
#include <array>
#include <memory>
#include <random>
#include <span>

#include "core/metrics.hpp"
#include "data/column_store.hpp"
#include "data/window.hpp"
#include "harness.hpp"
#include "serve/daemon.hpp"
#include "serve/hash_ring.hpp"
#include "serve/router.hpp"
#include "serve/wire.hpp"
#include "serving.hpp"

namespace perfbench {

namespace gs = goodones::serve;
namespace gd = goodones::data;
using goodones::nn::Matrix;

namespace {

constexpr std::size_t kClients = 2;
constexpr std::size_t kTicksPerStep = 8;
constexpr std::size_t kSeqLen = gd::kDefaultSeqLen;
/// Small segments, so every entity seals several per run.
constexpr std::size_t kSegmentCapacity = 512;
constexpr std::size_t kVnodes = 128;
const char* const kShardNames[2] = {"shard-a", "shard-b"};
constexpr double kWarmupSeconds = 0.5;
/// Quantile blocks, and the traced/untraced alternation of traced runs.
constexpr double kBlockSeconds = 0.5;
/// In traced blocks every kTraceEvery-th step of a client replays its
/// stages in process (a replay costs about three steps of client time).
constexpr std::size_t kTraceEvery = 8;

struct Setup {
  ServingFleet fleet;
  std::unique_ptr<gs::ScoringService> reference;
  std::array<std::unique_ptr<gs::Daemon>, 2> shards;
  std::unique_ptr<gs::Router> router;
  /// Per client thread: its connection through the router, and one direct
  /// connection per shard (traced replays, store gauges).
  std::vector<std::unique_ptr<gs::DaemonClient>> clients;
  std::vector<std::array<std::unique_ptr<gs::DaemonClient>, 2>> direct;
};

gs::DaemonConfig shard_config(std::size_t slot) {
  const std::string name = kShardNames[slot];
  gs::DaemonConfig config;
  config.listen = goodones::common::Endpoint::tcp("127.0.0.1", 0);
  config.registry_root = "registry/" + name;
  config.adaptive_enabled = true;
  config.adaptive.auto_refresh = false;
  config.store_root = "store/" + name;
  config.store_segment_capacity = kSegmentCapacity;
  std::filesystem::remove_all(config.registry_root);
  std::filesystem::remove_all(config.store_root);
  return config;
}

std::unique_ptr<Setup> set_up(std::uint64_t seed) {
  auto setup = std::make_unique<Setup>();
  setup->fleet = build_serving_fleet(seed, "registry/fleet");
  setup->reference = make_reference(setup->fleet);

  // Slice the bundle the way the router will place it.
  gs::HashRing ring(kVnodes);
  for (const char* name : kShardNames) ring.add(name);
  std::array<std::vector<std::string>, 2> members;
  for (const std::string& entity : setup->fleet.model.entity_names) {
    members[ring.owner(entity) == kShardNames[0] ? 0 : 1].push_back(entity);
  }
  if (members[0].empty() || members[1].empty()) {
    throw std::runtime_error("degenerate shard split of the fleet");
  }

  gs::RouterConfig router_config;
  router_config.listen = goodones::common::Endpoint::tcp("127.0.0.1", 0);
  router_config.vnodes = kVnodes;
  for (std::size_t s = 0; s < 2; ++s) {
    setup->shards[s] = std::make_unique<gs::Daemon>(
        gs::slice_serving_model(setup->fleet.model, members[s]), shard_config(s));
    setup->shards[s]->start();
    router_config.backends.push_back({kShardNames[s], setup->shards[s]->endpoint()});
  }
  setup->router = std::make_unique<gs::Router>(router_config);
  setup->router->start();

  setup->direct.resize(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    setup->clients.push_back(std::make_unique<gs::DaemonClient>(setup->router->endpoint()));
    for (std::size_t s = 0; s < 2; ++s) {
      setup->direct[c][s] = std::make_unique<gs::DaemonClient>(setup->shards[s]->endpoint());
    }
  }
  return setup;
}

/// One entity's cyclic tick stream: global tick g is row (start + g) % L of
/// the entity's held-out trace. expected[r] is the verdict for the window
/// whose last tick is row r.
struct EntityStream {
  const FleetTrace* trace = nullptr;
  std::size_t slot = 0;  ///< owning shard
  std::size_t start = 0;
  std::uint64_t next = 0;  ///< next global tick to ingest
  gs::Cluster cluster = gs::Cluster::kLessVulnerable;
  std::vector<gs::WindowScore> expected;

  std::size_t row(std::uint64_t global_tick) const {
    return (start + global_tick) % trace->ticks.rows();
  }

  gs::wire::IngestRequest block(std::uint64_t first, std::size_t count) const {
    gs::wire::IngestRequest request;
    request.entity = trace->entity;
    request.ticks = Matrix(count, trace->ticks.cols());
    for (std::size_t t = 0; t < count; ++t) {
      const std::size_t r = row(first + t);
      for (std::size_t c = 0; c < trace->ticks.cols(); ++c) {
        request.ticks(t, c) = trace->ticks(r, c);
      }
      request.regimes.push_back(trace->regimes[r]);
    }
    return request;
  }
};

/// Expected verdicts, seeded start offsets, and the seq_len - 1 ticks of
/// history every stream needs before its first window (ingested into the
/// shards and the benchmark's own store alike).
std::vector<EntityStream> make_streams(Setup& setup, std::uint64_t seed,
                                       gd::ColumnStore& bench_store) {
  std::mt19937_64 rng(mix_seed(seed, 3));
  std::vector<EntityStream> streams;
  for (const FleetTrace& trace : setup.fleet.traces) {
    EntityStream stream;
    stream.trace = &trace;
    stream.slot = setup.router->shard_for(trace.entity) == kShardNames[0] ? 0 : 1;
    stream.start = rng() % trace.ticks.rows();

    gs::ScoreRequest all_windows;
    all_windows.entity = trace.entity;
    for (std::size_t r = 0; r < trace.ticks.rows(); ++r) {
      all_windows.windows.push_back({cyclic_window(trace, r, kSeqLen), trace.regimes[r]});
    }
    const gs::ScoreResponse expected = setup.reference->score(all_windows);
    stream.expected = expected.windows;
    stream.cluster = expected.cluster;

    const gs::wire::IngestRequest history = stream.block(0, kSeqLen - 1);
    setup.clients[0]->ingest(history);
    bench_store.append_block(history.entity, history.ticks, history.regimes);
    stream.next = kSeqLen - 1;
    streams.push_back(std::move(stream));
  }
  return streams;
}

struct ClientStats {
  std::vector<std::pair<double, double>> latency;  ///< (step start s, latency us)
  std::vector<bool> traced_block;
  std::vector<double> completions;  ///< finish time (s) of each correct step
  Tally tally;
};

/// The in-process replay of one step's stages, each timed as a span under
/// the step's id: the codecs of all four frames, the benchmark's own store
/// fed the same block, scoring the cut views on the owning shard's
/// ScoringService with the forecaster/detector calls inside it, the ring
/// lookup, the same ScoreLatest through the router and to the shard
/// directly, a Health round trip to the shard and a counter add.
void replay_stages(Setup& setup, std::size_t c, const EntityStream& stream,
                   const gs::wire::IngestRequest& ingest, const gs::wire::IngestReply& reply,
                   const gs::wire::ScoreLatestRequest& latest,
                   const gs::ScoreResponse& response, std::uint64_t id,
                   gd::ColumnStore& bench_store, Tracer::Buffer& buffer, ClientStats& stats) {
  const double k = static_cast<double>(kTicksPerStep);
  const auto codec = [&](auto encode, auto decode) {
    const std::string payload = buffer.record(id, "wire.encode", "client.step", 1, encode);
    buffer.record(id, "wire.decode", "client.step", 1, [&] { return decode(payload); });
    return static_cast<double>(payload.size()) + kFrameHeaderBytes;
  };
  double bytes = 0.0;
  bytes += codec([&] { return gs::wire::encode_ingest_request(ingest); },
                 [](const std::string& p) { return gs::wire::decode_ingest_request(p); });
  bytes += codec([&] { return gs::wire::encode_ingest_reply(reply); },
                 [](const std::string& p) { return gs::wire::decode_ingest_reply(p); });
  bytes += codec([&] { return gs::wire::encode_score_latest_request(latest); },
                 [](const std::string& p) { return gs::wire::decode_score_latest_request(p); });
  bytes += codec([&] { return gs::wire::encode_score_response(response); },
                 [](const std::string& p) { return gs::wire::decode_score_response(p); });
  stats.tally.wire_bytes_per_window = bytes / k;

  const std::string& entity = ingest.entity;
  buffer.record(id, "store.append", "client.step", k,
                [&] { bench_store.append_block(entity, ingest.ticks, ingest.regimes); });
  const std::vector<gd::WindowView> views = buffer.record(
      id, "store.cut", "client.step", k,
      [&] { return bench_store.latest_windows(entity, kSeqLen, kTicksPerStep); });
  std::vector<Matrix> gathered(views.size());
  buffer.record(id, "store.gather", "scoring.score_views", k, [&] {
    for (std::size_t i = 0; i < views.size(); ++i) views[i].gather(gathered[i]);
  });

  gs::ScoringService& service = setup.shards[stream.slot]->service();
  buffer.record(id, "scoring.score_views", "client.step", k, [&] {
    return service.score_views(entity, std::span<const gd::WindowView>(views));
  });
  std::vector<const Matrix*> features;
  for (const Matrix& window : gathered) features.push_back(&window);
  replay_scoring_stages(*service.model(), entity, features, id, "scoring.score_views", buffer);

  buffer.record(id, "router.shard_for", "client.step", 1,
                [&] { return setup.router->shard_for(entity); });
  // A Health round trip straight to the owning shard (a frame with no
  // work), then the same ScoreLatest straight to the shard and through the
  // router, back to back: their difference is what the router's hop adds.
  // The Health frame goes first so the shard's handler thread for the
  // direct connection is awake, as the router's pooled ones always are.
  gs::DaemonClient& direct = *setup.direct[c][stream.slot];
  buffer.record(id, "transport.health", "client.step", 1, [&] { return direct.health(); });
  buffer.record(id, "router.score_latest_direct", "client.step", k,
                [&] { return direct.score_latest(latest); });
  buffer.record(id, "router.score_latest_routed", "client.step", k,
                [&] { return setup.clients[c]->score_latest(latest); });
  buffer.record(id, "counters.add", "client.step", 1,
                [&] { goodones::core::counters().add("perfbench.probe", 1); });
}

bool verdicts_match(const EntityStream& stream, std::uint64_t first,
                    const gs::ScoreResponse& response) {
  if (response.cluster != stream.cluster || response.generation != 0) return false;
  if (response.windows.size() != kTicksPerStep) return false;
  for (std::size_t w = 0; w < kTicksPerStep; ++w) {
    if (!same_window(response.windows[w], stream.expected[stream.row(first + w)])) return false;
  }
  return true;
}

void client_loop(Setup& setup, std::size_t c, const std::vector<EntityStream*>& mine,
                 Clock::time_point t0, Clock::time_point end, bool traced_run,
                 std::uint64_t id_base, gd::ColumnStore& bench_store, Tracer::Buffer* buffer,
                 ClientStats& stats) {
  gs::DaemonClient& client = *setup.clients[c];
  for (std::uint64_t j = 0;; ++j) {
    const Clock::time_point start = Clock::now();
    if (start >= end) break;
    const double at_s = std::chrono::duration<double>(start - t0).count();
    const bool traced_block =
        traced_run && static_cast<std::uint64_t>(at_s / kBlockSeconds) % 2 == 1;

    EntityStream& stream = *mine[j % mine.size()];
    const std::uint64_t first = stream.next;
    const gs::wire::IngestRequest ingest = stream.block(first, kTicksPerStep);
    gs::wire::ScoreLatestRequest latest;
    latest.entity = ingest.entity;
    latest.count = kTicksPerStep;

    const Clock::time_point sent = Clock::now();
    Clock::time_point ingested = sent;
    gs::wire::IngestReply reply;
    gs::ScoreResponse response;
    bool ok = true;
    try {
      reply = client.ingest(ingest);
      ingested = Clock::now();
      response = client.score_latest(latest);
    } catch (const std::exception&) {
      ok = false;
      ++stats.tally.errors;
    }
    const Clock::time_point done = Clock::now();
    ++stats.tally.attempted;
    stream.next += kTicksPerStep;
    if (ok && (reply.accepted != kTicksPerStep || reply.total_ticks != stream.next ||
               !verdicts_match(stream, first, response))) {
      ok = false;
      ++stats.tally.mismatches;
    }
    if (ok) stats.completions.push_back(std::chrono::duration<double>(done - t0).count());
    stats.latency.emplace_back(at_s, us_between(sent, done));
    stats.traced_block.push_back(traced_block);

    if (traced_block) {
      const std::uint64_t id = id_base + j * kClients + c;
      buffer->add(id, "client.step", "", kTicksPerStep, sent, done);
      buffer->add(id, "client.ingest", "client.step", kTicksPerStep, sent, ingested);
      buffer->add(id, "client.score_latest", "client.step", kTicksPerStep, ingested, done);
      if (ok && j % kTraceEvery == 0) {
        replay_stages(setup, c, stream, ingest, reply, latest, response, id, bench_store,
                      *buffer, stats);
      }
    }
  }
}

struct Phase {
  std::vector<ClientStats> clients;
  Clock::time_point t0;
};

Phase run_phase(Setup& setup, std::vector<EntityStream>& streams, double seconds, bool traced,
                std::uint64_t id_base, gd::ColumnStore& bench_store, Tracer& tracer) {
  Phase phase;
  phase.clients.resize(kClients);
  std::vector<std::vector<EntityStream*>> mine(kClients);
  for (std::size_t e = 0; e < streams.size(); ++e) mine[e % kClients].push_back(&streams[e]);
  phase.t0 = Clock::now();
  const Clock::time_point end =
      phase.t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
  run_clients(kClients, traced, tracer, [&](std::size_t c, Tracer::Buffer* buffer) {
    client_loop(setup, c, mine[c], phase.t0, end, traced, id_base, bench_store, buffer,
                phase.clients[c]);
  });
  return phase;
}

std::uint64_t gauge(const gs::wire::StatsSnapshot& stats, const std::string& name) {
  for (const auto& [key, value] : stats) {
    if (key == name) return value;
  }
  return 0;
}

}  // namespace

void run_stream_ingest(const Options& options, Report& report, Tracer& tracer) {
  std::unique_ptr<Setup> setup;
  const double setup_s =
      timed_setups<std::unique_ptr<Setup>>([&] { return set_up(options.seed); }, setup);

  std::filesystem::remove_all("store/bench");
  gd::ColumnStoreConfig bench_config;
  bench_config.root = "store/bench";
  bench_config.segment_capacity = kSegmentCapacity;
  gd::ColumnStore bench_store(bench_config, setup->fleet.model.spec.num_channels);
  std::vector<EntityStream> streams = make_streams(*setup, options.seed, bench_store);

  run_phase(*setup, streams, kWarmupSeconds, false, 0, bench_store, tracer);
  const Phase phase = run_phase(*setup, streams, options.seconds, options.trace,
                                std::uint64_t{1} << 32, bench_store, tracer);

  std::vector<std::pair<double, double>> latency;
  std::vector<double> latency_untraced, latency_traced, completions;
  std::uint64_t reconnects = 0;
  Tally total;
  for (const ClientStats& stats : phase.clients) {
    for (std::size_t i = 0; i < stats.latency.size(); ++i) {
      latency.push_back(stats.latency[i]);
      (stats.traced_block[i] ? latency_traced : latency_untraced)
          .push_back(stats.latency[i].second);
    }
    completions.insert(completions.end(), stats.completions.begin(), stats.completions.end());
    total += stats.tally;
  }
  std::uint64_t segments_sealed = 0, bytes_mapped = 0;
  for (std::size_t s = 0; s < 2; ++s) {
    const gs::wire::StatsSnapshot stats = setup->direct[0][s]->stats();
    segments_sealed += gauge(stats, "serve.store.segments") - gauge(stats, "serve.store.entities");
    bytes_mapped += gauge(stats, "serve.store.bytes_mapped");
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    reconnects += setup->clients[c]->reconnects();
    for (const auto& direct : setup->direct[c]) reconnects += direct->reconnects();
  }
  settle(total, "steps whose verdicts or ingest replies differ from the expected ones", report);

  // The typical step is the mean, not the p50. Step latency is bimodal on
  // the 4-vCPU VM this was tuned on: on every entity alike about a third of
  // the steps pay ~200 us more, as idle vCPUs wake. The share of slow steps
  // follows the host, and near one half it flips the p50 between the modes
  // (390 vs 580 us for one seed, quartile spread 0.31 over ten seeds); the
  // mean moves only in proportion to the share.
  const double mean = median_of_block_means(latency, kBlockSeconds);
  const double p50 = median_over_blocks(latency, kBlockSeconds, 0.5);
  const double p95 = median_over_blocks(latency, kBlockSeconds, 0.95);
  const double p99 = median_over_blocks(latency, kBlockSeconds, 0.99);
  // Windows per second of every whole block (a block's steps that finished
  // in it), the median over blocks like the latencies.
  std::vector<double> block_windows(
      static_cast<std::size_t>(options.seconds / kBlockSeconds), 0.0);
  for (const double done_s : completions) {
    const auto block = static_cast<std::size_t>(done_s / kBlockSeconds);
    if (block < block_windows.size()) block_windows[block] += kTicksPerStep / kBlockSeconds;
  }
  const double windows_per_s = median(block_windows);
  report.note("closed loop: " + std::to_string(kClients) +
              " TCP connections through a router to 2 shards, " +
              std::to_string(kTicksPerStep) + " ticks ingested + " +
              std::to_string(kTicksPerStep) + " windows scored per step, " +
              std::to_string(report.attempted) + " steps");
  report.note("store: " + std::to_string(segments_sealed) + " segments sealed, " +
              std::to_string(bytes_mapped) + " bytes mapped across both shards");

  if (!options.trace) {
    report.note("tick_to_verdict_mean_us = " + std::to_string(mean) +
                " us, tick_to_verdict_p50_us = " + std::to_string(p50) +
                " us, tick_to_verdict_p95_us = " + std::to_string(p95) +
                " us, tick_to_verdict_p99_us = " + std::to_string(p99) +
                " us, windows_per_s = " + std::to_string(windows_per_s) + " 1/s");
    report.add("latency_typical_us", mean, "us");
    report.add("latency_p95_us", p95, "us");
    report.add("throughput_per_s", windows_per_s, "1/s");
    report.add("setup_s", setup_s, "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  std::map<std::string, double> layers =
      serving_layers(tracer, "scoring.score_views", total, reconnects);
  const double views_ns = tracer.median_ns("scoring.score_views");
  layers["scoring.score_views_ns_per_window"] =
      tracer.median_ns_per_item("scoring.score_views");
  layers["store.append_ns_per_tick"] = tracer.median_ns_per_item("store.append");
  layers["store.cut_ns_per_window"] = tracer.median_ns_per_item("store.cut");
  layers["store.gather_ns_per_window"] = tracer.median_ns_per_item("store.gather");
  layers["store.segments_sealed"] = static_cast<double>(segments_sealed);
  layers["store.bytes_mapped"] = static_cast<double>(bytes_mapped);
  const double forward_ns = tracer.median_ns("router.score_latest_routed") -
                            tracer.median_ns("router.score_latest_direct");
  layers["router.forward_ns"] = forward_ns;
  layers["router.shard_for_ns"] = tracer.median_ns("router.shard_for");
  layers["trace.overhead_us"] = median(latency_traced) - median(latency_untraced);

  reconcile("stream_ingest, one Ingest + ScoreLatest step", tracer.median_ns("client.step") / 1e3,
            {{"wire.encode", layers["wire.encode_ns"] / 1e3},
             {"wire.decode", layers["wire.decode_ns"] / 1e3},
             {"transport.health_rtt", layers["transport.health_rtt_ns"] / 1e3, 2.0},
             {"router.forward", forward_ns / 1e3, 2.0},
             {"store.append", tracer.median_ns("store.append") / 1e3},
             {"store.cut", tracer.median_ns("store.cut") / 1e3},
             {"scoring.score_views", views_ns / 1e3}},
            report, layers);
  report.add_layers(layers);
}

}  // namespace perfbench
