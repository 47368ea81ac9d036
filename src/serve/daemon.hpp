// The long-lived serving daemon: one scoring shard of the mesh.
//
// A Daemon owns the full serving stack — a ModelRegistry (bundle +
// profiler-state persistence), a ScoringService (hot-swappable bundle
// snapshots) and an AdaptiveController (online risk profiling with
// the dedicated refresh worker) — and exposes it over any transport the
// common::Endpoint seam names (unix:<path> for single-host IPC,
// tcp:<host>:<port> for the mesh), speaking the length-prefixed binary
// protocol in serve/wire.hpp:
//
//   Score     entity + raw windows -> per-window forecast/residual/verdict/
//             risk, tagged with the bundle generation that produced them
//             (every verdict is auditable to exactly one published bundle —
//             adaptive defenses get probed, provenance is the answer)
//   Ingest    entity + raw ticks -> appended to the daemon-owned
//             data::ColumnStore (clients stream history once instead of
//             re-sending seq_len rows per window)
//   ScoreLatest  "score entity X now": windows are cut as zero-copy views
//             over the store and scored through the same core as Score —
//             verdicts are bitwise-identical for the same window bytes
//   Stats     the core::metrics::counters() snapshot + daemon gauges
//             (including serve.store.* store gauges)
//   Health    cheap liveness probe (no counter snapshot): serving
//             generation + draining flag — what the router's prober polls
//   Refresh   force a reassessment now (the admin sibling of the automatic
//             cadence); replies whether a new generation was published. In
//             canary mode (adaptive.canary) the rebuild is FORCED and
//             staged as a candidate — promotion is measured, not assumed
//   Promote   make the staged canary candidate the primary (by generation;
//             0 = whatever is staged). Unknown generations answer a typed
//             BadRequest; duplicates answer flag = false (retry-safe)
//   Rollback  drop the staged candidate, primary untouched (same contract)
//   Shutdown  stop accepting, drain in-flight connections, exit wait()
//             (FrameServer's own verb)
//
// Canary lifecycle events (install/promote/rollback, automatic or manual)
// are appended to the registry's promotion lineage, so the audit trail of
// which generation was primary when — and why it changed — survives
// restarts alongside the bundles themselves.
//
// Lifecycle, concurrency and failure mapping live in the FrameServer base
// (shared with serve::Router): one accept loop, one handler thread per
// connection, and one path per verb — handle() returns the reply frame (its
// counters already added), FrameServer sends it or the typed Error frame a
// thrown failure maps to.
// Detector retraining never runs on a connection thread: the controller's
// refresh worker rebuilds and hot-swaps in the background while scores
// keep flowing (tests/serve_daemon_test.cpp pins a latency bound on
// concurrent scores during a slow rebuild).
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>

#include "data/column_store.hpp"
#include "serve/adaptive_controller.hpp"
#include "serve/frame_server.hpp"
#include "serve/model_registry.hpp"
#include "serve/scoring_service.hpp"
#include "serve/wire.hpp"

namespace goodones::serve {

struct DaemonConfig {
  /// Where the daemon listens: unix:<path> (one daemon per path, must fit
  /// sockaddr_un ~107 bytes) or tcp:<host>:<port> (port 0 = ephemeral;
  /// Daemon::endpoint() reports the resolved port after start()).
  common::Endpoint listen;
  ScoringServiceConfig scoring;
  /// Adaptive-loop tuning. Automatic rebuilds run on the controller's
  /// worker, never a connection thread.
  AdaptiveControllerConfig adaptive;
  /// With false the daemon serves a frozen bundle (no profiling, no
  /// refreshes; Refresh frames answer flag = false).
  bool adaptive_enabled = true;
  /// Registry root; empty = the default <artifacts>/models.
  std::filesystem::path registry_root;
  /// Accept-loop poll granularity (how quickly stop() is observed).
  int accept_poll_ms = 100;
  /// Root directory of the daemon-owned telemetry store (Ingest /
  /// ScoreLatest). Empty = memory-only: history lives for the daemon's
  /// lifetime but is never persisted.
  std::filesystem::path store_root;
  /// Ticks per store segment; segments seal (and persist, with a root) at
  /// exactly this boundary.
  std::size_t store_segment_capacity = 4096;
  /// mmap sealed segments on read (false = whole-file read fallback).
  bool store_mmap = true;
};

class Daemon final : public FrameServer {
 public:
  /// Takes ownership of the serving bundle. The bundle (and every
  /// generation the adaptive loop later publishes) is persisted through
  /// the daemon's registry, so any verdict's generation can be replayed.
  /// `rebuilder` is handed to the AdaptiveController: empty = routing-only
  /// refreshes; wrap build_serving_model(framework, kind, partition,
  /// generation) for detector-retraining refreshes.
  Daemon(ServingModel model, DaemonConfig config,
         AdaptiveController::BundleRebuilder rebuilder = {});
  ~Daemon() override;

  ScoringService& service() noexcept { return service_; }
  /// The daemon-owned telemetry store behind Ingest/ScoreLatest.
  data::ColumnStore& store() noexcept { return store_; }
  const ModelRegistry& registry() const noexcept { return registry_; }
  /// nullptr when adaptive_enabled is false.
  AdaptiveController* controller() noexcept {
    return controller_ ? &*controller_ : nullptr;
  }
  std::uint64_t generation() const { return service_.generation(); }

 protected:
  wire::Frame handle(const wire::Frame& request) override;
  void on_started() override;
  void on_stopping() override;

 private:
  DaemonConfig config_;
  ModelRegistry registry_;
  ScoringService service_;
  /// Declared after service_: its channel count comes from the served
  /// bundle's domain spec.
  data::ColumnStore store_;
  /// The bundle roster is fixed for the daemon's lifetime (swap_model
  /// enforces an identical entity set), so Ingest validates entities
  /// against this O(1) index instead of the snapshot's vector.
  std::unordered_set<std::string> roster_;
  std::optional<AdaptiveController> controller_;
};

/// Reconnection/pooling policy of a DaemonClient.
struct DaemonClientConfig {
  /// Concurrent wire connections (requests beyond this block until one
  /// frees up). Each connection is one wire::FrameChannel.
  std::size_t pool_size = 1;
  /// Per-connection dial/reconnect/replay policy. The default reconnects
  /// with bounded exponential backoff and replays every verb the verb table
  /// (wire::find_verb) allows on a fresh connection — a shard restart
  /// mid-stream costs latency, not errors. Ingest, Drain and Shutdown are
  /// never replayed. Set channel.reconnect = false for fail-fast semantics.
  wire::FrameChannelConfig channel;
};

/// Client side of the wire protocol, transport-agnostic and (optionally)
/// restart-transparent. Error frames surface as typed exceptions —
/// BadRequest as common::PreconditionError, malformed/version as
/// common::SerializationError, Internal/Unavailable as std::runtime_error.
/// Thread-safe: concurrent calls lease distinct pooled connections.
class DaemonClient {
 public:
  /// Connects one pooled channel immediately to fail fast; throws
  /// common::SocketError when the endpoint stays unreachable through the
  /// configured backoff schedule.
  explicit DaemonClient(common::Endpoint endpoint, DaemonClientConfig config = {});

  /// Unix-path convenience (the pre-mesh constructor): single connection,
  /// NO reconnect — dead-transport errors surface immediately, exactly the
  /// old single-socket behavior.
  explicit DaemonClient(const std::filesystem::path& socket_path);

  const common::Endpoint& endpoint() const noexcept { return endpoint_; }

  ScoreResponse score(const ScoreRequest& request);
  /// Streams raw ticks into the daemon's store. NEVER auto-retried, even
  /// over a reconnecting channel: an append is not idempotent, and a torn
  /// connection cannot tell "lost before the append" from "lost after".
  wire::IngestReply ingest(const wire::IngestRequest& request);
  /// Scores the entity's most recent stored windows (server-side cut).
  ScoreResponse score_latest(const wire::ScoreLatestRequest& request);
  wire::StatsSnapshot stats();
  /// flag = draining (see wire::GenerationReply).
  wire::GenerationReply health();
  /// flag = a new generation was published (canary mode: staged).
  wire::GenerationReply refresh();
  /// Promotes the daemon's staged canary candidate (0 = whatever is
  /// staged); flag = this call applied it. Auto-retried on a torn
  /// connection: address an explicit generation for exactly-once semantics
  /// across retries.
  wire::GenerationReply promote(std::uint64_t generation = 0);
  /// Drops the staged canary candidate (same addressing as promote()).
  wire::GenerationReply rollback(std::uint64_t generation = 0);
  /// Router admin: drain shard `shard` out of the ring (see wire::DrainRequest).
  wire::DrainReply drain(const std::string& shard);
  /// Asks the server to stop; returns once it acknowledged. Never
  /// auto-retried: a connection that dies after the send may mean the
  /// shutdown was already accepted.
  void shutdown();

  /// Total reconnects across the pool — how often the client survived a
  /// server restart (fault-injection tests assert this moved).
  std::uint64_t reconnects() const { return pool_.reconnects(); }

 private:
  /// The verb's reply frame; an Error frame is thrown as typed above.
  wire::Frame roundtrip(wire::MessageType type, const std::string& payload);

  common::Endpoint endpoint_;
  wire::ChannelPool pool_;
};

}  // namespace goodones::serve
