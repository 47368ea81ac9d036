// The mesh front end: consistent-hash routing over backend scoring shards.
//
// A Router speaks the same framed protocol as a Daemon (FrameServer base)
// but owns no models: it maps every entity-keyed request's entity name
// (Score, Ingest, ScoreLatest — all three payloads lead with the entity)
// onto the HashRing of shard NAMES and forwards the payload byte-for-byte
// to the owning shard over a pooled, reconnecting wire::FrameChannel.
// Because the payload is never re-encoded, a verdict served through the
// mesh is bitwise-identical to one served by the shard directly — the
// property tests/serve_mesh_test.cpp pins against an in-process
// ScoringService. Entity-keyed routing also means an entity's Ingest
// stream and its ScoreLatest requests land on the SAME shard that scores
// it — the store is sharded exactly like the scoring work.
//
// Fault model (docs/MESH.md):
//   * Shards OWN their entity slices — there is no cross-shard failover.
//     When the owner is down, the forward channel retries it with bounded
//     exponential backoff until the shard comes back; only exhausted
//     retries surface as a typed kUnavailable error frame. That is what
//     makes "a shard restart costs latency, not lost requests" hold.
//   * The health prober is OBSERVABILITY, not membership: a probe failure
//     flips the shard's healthy gauge and logs, but never removes it from
//     the ring (its entities have nowhere else to go). Ring membership
//     changes only by explicit Drain.
//   * Drain (wire::kDrain, by shard name): remove from the ring first, so
//     no new request can pick the shard, then wait for in-flight forwards
//     to finish, then close its pooled connections.
//
// Stats: the router's own counter family ("serve.router.*") plus per-shard
// gauges synthesized into the snapshot — serve.router.shard.<name>.healthy
// /.draining/.generation/.reconnects — so one Stats round trip shows the
// whole mesh, including which generation each shard serves.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/frame_server.hpp"
#include "serve/hash_ring.hpp"
#include "serve/wire.hpp"

namespace goodones::serve {

/// One backend shard: a stable NAME (the ring identity — placement and
/// drain address this, and it survives the shard restarting or moving to
/// another port) plus the endpoint currently serving it.
struct RouterBackendSpec {
  std::string name;
  common::Endpoint endpoint;
};

struct RouterConfig {
  /// Where the router listens (unix:<path> or tcp:<host>:<port>).
  common::Endpoint listen;
  std::vector<RouterBackendSpec> backends;
  /// Virtual nodes per shard on the ring (see serve/hash_ring.hpp).
  std::size_t vnodes = 128;
  /// Pooled forward connections per shard (concurrent client requests for
  /// the same shard beyond this queue on the pool). Forward channels run
  /// the default wire::FrameChannelConfig: they reconnect with backoff and
  /// replay every verb the verb table allows, so a shard restart mid-stream
  /// is absorbed here rather than surfaced to the router's clients.
  std::size_t pool_size = 4;
  /// Health-probe cadence; 0 disables the prober thread.
  int health_interval_ms = 500;
  /// Probe receive timeout — a wedged shard flips unhealthy after this.
  int health_timeout_ms = 2000;
  int accept_poll_ms = 100;
};

/// Point-in-time view of one shard, for tests and operators.
struct ShardStatus {
  std::string name;
  common::Endpoint endpoint;
  bool healthy = false;
  bool draining = false;
  std::uint64_t generation = 0;  ///< last generation reported by probe/refresh
  std::uint64_t in_flight = 0;
  std::uint64_t reconnects = 0;  ///< forward-pool reconnects (restarts absorbed)
};

class Router final : public FrameServer {
 public:
  explicit Router(RouterConfig config);
  ~Router() override;

  /// The shard name owning `entity` (what a Score for it would route to).
  /// Throws common::PreconditionError when the ring is empty.
  std::string shard_for(std::string_view entity) const;

  /// Removes the shard from the ring, waits for its in-flight forwards,
  /// closes its pooled connections. false = no such shard on the ring.
  /// Also reachable in-band via a wire::kDrain frame.
  bool drain(const std::string& shard);

  std::vector<ShardStatus> shards() const;

 protected:
  wire::Frame handle(const wire::Frame& request) override;
  void on_started() override;
  void on_stopping() override;

 private:
  struct Backend {
    Backend(const RouterBackendSpec& spec, std::size_t pool_size,
            const wire::FrameChannelConfig& probe);

    std::string name;
    common::Endpoint endpoint;
    wire::ChannelPool pool;
    /// Prober-thread-only fail-fast channel (never contends with the pool).
    wire::FrameChannel probe;
    std::atomic<bool> healthy{false};
    std::atomic<bool> draining{false};
    std::atomic<std::uint64_t> generation{0};
    std::atomic<std::uint64_t> in_flight{0};
  };

  /// Decrements in_flight on scope exit; wakes a waiting drain.
  class InFlightGuard;

  Backend* acquire_backend(std::string_view entity, std::string& owner_out);
  /// Entity-keyed forwarding shared by Score, Ingest and ScoreLatest: peek
  /// the entity (every such payload leads with it), pick the owning shard,
  /// relay the payload byte-for-byte. Whether the forward channel may
  /// replay it comes from the verb table: Score and ScoreLatest replay
  /// safely on a fresh connection, Ingest must NOT (an append is not
  /// idempotent — a torn connection cannot tell "lost before the append"
  /// from "lost after", so the failure surfaces to the client).
  wire::Frame forward(const wire::Frame& request);
  /// Refresh/Promote/Rollback broadcast: the frame is forwarded verbatim to
  /// every non-draining shard and their GenerationReplies aggregate into
  /// one reply of the verb's reply type — flag set when any shard set it,
  /// the max generation. A shard's Error frame (a Promote with no matching
  /// staged candidate, a Refresh whose rebuild threw) counts as reached;
  /// when no shard applied, the last one is relayed with its own code,
  /// prefixed with the shard's name. Nothing reachable is kUnavailable.
  /// `verb` names the failure counter and log lines.
  wire::Frame broadcast(const wire::Frame& request, const char* verb);
  void probe_loop();

  RouterConfig config_;
  std::vector<std::unique_ptr<Backend>> backends_;

  mutable std::mutex ring_mutex_;  ///< guards ring_ and the lookup+in_flight++ pairing
  HashRing ring_;

  std::mutex drain_mutex_;  ///< wait-side of the in-flight drain handshake
  std::condition_variable drain_cv_;

  std::thread prober_;
  std::mutex prober_mutex_;
  std::condition_variable prober_cv_;
  bool prober_stop_ = false;
};

}  // namespace goodones::serve
