#include "serve/router.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "core/metrics.hpp"

namespace goodones::serve {

namespace {

FrameServerConfig server_config_of(const RouterConfig& config) {
  FrameServerConfig server;
  server.listen = config.listen;
  server.accept_poll_ms = config.accept_poll_ms;
  server.counter_prefix = "serve.router";
  return server;
}

wire::FrameChannelConfig probe_config_of(const RouterConfig& config) {
  // The prober must FAIL fast, not mask outages: one dial attempt, no
  // reconnect-and-replay, and a bounded receive timeout so a wedged shard
  // (accepting but silent) flips unhealthy instead of wedging the prober.
  wire::FrameChannelConfig probe;
  probe.reconnect = false;
  probe.backoff.max_attempts = 1;
  probe.recv_timeout_ms = config.health_timeout_ms;
  return probe;
}

}  // namespace

Router::Backend::Backend(const RouterBackendSpec& spec, std::size_t pool_size,
                         const wire::FrameChannelConfig& probe_config)
    : name(spec.name),
      endpoint(spec.endpoint),
      pool(spec.endpoint, wire::FrameChannelConfig{}, pool_size),
      probe(spec.endpoint, probe_config) {}

class Router::InFlightGuard {
 public:
  InFlightGuard(Router& router, Backend& backend) : router_(router), backend_(backend) {}
  InFlightGuard(const InFlightGuard&) = delete;
  InFlightGuard& operator=(const InFlightGuard&) = delete;
  ~InFlightGuard() {
    if (backend_.in_flight.fetch_sub(1) == 1 && backend_.draining.load()) {
      // A drain may be blocked on us; the lock pairs with its wait so the
      // notify cannot slip between its predicate check and its sleep.
      const std::lock_guard<std::mutex> lock(router_.drain_mutex_);
      router_.drain_cv_.notify_all();
    }
  }

 private:
  Router& router_;
  Backend& backend_;
};

Router::Router(RouterConfig config)
    : FrameServer(server_config_of(config)),
      config_(std::move(config)),
      ring_(config_.vnodes) {
  GO_EXPECTS(!config_.backends.empty());
  const wire::FrameChannelConfig probe = probe_config_of(config_);
  for (const RouterBackendSpec& spec : config_.backends) {
    GO_EXPECTS(!spec.name.empty());
    GO_EXPECTS(!spec.endpoint.empty());
    ring_.add(spec.name);  // throws PreconditionError on duplicate names
    backends_.push_back(
        std::make_unique<Backend>(spec, config_.pool_size, probe));
  }
}

Router::~Router() { stop(); }

void Router::on_started() {
  common::log_info("router listening on ", endpoint().to_string(), " (",
                   backends_.size(), " shards, ", config_.vnodes, " vnodes)");
  if (config_.health_interval_ms > 0) {
    {
      const std::lock_guard<std::mutex> lock(prober_mutex_);
      prober_stop_ = false;
    }
    prober_ = std::thread([this] { probe_loop(); });
  }
}

void Router::on_stopping() {
  {
    const std::lock_guard<std::mutex> lock(prober_mutex_);
    prober_stop_ = true;
  }
  prober_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
}

std::string Router::shard_for(std::string_view entity) const {
  const std::lock_guard<std::mutex> lock(ring_mutex_);
  return ring_.owner(entity);
}

std::vector<ShardStatus> Router::shards() const {
  std::vector<ShardStatus> out;
  out.reserve(backends_.size());
  for (const auto& backend : backends_) {
    ShardStatus status;
    status.name = backend->name;
    status.endpoint = backend->endpoint;
    status.healthy = backend->healthy.load();
    status.draining = backend->draining.load();
    status.generation = backend->generation.load();
    status.in_flight = backend->in_flight.load();
    status.reconnects = backend->pool.reconnects();
    out.push_back(std::move(status));
  }
  return out;
}

Router::Backend* Router::acquire_backend(std::string_view entity, std::string& owner_out) {
  // Owner lookup and in_flight++ must be one atomic step against drain():
  // drain removes the shard from the ring under this same mutex BEFORE
  // waiting for in-flight forwards, so either this request incremented
  // first (drain waits for it) or the removed shard can no longer be
  // picked. No forward ever runs on a shard whose pool a drain is closing.
  const std::lock_guard<std::mutex> lock(ring_mutex_);
  owner_out = ring_.owner(entity);
  for (const auto& backend : backends_) {
    if (backend->name == owner_out) {
      backend->in_flight.fetch_add(1);
      return backend.get();
    }
  }
  throw common::PreconditionError("router: ring names unknown shard: " + owner_out);
}

bool Router::drain(const std::string& shard) {
  Backend* backend = nullptr;
  {
    const std::lock_guard<std::mutex> lock(ring_mutex_);
    if (!ring_.remove(shard)) return false;
    for (const auto& candidate : backends_) {
      if (candidate->name == shard) {
        backend = candidate.get();
        break;
      }
    }
  }
  GO_EXPECTS(backend != nullptr);  // ring names are a subset of backends_
  backend->draining.store(true);
  {
    std::unique_lock<std::mutex> lock(drain_mutex_);
    drain_cv_.wait(lock, [backend] { return backend->in_flight.load() == 0; });
  }
  backend->pool.close_connections();
  core::counters().add("serve.router.drains", 1);
  common::log_info("router drained shard ", shard);
  return true;
}

wire::Frame Router::forward(const wire::Frame& request) {
  const std::string entity = decode(wire::peek_score_entity, request.payload);
  std::string owner;
  Backend* backend = nullptr;
  try {
    backend = acquire_backend(entity, owner);
  } catch (const common::PreconditionError& error) {
    // Empty ring (everything drained) — nothing can own this entity.
    throw ErrorReply(wire::ErrorCode::kUnavailable, error.what());
  }
  const InFlightGuard guard(*this, *backend);
  wire::Frame reply;
  try {
    const wire::ChannelPool::Lease channel = backend->pool.acquire();
    reply = channel->roundtrip(request.type, request.payload);
  } catch (const common::SocketError& error) {
    // The owner stayed unreachable through every reconnect round. Its
    // entities have no other home (shards own their slices), so this is a
    // typed Unavailable to the client — who may simply retry later.
    core::counters().add("serve.router.forward_failures", 1);
    backend->healthy.store(false);
    throw ErrorReply(wire::ErrorCode::kUnavailable,
                     "shard '" + owner + "' unreachable: " + error.what());
  }
  // Relayed verbatim — reply bytes untouched (the bitwise guarantee for
  // kScoreReply/kScoreLatestReply), and a shard-side Error frame passes
  // through as-is too (it is the shard's, so not in error_frames here).
  core::counters().add("serve.router.forwards", 1);
  return reply;
}

wire::Frame Router::broadcast(const wire::Frame& request, const char* verb) {
  // Best effort per shard: a broadcast must not fail wholesale because one
  // shard is mid-restart. The payload is relayed verbatim, so an explicit
  // Promote/Rollback generation keeps its exactly-once meaning end to end.
  wire::GenerationReply aggregate;
  std::size_t reached = 0;
  std::size_t attempted = 0;
  std::optional<wire::ErrorFrame> refusal;
  for (const auto& backend : backends_) {
    if (backend->draining.load()) continue;
    ++attempted;
    try {
      const wire::ChannelPool::Lease channel = backend->pool.acquire();
      const wire::Frame reply = channel->roundtrip(request.type, request.payload);
      if (reply.type == wire::MessageType::kError) {
        // The shard answered, and refused: a Promote/Rollback with no (or a
        // different) staged candidate, a Refresh whose rebuild threw.
        // Remember it in case no shard applies.
        refusal = wire::decode_error(reply.payload);
        refusal->message = "shard '" + backend->name + "': " + refusal->message;
        ++reached;
        continue;
      }
      const wire::GenerationReply decoded = wire::decode_generation_reply(reply.payload);
      aggregate.flag = aggregate.flag || decoded.flag;
      aggregate.generation = std::max(aggregate.generation, decoded.generation);
      backend->generation.store(decoded.generation);
      ++reached;
    } catch (const std::exception& error) {
      core::counters().add(std::string("serve.router.") + verb + "_failures", 1);
      common::log_warn("router: ", verb, " of shard ", backend->name, " failed: ",
                       error.what());
    }
  }
  if (reached == 0 && attempted > 0) {
    throw ErrorReply(wire::ErrorCode::kUnavailable,
                     std::string(verb) + " reached no shard (all unreachable)");
  }
  if (!aggregate.flag && refusal) {
    // No shard applied and at least one refused: relay the last refusal with
    // its own code, so a mistyped generation or a failed rebuild fails
    // loudly instead of reading as a silent no-op.
    throw ErrorReply(refusal->code, refusal->message);
  }
  return {wire::find_verb(request.type)->reply, wire::encode_generation_reply(aggregate)};
}

wire::Frame Router::handle(const wire::Frame& request) {
  switch (request.type) {
    case wire::MessageType::kScore:
    case wire::MessageType::kScoreLatest:
    case wire::MessageType::kIngest:
      return forward(request);
    case wire::MessageType::kStats: {
      wire::StatsSnapshot stats = core::counters().snapshot();
      std::uint64_t on_ring = 0;
      for (const auto& backend : backends_) {
        const std::string prefix = "serve.router.shard." + backend->name + ".";
        const bool draining = backend->draining.load();
        if (!draining) ++on_ring;
        stats.emplace_back(prefix + "healthy", backend->healthy.load() ? 1 : 0);
        stats.emplace_back(prefix + "draining", draining ? 1 : 0);
        stats.emplace_back(prefix + "generation", backend->generation.load());
        stats.emplace_back(prefix + "in_flight", backend->in_flight.load());
        stats.emplace_back(prefix + "reconnects", backend->pool.reconnects());
      }
      stats.emplace_back("serve.router.shards", on_ring);
      return {wire::MessageType::kStatsReply, wire::encode_stats(stats)};
    }
    case wire::MessageType::kHealth: {
      // The router is healthy iff it can answer; its generation is the max a
      // healthy shard serves (what the last probe/refresh learned).
      wire::GenerationReply reply;
      for (const auto& backend : backends_) {
        if (backend->healthy.load() && !backend->draining.load()) {
          reply.generation = std::max(reply.generation, backend->generation.load());
        }
      }
      return {wire::MessageType::kHealthReply, wire::encode_generation_reply(reply)};
    }
    case wire::MessageType::kRefresh:
      return broadcast(request, "refresh");
    case wire::MessageType::kPromote:
      return broadcast(request, "promote");
    case wire::MessageType::kRollback:
      return broadcast(request, "rollback");
    case wire::MessageType::kDrain: {
      const wire::DrainRequest target = decode(wire::decode_drain_request, request.payload);
      wire::DrainReply reply;
      reply.drained = drain(target.shard);
      reply.message = reply.drained ? "shard '" + target.shard + "' drained"
                                    : "no shard '" + target.shard + "' on the ring";
      return {wire::MessageType::kDrainReply, wire::encode_drain_reply(reply)};
    }
    default:
      throw common::PreconditionError(std::string("unexpected message type at the router: ") +
                                      wire::to_string(request.type));
  }
}

void Router::probe_loop() {
  const auto interval = std::chrono::milliseconds(config_.health_interval_ms);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(prober_mutex_);
      if (prober_cv_.wait_for(lock, interval, [this] { return prober_stop_; })) return;
    }
    for (const auto& backend : backends_) {
      if (backend->draining.load()) continue;
      const bool was_healthy = backend->healthy.load();
      try {
        const wire::Frame reply = backend->probe.roundtrip(wire::MessageType::kHealth, {});
        if (reply.type != wire::MessageType::kHealthReply) {
          throw common::SerializationError(
              std::string("probe got ") + wire::to_string(reply.type));
        }
        const wire::GenerationReply health = wire::decode_generation_reply(reply.payload);
        backend->generation.store(health.generation);
        backend->healthy.store(true);
        if (!was_healthy) {
          common::log_info("router: shard ", backend->name, " healthy (generation ",
                           health.generation, ")");
        }
      } catch (const std::exception& error) {
        backend->probe.close();
        backend->healthy.store(false);
        core::counters().add("serve.router.probe_failures", 1);
        if (was_healthy) {
          common::log_warn("router: shard ", backend->name, " unhealthy: ", error.what());
        }
      }
    }
  }
}

}  // namespace goodones::serve
