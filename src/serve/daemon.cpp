#include "serve/daemon.hpp"

#include <cmath>
#include <exception>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "core/metrics.hpp"
#include "data/window.hpp"

namespace goodones::serve {

namespace {

ModelRegistry make_registry(const std::filesystem::path& root) {
  return root.empty() ? ModelRegistry() : ModelRegistry(root);
}

/// The daemon's provenance contract: every generation a verdict can name
/// must be replayable, so the initial bundle is persisted before serving.
ServingModel persist_initial(const ModelRegistry& registry, ServingModel model) {
  if (!registry.contains(registry_key(model))) registry.save(model);
  return model;
}

FrameServerConfig server_config_of(const DaemonConfig& config) {
  FrameServerConfig server;
  server.listen = config.listen;
  server.accept_poll_ms = config.accept_poll_ms;
  server.counter_prefix = "serve.daemon";
  return server;
}

data::ColumnStoreConfig store_config_of(const DaemonConfig& config) {
  data::ColumnStoreConfig store;
  store.root = config.store_root;
  store.segment_capacity = config.store_segment_capacity;
  store.mmap_reads = config.store_mmap;
  return store;
}

}  // namespace

Daemon::Daemon(ServingModel model, DaemonConfig config,
               AdaptiveController::BundleRebuilder rebuilder)
    : FrameServer(server_config_of(config)),
      config_(std::move(config)),
      registry_(make_registry(config_.registry_root)),
      service_(persist_initial(registry_, std::move(model)), config_.scoring),
      store_(store_config_of(config_), service_.model()->spec.num_channels) {
  const std::shared_ptr<const ServingModel> bundle = service_.model();
  roster_.insert(bundle->entity_names.begin(), bundle->entity_names.end());
  // Lineage tap: every canary transition (automatic or manual) is recorded
  // in the registry before the daemon answers anything else about it, so
  // which generation was primary when survives restarts. A lineage write
  // failure never breaks serving — it is counted and logged.
  service_.set_canary_observer([this](const CanaryEvent& event) {
    LineageEvent record;
    record.generation = event.candidate_generation;
    record.primary_generation = event.primary_generation;
    record.action = event.action;
    record.mirrored_windows = event.mirrored_windows;
    try {
      // Lineage is keyed generation-agnostically; the key's generation is
      // not part of the lineage file's name.
      registry_.append_lineage(registry_key(*service_.model()), record);
    } catch (const std::exception& error) {
      core::counters().add("serve.canary.lineage_failures", 1);
      common::log_warn("canary lineage write failed: ", error.what());
    }
    common::log_info("canary ",
                     record.action == LineageAction::kInstalled
                         ? "candidate installed: generation "
                         : (record.action == LineageAction::kPromoted
                                ? "promoted: generation "
                                : "rolled back: generation "),
                     event.candidate_generation, " (primary ",
                     event.primary_generation, ", ", event.mirrored_windows,
                     " mirrored windows, ", event.automatic ? "policy" : "manual",
                     ")");
  });
  if (config_.adaptive_enabled) {
    controller_.emplace(service_, config_.adaptive, std::move(rebuilder), &registry_);
  }
}

Daemon::~Daemon() {
  stop();
  service_.set_canary_observer(nullptr);
  // Persist partial trailing segments so a restarted daemon resumes the
  // exact tick history (memory-only stores make this a no-op).
  try {
    store_.flush();
  } catch (const std::exception& error) {
    common::log_error("store flush on shutdown failed: ", error.what());
  }
}

void Daemon::on_started() {
  common::log_info("daemon listening on ", endpoint().to_string(), " (generation ",
                   service_.generation(), ")");
}

void Daemon::on_stopping() {
  // Runs after every connection handler joined: no more observations can
  // arrive, so the refresh worker can settle its queue and park.
  if (controller_) controller_->drain();
}

wire::Frame Daemon::handle(const wire::Frame& request) {
  switch (request.type) {
    case wire::MessageType::kScore: {
      const ScoreRequest score = decode(wire::decode_score_request, request.payload);
      wire::Frame reply{wire::MessageType::kScoreReply,
                        wire::encode_score_response(service_.score(score))};
      core::counters().add("serve.daemon.scores", 1);
      core::counters().add("serve.daemon.windows_scored", score.windows.size());
      return reply;
    }
    case wire::MessageType::kIngest: {
      const wire::IngestRequest ingest = decode(wire::decode_ingest_request, request.payload);
      if (!roster_.contains(ingest.entity)) {
        throw common::PreconditionError("unknown entity in ingest request: " + ingest.entity);
      }
      if (!ingest.ticks.empty() && ingest.ticks.cols() != store_.num_channels()) {
        throw common::PreconditionError(
            "ingest tick width " + std::to_string(ingest.ticks.cols()) +
            " disagrees with the domain's " + std::to_string(store_.num_channels()) +
            " channels");
      }
      store_.append_block(ingest.entity, ingest.ticks, ingest.regimes);
      wire::IngestReply reply;
      reply.accepted = ingest.ticks.rows();
      reply.total_ticks = store_.ticks(ingest.entity);
      core::counters().add("serve.daemon.ingests", 1);
      core::counters().add("serve.daemon.ticks_ingested", ingest.ticks.rows());
      return {wire::MessageType::kIngestReply, wire::encode_ingest_reply(reply)};
    }
    case wire::MessageType::kScoreLatest: {
      const wire::ScoreLatestRequest latest =
          decode(wire::decode_score_latest_request, request.payload);
      if (latest.count == 0) {
        throw common::PreconditionError("score-latest window count must be >= 1");
      }
      const std::size_t seq_len = latest.seq_len != 0 ? static_cast<std::size_t>(latest.seq_len)
                                                      : data::kDefaultSeqLen;
      // Windows are zero-copy views over the store; unknown entities and
      // too-short histories surface as PreconditionError -> BadRequest.
      const std::vector<data::WindowView> views = store_.latest_windows(
          latest.entity, seq_len, static_cast<std::size_t>(latest.count));
      wire::Frame reply{wire::MessageType::kScoreLatestReply,
                        wire::encode_score_response(service_.score_views(latest.entity, views))};
      core::counters().add("serve.daemon.scores", 1);
      core::counters().add("serve.daemon.windows_scored", views.size());
      return reply;
    }
    case wire::MessageType::kStats: {
      wire::StatsSnapshot stats = core::counters().snapshot();
      stats.emplace_back("serve.daemon.generation", service_.generation());
      stats.emplace_back("serve.daemon.adaptive_enabled", controller_ ? 1 : 0);
      const data::ColumnStore::Stats store_stats = store_.stats();
      stats.emplace_back("serve.store.entities", store_stats.entities);
      stats.emplace_back("serve.store.ticks", store_stats.ticks);
      stats.emplace_back("serve.store.segments", store_stats.segments);
      stats.emplace_back("serve.store.bytes_mapped", store_stats.bytes_mapped);
      // Canary gauges: the tracker's exact counters plus the derived rates
      // scaled to integer ppm/micro units (the wire's stats values are u64).
      const CanaryMetrics canary = service_.canary_metrics();
      const auto scaled_micro = [](double value) -> std::uint64_t {
        const double micro = std::abs(value) * 1e6;
        if (micro >= 9.0e18) return 9000000000000000000ULL;
        return static_cast<std::uint64_t>(micro);
      };
      stats.emplace_back("serve.canary.mirroring",
                         canary.state == CanaryState::kMirroring ? 1 : 0);
      stats.emplace_back("serve.canary.epoch", canary.epoch);
      stats.emplace_back("serve.canary.candidate_generation",
                         service_.candidate_generation());
      stats.emplace_back("serve.canary.window_total", canary.mirrored_windows);
      stats.emplace_back("serve.canary.request_total", canary.mirrored_requests);
      stats.emplace_back("serve.canary.evaluations", canary.evaluations);
      stats.emplace_back("serve.canary.breach_streak", canary.breach_streak);
      for (std::size_t c = 0; c < canary.clusters.size(); ++c) {
        const CanaryClusterMetrics& cluster = canary.clusters[c];
        const std::string prefix =
            std::string("serve.canary.") + to_string(static_cast<Cluster>(c));
        stats.emplace_back(prefix + ".windows", cluster.mirrored_windows);
        stats.emplace_back(prefix + ".primary_flags", cluster.primary_flags);
        stats.emplace_back(prefix + ".candidate_flags", cluster.candidate_flags);
        stats.emplace_back(prefix + ".state_flips", cluster.state_flips);
        stats.emplace_back(prefix + ".flag_delta_ppm",
                           scaled_micro(cluster.flag_rate_delta()));
        stats.emplace_back(prefix + ".risk_distance_micro",
                           scaled_micro(cluster.risk_distance()));
      }
      return {wire::MessageType::kStatsReply, wire::encode_stats(stats)};
    }
    case wire::MessageType::kHealth: {
      // Deliberately cheap: no counter snapshot, no allocation beyond the
      // reply — this is what a router polls every few hundred ms per shard.
      wire::GenerationReply reply;
      reply.generation = service_.generation();
      return {wire::MessageType::kHealthReply, wire::encode_generation_reply(reply)};
    }
    case wire::MessageType::kRefresh: {
      wire::GenerationReply reply;
      if (controller_) {
        try {
          // Let any in-flight automatic refresh settle first so the reply
          // is deterministic about what is being served afterwards. In
          // canary mode a manual Refresh always FORCES a rebuild: staging
          // a candidate is safe by construction (the mirror measures it
          // before anything changes), so the operator verb means "start a
          // canary now", not "maybe, if the partition moved".
          controller_->drain();
          reply.flag = controller_->maybe_refresh(config_.adaptive.canary);
        } catch (const std::exception& error) {
          // Every rebuild failure is internal, a precondition one included.
          core::counters().add("serve.adaptive.refresh_failures", 1);
          throw ErrorReply(wire::ErrorCode::kInternal, error.what());
        }
      }
      reply.generation = service_.generation();
      return {wire::MessageType::kRefreshReply, wire::encode_generation_reply(reply)};
    }
    case wire::MessageType::kPromote:
    case wire::MessageType::kRollback: {
      const bool promote = request.type == wire::MessageType::kPromote;
      const wire::GenerationRequest target =
          decode(wire::decode_generation_request, request.payload);
      wire::GenerationReply reply;
      // Throws PreconditionError when a DIFFERENT candidate is staged.
      reply.flag = promote ? service_.promote_candidate(target.generation)
                           : service_.rollback_candidate(target.generation);
      // Nothing staged. The bare form must name SOMETHING to resolve. A
      // repeat naming a generation is idempotent success: a rollback's
      // candidate is gone either way, and a promote that already landed
      // left that generation serving (any other names an unknown one).
      if (!reply.flag && target.generation == 0) {
        throw common::PreconditionError("no canary candidate staged");
      }
      if (!reply.flag && promote && service_.generation() != target.generation) {
        throw common::PreconditionError("promote names unknown generation " +
                                        std::to_string(target.generation));
      }
      reply.generation = service_.generation();
      core::counters().add(promote ? "serve.daemon.promotes" : "serve.daemon.rollbacks", 1);
      return {promote ? wire::MessageType::kPromoteReply : wire::MessageType::kRollbackReply,
              wire::encode_generation_reply(reply)};
    }
    default:
      // Reply-typed frames (and the router-only Drain) arriving at a
      // shard: a confused peer, not a corrupt stream — answer and keep
      // the connection.
      throw common::PreconditionError(
          std::string("unexpected message type on the server side: ") +
          wire::to_string(request.type));
  }
}

// --- client ------------------------------------------------------------------

namespace {

/// The pre-mesh constructor's policy: dial once, never reconnect.
DaemonClientConfig fail_fast_config() {
  DaemonClientConfig config;
  config.channel.reconnect = false;
  config.channel.backoff.max_attempts = 1;
  return config;
}

}  // namespace

DaemonClient::DaemonClient(common::Endpoint endpoint, DaemonClientConfig config)
    : endpoint_(std::move(endpoint)),
      pool_(endpoint_, config.channel, config.pool_size) {
  // Fail fast on a dead endpoint instead of on the first request: dial one
  // channel now (it returns to the pool immediately).
  pool_.acquire()->ensure_connected();
}

DaemonClient::DaemonClient(const std::filesystem::path& socket_path)
    : DaemonClient(common::Endpoint::unix_socket(socket_path), fail_fast_config()) {}

wire::Frame DaemonClient::roundtrip(wire::MessageType type, const std::string& payload) {
  wire::ChannelPool::Lease channel = pool_.acquire();
  wire::Frame reply = channel->roundtrip(type, payload);
  if (reply.type == wire::MessageType::kError) {
    const wire::ErrorFrame error = wire::decode_error(reply.payload);
    const std::string what = std::string("daemon error (") + wire::to_string(error.code) +
                             "): " + error.message;
    switch (error.code) {
      case wire::ErrorCode::kBadRequest:
        throw common::PreconditionError(what);
      case wire::ErrorCode::kMalformedFrame:
      case wire::ErrorCode::kUnsupportedVersion:
        throw common::SerializationError(what);
      case wire::ErrorCode::kInternal:
      case wire::ErrorCode::kUnavailable:
        break;
    }
    throw std::runtime_error(what);
  }
  return reply;
}

ScoreResponse DaemonClient::score(const ScoreRequest& request) {
  return wire::decode_score_response(
      roundtrip(wire::MessageType::kScore, wire::encode_score_request(request)).payload);
}

wire::IngestReply DaemonClient::ingest(const wire::IngestRequest& request) {
  return wire::decode_ingest_reply(
      roundtrip(wire::MessageType::kIngest, wire::encode_ingest_request(request)).payload);
}

ScoreResponse DaemonClient::score_latest(const wire::ScoreLatestRequest& request) {
  return wire::decode_score_response(
      roundtrip(wire::MessageType::kScoreLatest, wire::encode_score_latest_request(request))
          .payload);
}

wire::StatsSnapshot DaemonClient::stats() {
  return wire::decode_stats(roundtrip(wire::MessageType::kStats, {}).payload);
}

wire::GenerationReply DaemonClient::health() {
  return wire::decode_generation_reply(roundtrip(wire::MessageType::kHealth, {}).payload);
}

wire::GenerationReply DaemonClient::refresh() {
  return wire::decode_generation_reply(roundtrip(wire::MessageType::kRefresh, {}).payload);
}

wire::GenerationReply DaemonClient::promote(std::uint64_t generation) {
  return wire::decode_generation_reply(
      roundtrip(wire::MessageType::kPromote, wire::encode_generation_request({generation}))
          .payload);
}

wire::GenerationReply DaemonClient::rollback(std::uint64_t generation) {
  return wire::decode_generation_reply(
      roundtrip(wire::MessageType::kRollback, wire::encode_generation_request({generation}))
          .payload);
}

wire::DrainReply DaemonClient::drain(const std::string& shard) {
  wire::DrainRequest request;
  request.shard = shard;
  return wire::decode_drain_reply(
      roundtrip(wire::MessageType::kDrain, wire::encode_drain_request(request)).payload);
}

void DaemonClient::shutdown() { (void)roundtrip(wire::MessageType::kShutdown, {}); }

}  // namespace goodones::serve
