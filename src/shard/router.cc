#include "shard/router.h"

#include <chrono>
#include <utility>

#include "common/strings.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "serve/snapshot.h"

namespace visclean {
namespace shard {

namespace {

/// Transport-level failures that mean "the shard, not the request": the
/// router's cue to declare the peer dead and fail over. Application errors
/// (kNotFound, kInvalidArgument, ...) travel back to the client untouched.
bool IsTransportFailure(const Status& status) {
  return status.code() == StatusCode::kIoError ||
         status.code() == StatusCode::kDeadlineExceeded;
}

/// Field-by-field sum: the router's kStats answer is the whole fleet.
void AddStats(ServeStats& into, const ServeStats& from) {
  into.sessions_created += from.sessions_created;
  into.steps += from.steps;
  into.answers += from.answers;
  into.snapshots += from.snapshots;
  into.evictions += from.evictions;
  into.restores_from_disk += from.restores_from_disk;
  into.rejected_capacity += from.rejected_capacity;
  into.rejected_inflight += from.rejected_inflight;
  into.rejected_session_queue += from.rejected_session_queue;
  into.detect_full_scans += from.detect_full_scans;
  into.detect_delta_updates += from.detect_delta_updates;
  into.erg_full_builds += from.erg_full_builds;
  into.erg_delta_updates += from.erg_delta_updates;
  into.sim_join_full += from.sim_join_full;
  into.sim_join_fallbacks += from.sim_join_fallbacks;
  into.sim_join_delta_syncs += from.sim_join_delta_syncs;
}

WireResponse AckResponse(uint64_t request_id) {
  WireResponse response;
  response.type = WireResponseType::kAck;
  response.request_id = request_id;
  return response;
}

}  // namespace

ShardRouter::ShardRouter(RouterOptions options)
    : options_(std::move(options)),
      c_forwards_(registry_.GetCounter("router.forwards")),
      c_failovers_(registry_.GetCounter("router.failovers")),
      c_migrations_(registry_.GetCounter("router.migrations")),
      c_recovered_(registry_.GetCounter("router.recovered_sessions")),
      c_lost_(registry_.GetCounter("router.lost_sessions")),
      h_forward_ns_(registry_.GetHistogram("router.forward_ns")),
      pool_([&] {
        ClientOptions c = options_.client;
        if (c.io_timeout_ms == 0) c.io_timeout_ms = 5000;
        return c;
      }()),
      migrator_(placement_, pool_),
      ring_(options_.ring_replicas) {}

ShardRouter::~ShardRouter() { Stop(); }

Status ShardRouter::Start() {
  {
    std::lock_guard<std::mutex> lock(topo_mu_);
    VC_CHECK(!started_, "ShardRouter::Start called twice");
    for (const RouterShardConfig& config : options_.shards) {
      if (shards_.count(config.shard_id)) {
        return Status::InvalidArgument(
            StrFormat("duplicate shard id %u", config.shard_id));
      }
      ShardState state;
      state.port = config.port;
      state.snapshot_dir = config.snapshot_dir;
      shards_.emplace(config.shard_id, state);
      ring_.AddShard(config.shard_id);
    }
    started_ = true;
  }
  AnnounceEpoch();
  if (options_.rebalance_interval_ms > 0) {
    rebalance_thread_ = std::thread([this] { RebalanceLoop(); });
  }
  return Status::Ok();
}

void ShardRouter::Stop() {
  {
    std::lock_guard<std::mutex> lock(rebalance_mu_);
    if (stop_) return;
    stop_ = true;
  }
  rebalance_cv_.notify_all();
  if (rebalance_thread_.joinable()) rebalance_thread_.join();
}

Result<std::pair<uint16_t, uint64_t>> ShardRouter::PortAndEpoch(
    uint32_t shard_id, bool allow_draining) const {
  std::lock_guard<std::mutex> lock(topo_mu_);
  auto it = shards_.find(shard_id);
  if (it == shards_.end()) {
    return Status::NotFound(StrFormat("unknown shard %u", shard_id));
  }
  if (!it->second.alive) {
    return Status::Unavailable(StrFormat("shard %u is dead", shard_id));
  }
  if (it->second.draining && !allow_draining) {
    return Status::Unavailable(StrFormat("shard %u is draining", shard_id));
  }
  return std::make_pair(it->second.port, epoch_);
}

Result<MigrationEndpoints> ShardRouter::ResolveTarget(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(topo_mu_);
  Result<uint32_t> owner = ring_.OwnerOf(id);
  if (!owner.ok()) return owner.status();
  auto it = shards_.find(owner.value());
  VC_CHECK(it != shards_.end(), "ring member missing from shard map");
  MigrationEndpoints endpoints;
  endpoints.target_shard = owner.value();
  endpoints.target_port = it->second.port;
  endpoints.epoch = epoch_;
  return endpoints;
}

WireResponse ShardRouter::Handle(const WireRequest& request) {
  WireResponse response;
  switch (request.type) {
    case WireRequestType::kCreate:
    case WireRequestType::kRestore:
    case WireRequestType::kImportState:
      response = RouteAdmission(request);
      break;
    case WireRequestType::kStep:
    case WireRequestType::kAnswer:
    case WireRequestType::kGetStatus:
    case WireRequestType::kSnapshot:
    case WireRequestType::kClose:
    case WireRequestType::kExportState:
      response = RouteSession(request);
      break;
    case WireRequestType::kStats:
      response = AggregateStats(request);
      break;
    case WireRequestType::kMetrics:
      response = AggregateMetrics(request);
      break;
    case WireRequestType::kTraces:
      // The tracer is process-global on purpose: in-process fleets run the
      // router and its shards in one address space, so forwarded trace ids
      // land in the same ring and the router answers for everyone.
      response.type = WireResponseType::kTraces;
      response.metrics = obs::ExportTracesJson(obs::Tracer::Default().Captured());
      break;
    case WireRequestType::kJoinShard: {
      Status joined = JoinShard(request.shard_id,
                                static_cast<uint16_t>(request.port));
      response = joined.ok() ? AckResponse(request.request_id)
                             : ErrorResponse(request.request_id, joined);
      break;
    }
    case WireRequestType::kDrainShard: {
      Status drained = DrainShard(request.shard_id);
      response = drained.ok() ? AckResponse(request.request_id)
                              : ErrorResponse(request.request_id, drained);
      break;
    }
    case WireRequestType::kMigrateSession: {
      Status moved = MigrateSession(request.session_id, request.shard_id);
      response = moved.ok() ? AckResponse(request.request_id)
                            : ErrorResponse(request.request_id, moved);
      break;
    }
    case WireRequestType::kTopology:
      response.type = WireResponseType::kTopology;
      response.topology = Topology();
      break;
    case WireRequestType::kForwarded:
    case WireRequestType::kSetRole:
      response = ErrorResponse(
          request.request_id,
          Status::InvalidArgument(
              "shard control frames are not accepted by the router"));
      break;
  }
  response.request_id = request.request_id;
  return response;
}

WireResponse ShardRouter::RouteAdmission(const WireRequest& request) {
  obs::ScopedSpan span("router.route");
  Result<MigrationEndpoints> target = ResolveTarget(request.session_id);
  if (!target.ok()) return ErrorResponse(request.request_id, target.status());
  c_forwards_->Add(1);
#ifndef VISCLEAN_OBS_OFF
  uint64_t forward_start_ns = obs::MonotonicNs();
#endif
  Result<WireResponse> response =
      ForwardCall(pool_, target.value().target_shard,
                  target.value().target_port, target.value().epoch, request);
#ifndef VISCLEAN_OBS_OFF
  uint64_t forward_end_ns = obs::MonotonicNs();
  h_forward_ns_->Record(forward_end_ns - forward_start_ns);
  obs::RecordSpan("router.forward", forward_start_ns, forward_end_ns);
#endif
  if (!response.ok()) {
    return ErrorResponse(request.request_id, response.status());
  }
  placement_.Assign(request.session_id, target.value().target_shard);
  return response.value();
}

WireResponse ShardRouter::RouteSession(const WireRequest& request) {
  obs::ScopedSpan span("router.route");
  const std::string& id = request.session_id;
  Status last = Status::Internal("unroutable");
  for (int attempt = 0; attempt < 2; ++attempt) {
    Result<uint32_t> shard =
        placement_.AcquireRoute(id, options_.route_wait_deadline_ms);
    if (!shard.ok()) return ErrorResponse(request.request_id, shard.status());

    Result<std::pair<uint16_t, uint64_t>> endpoint =
        PortAndEpoch(shard.value());
    if (!endpoint.ok()) {
      placement_.ReleaseRoute(id);
      // Placed on a dead/vanished shard: recovery may still be re-homing it
      // on another thread. One retry re-resolves; after that the client
      // retries against a placement that has settled.
      last = endpoint.status();
      continue;
    }

    c_forwards_->Add(1);
#ifndef VISCLEAN_OBS_OFF
    uint64_t forward_start_ns = obs::MonotonicNs();
#endif
    Result<WireResponse> response =
        pool_.Call(shard.value(), endpoint.value().first,
                   ForwardEnvelope(shard.value(), endpoint.value().second,
                                   request));
#ifndef VISCLEAN_OBS_OFF
    uint64_t forward_end_ns = obs::MonotonicNs();
    h_forward_ns_->Record(forward_end_ns - forward_start_ns);
    obs::RecordSpan("router.forward", forward_start_ns, forward_end_ns);
#endif
    placement_.ReleaseRoute(id);

    if (response.ok()) {
      WireResponse unwrapped = std::move(response).value();
      if (unwrapped.type == WireResponseType::kError &&
          unwrapped.code == StatusCode::kUnavailable && attempt == 0) {
        // Stale placement (the session migrated under a router restart or a
        // stale epoch raced a membership change): re-resolve once.
        c_failovers_->Add(1);
        last = Status(unwrapped.code, unwrapped.message);
        continue;
      }
      if (unwrapped.type != WireResponseType::kError) {
        if (request.type == WireRequestType::kClose ||
            (request.type == WireRequestType::kExportState && request.remove)) {
          placement_.Remove(id);
        }
      }
      return unwrapped;
    }

    last = response.status();
    if (IsTransportFailure(last) && attempt == 0) {
      // Dead shard: declare it, re-home its sessions from disk, and retry —
      // the client sees one slow request instead of an error.
      c_failovers_->Add(1);
      (void)RecoverShard(shard.value());
      continue;
    }
    break;
  }
  return ErrorResponse(request.request_id, last);
}

WireResponse ShardRouter::AggregateStats(const WireRequest& request) {
  std::vector<std::pair<uint32_t, uint16_t>> targets;
  uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(topo_mu_);
    epoch = epoch_;
    for (const auto& [shard_id, state] : shards_) {
      if (state.alive) targets.emplace_back(shard_id, state.port);
    }
  }
  WireResponse response;
  response.type = WireResponseType::kStats;
  response.request_id = request.request_id;
  WireRequest stats_req;
  stats_req.type = WireRequestType::kStats;
  for (const auto& [shard_id, port] : targets) {
    Result<WireResponse> shard_stats =
        ForwardCall(pool_, shard_id, port, epoch, stats_req);
    // A shard that cannot answer contributes nothing; stats are advisory
    // and must not fail the whole fleet's answer.
    if (shard_stats.ok()) AddStats(response.stats, shard_stats.value().stats);
  }
  return response;
}

WireResponse ShardRouter::AggregateMetrics(const WireRequest& request) {
  std::vector<std::pair<uint32_t, uint16_t>> targets;
  uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(topo_mu_);
    epoch = epoch_;
    for (const auto& [shard_id, state] : shards_) {
      if (state.alive) targets.emplace_back(shard_id, state.port);
    }
  }
  // The fleet view: the router's own registry merged with every live
  // shard's. Merge is associative/commutative, so arrival order of the
  // shard snapshots cannot change the answer.
  obs::MetricsSnapshot merged = registry_.Snapshot();
  WireRequest metrics_req;
  metrics_req.type = WireRequestType::kMetrics;
  for (const auto& [shard_id, port] : targets) {
    Result<WireResponse> shard_metrics =
        ForwardCall(pool_, shard_id, port, epoch, metrics_req);
    // Same contract as kStats: an unreachable shard contributes nothing
    // rather than failing the whole scrape.
    if (!shard_metrics.ok()) continue;
    Result<obs::MetricsSnapshot> snapshot =
        obs::DecodeMetricsSnapshot(shard_metrics.value().metrics);
    if (snapshot.ok()) merged.Merge(snapshot.value());
  }
  WireResponse response;
  response.type = WireResponseType::kMetrics;
  response.request_id = request.request_id;
  response.metrics = obs::EncodeMetricsSnapshot(merged);
  return response;
}

Status ShardRouter::JoinShard(uint32_t shard_id, uint16_t port,
                              const std::string& snapshot_dir) {
  {
    std::lock_guard<std::mutex> lock(topo_mu_);
    auto it = shards_.find(shard_id);
    if (it != shards_.end() && it->second.alive && !it->second.draining) {
      return Status::InvalidArgument(
          StrFormat("shard %u is already a live member", shard_id));
    }
    ShardState state;
    state.port = port;
    state.snapshot_dir =
        snapshot_dir.empty() && it != shards_.end() ? it->second.snapshot_dir
                                                    : snapshot_dir;
    shards_[shard_id] = state;  // rejoin resets liveness and draining
    ring_.AddShard(shard_id);
    ++epoch_;
  }
  pool_.Drop(shard_id);  // stale sockets from a previous incarnation
  AnnounceEpoch();
  return Status::Ok();
}

Status ShardRouter::DrainShard(uint32_t shard_id) {
  {
    std::lock_guard<std::mutex> lock(topo_mu_);
    auto it = shards_.find(shard_id);
    if (it == shards_.end()) {
      return Status::NotFound(StrFormat("unknown shard %u", shard_id));
    }
    if (!it->second.alive) {
      return Status::Unavailable(StrFormat("shard %u is dead", shard_id));
    }
    if (it->second.draining) return Status::Ok();  // idempotent
    if (ring_.size() <= 1) {
      return Status::InvalidArgument(
          "cannot drain the last routable shard");
    }
    it->second.draining = true;
    ring_.RemoveShard(shard_id);
    ++epoch_;
  }
  AnnounceEpoch();

  size_t failed = 0;
  for (const std::string& id : placement_.SessionsOn(shard_id)) {
    Result<MigrationEndpoints> target = ResolveTarget(id);
    if (!target.ok()) {
      ++failed;
      continue;
    }
    if (MigrateSession(id, target.value().target_shard).ok()) {
      continue;
    }
    ++failed;
  }
  if (failed > 0) {
    return Status::Internal(
        StrFormat("%zu sessions failed to drain off shard %u", failed,
                  shard_id));
  }
  return Status::Ok();
}

Status ShardRouter::MigrateSession(const std::string& id,
                                   uint32_t target_shard) {
  Result<uint32_t> source = placement_.ShardOf(id);
  if (!source.ok()) return source.status();

  MigrationEndpoints endpoints;
  endpoints.source_shard = source.value();
  endpoints.target_shard = target_shard;
  Result<std::pair<uint16_t, uint64_t>> source_ep =
      PortAndEpoch(source.value(), /*allow_draining=*/true);
  if (!source_ep.ok()) return source_ep.status();
  Result<std::pair<uint16_t, uint64_t>> target_ep =
      PortAndEpoch(target_shard, /*allow_draining=*/false);
  if (!target_ep.ok()) return target_ep.status();
  endpoints.source_port = source_ep.value().first;
  endpoints.target_port = target_ep.value().first;
  endpoints.epoch = target_ep.value().second;

  Status moved =
      migrator_.Migrate(id, endpoints, options_.migration_drain_deadline_ms);
  if (moved.ok()) c_migrations_->Add(1);
  return moved;
}

WireTopology ShardRouter::Topology() const {
  std::lock_guard<std::mutex> lock(topo_mu_);
  WireTopology topology;
  topology.epoch = epoch_;
  for (const auto& [shard_id, state] : shards_) {
    WireShardStatus row;
    row.shard_id = shard_id;
    row.port = state.port;
    row.alive = state.alive;
    row.draining = state.draining;
    row.sessions = placement_.CountOn(shard_id);
    topology.shards.push_back(row);
  }
  return topology;
}

Status ShardRouter::RecoverShard(uint32_t shard_id) {
  std::string snapshot_dir;
  {
    std::lock_guard<std::mutex> lock(topo_mu_);
    auto it = shards_.find(shard_id);
    if (it == shards_.end()) {
      return Status::NotFound(StrFormat("unknown shard %u", shard_id));
    }
    if (!it->second.alive) return Status::Ok();  // already declared
    it->second.alive = false;
    ring_.RemoveShard(shard_id);
    ++epoch_;
    snapshot_dir = it->second.snapshot_dir;
  }
  pool_.Drop(shard_id);
  AnnounceEpoch();

  for (const std::string& id : placement_.SessionsOn(shard_id)) {
    Status rehomed = RehomeFromDisk(id, snapshot_dir);
    if (rehomed.ok()) {
      c_recovered_->Add(1);
    } else {
      // No usable snapshot: forget the placement so clients get an honest
      // kNotFound instead of forwards into a corpse.
      placement_.Remove(id);
      c_lost_->Add(1);
    }
  }
  return Status::Ok();
}

Status ShardRouter::RehomeFromDisk(const std::string& id,
                                   const std::string& dir) {
  if (dir.empty()) {
    return Status::IoError("dead shard has no snapshot directory");
  }
  // The newest persist_progress checkpoint (written after every successful
  // Step and Answer, same file eviction uses).
  Result<SessionSnapshotState> state = ReadSnapshotFile(dir + "/" + id +
                                                        ".snap");
  if (!state.ok()) return state.status();

  Result<MigrationEndpoints> target = ResolveTarget(id);
  if (!target.ok()) return target.status();

  WireRequest import_req;
  import_req.type = WireRequestType::kImportState;
  import_req.session_id = id;
  import_req.state = EncodeSnapshot(state.value());
  Result<WireResponse> imported =
      ForwardCall(pool_, target.value().target_shard,
                  target.value().target_port, target.value().epoch,
                  import_req);
  if (!imported.ok()) return imported.status();
  placement_.Assign(id, target.value().target_shard);
  return Status::Ok();
}

void ShardRouter::AnnounceEpoch() {
  std::vector<std::pair<uint32_t, std::pair<uint16_t, uint64_t>>> targets;
  {
    std::lock_guard<std::mutex> lock(topo_mu_);
    for (const auto& [shard_id, state] : shards_) {
      if (state.alive) {
        targets.emplace_back(shard_id, std::make_pair(state.port, epoch_));
      }
    }
  }
  for (const auto& [shard_id, ep] : targets) {
    WireRequest role;
    role.type = WireRequestType::kSetRole;
    role.shard_id = shard_id;
    role.epoch = ep.second;
    // Best-effort: an unreachable shard learns the epoch from its first
    // forward instead (kForwarded carries it and newer epochs are adopted).
    (void)pool_.Call(shard_id, ep.first, role);
  }
}

size_t ShardRouter::Rebalance() {
  struct Load {
    uint32_t shard_id = 0;
    uint16_t port = 0;
    uint64_t delta = 0;
  };
  std::vector<Load> loads;
  uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(topo_mu_);
    epoch = epoch_;
    for (const auto& [shard_id, state] : shards_) {
      if (!state.alive || state.draining) continue;
      loads.push_back({shard_id, state.port, 0});
    }
  }
  if (loads.size() < 2) return 0;

  // Activity is polled through the shard's metrics snapshot — the same
  // serve.steps / serve.answers counters a kMetrics scrape exports — so the
  // rebalance decision and the exported metrics read one source of truth
  // and cannot drift.
  WireRequest metrics_req;
  metrics_req.type = WireRequestType::kMetrics;
  for (Load& load : loads) {
    Result<WireResponse> metrics =
        ForwardCall(pool_, load.shard_id, load.port, epoch, metrics_req);
    if (!metrics.ok()) return 0;  // unstable fleet: let recovery settle first
    Result<obs::MetricsSnapshot> snapshot =
        obs::DecodeMetricsSnapshot(metrics.value().metrics);
    if (!snapshot.ok()) return 0;  // corrupt answer: treat as unstable
    const auto& counters = snapshot.value().counters;
    uint64_t activity = 0;
    auto steps = counters.find("serve.steps");
    auto answers = counters.find("serve.answers");
    if (steps != counters.end()) activity += steps->second;
    if (answers != counters.end()) activity += answers->second;
    std::lock_guard<std::mutex> lock(topo_mu_);
    auto it = shards_.find(load.shard_id);
    if (it == shards_.end()) return 0;
    load.delta = activity - std::min(activity, it->second.last_activity);
    it->second.last_activity = activity;
  }

  const Load* hot = &loads[0];
  const Load* cold = &loads[0];
  for (const Load& load : loads) {
    if (load.delta > hot->delta) hot = &load;
    if (load.delta < cold->delta) cold = &load;
  }
  // The occupancy signal: only shuffle sessions when the hottest shard is
  // doing materially more recent work than the coldest.
  if (hot->shard_id == cold->shard_id) return 0;
  double threshold =
      options_.hot_ratio * static_cast<double>(std::max<uint64_t>(
                               cold->delta, 1));
  if (static_cast<double>(hot->delta) <= threshold) return 0;

  size_t moved = 0;
  for (const std::string& id : placement_.SessionsOn(hot->shard_id)) {
    if (moved >= options_.max_migrations_per_rebalance) break;
    if (MigrateSession(id, cold->shard_id).ok()) ++moved;
  }
  return moved;
}

void ShardRouter::RebalanceLoop() {
  std::unique_lock<std::mutex> lock(rebalance_mu_);
  while (!stop_) {
    rebalance_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.rebalance_interval_ms));
    if (stop_) break;
    lock.unlock();
    (void)Rebalance();
    lock.lock();
  }
}

uint64_t ShardRouter::epoch() const {
  std::lock_guard<std::mutex> lock(topo_mu_);
  return epoch_;
}

RouterStats ShardRouter::router_stats() const {
  RouterStats stats;
  stats.forwards = c_forwards_->Value();
  stats.failovers = c_failovers_->Value();
  stats.migrations = c_migrations_->Value();
  stats.recovered_sessions = c_recovered_->Value();
  stats.lost_sessions = c_lost_->Value();
  return stats;
}

}  // namespace shard
}  // namespace visclean
