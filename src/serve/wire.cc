#include "serve/wire.h"

#include <cstring>
#include <utility>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/codec.h"

namespace visclean {

namespace {

using codec::GetEnum;
using codec::PutEnum;
using codec::Reader;
using codec::Writer;

// kOk never travels in a kError response; everything else is legal.
constexpr uint8_t kMaxStatusCode =
    static_cast<uint8_t>(StatusCode::kDeadlineExceeded);

void PutSessionInfo(Writer& w, const SessionInfo& info) {
  w.Str(info.id);
  w.Str(info.dataset);
  w.U64(info.iteration);
  w.U64(info.budget);
  w.Bool(info.pending);
  w.Bool(info.finished);
  w.Bool(info.resident);
  w.F64(info.emd);
}

SessionInfo GetSessionInfo(Reader& r) {
  SessionInfo info;
  info.id = r.Str();
  info.dataset = r.Str();
  info.iteration = r.U64();
  info.budget = r.U64();
  info.pending = r.Bool();
  info.finished = r.Bool();
  info.resident = r.Bool();
  info.emd = r.F64();
  return info;
}

void PutPending(Writer& w, const PendingInteraction& p) {
  w.U64(p.iteration);
  PutEnum(w, p.strategy);
  w.F64(p.cqg_benefit);
  w.U64(p.cqg_vertices);
  w.U64(p.cqg_edges);
  w.U64(p.pool_questions);
}

PendingInteraction GetPending(Reader& r, bool* bad) {
  PendingInteraction p;
  p.iteration = r.U64();
  p.strategy = GetEnum<QuestionStrategy>(r, 1, bad);
  p.cqg_benefit = r.F64();
  p.cqg_vertices = r.U64();
  p.cqg_edges = r.U64();
  p.pool_questions = r.U64();
  return p;
}

void PutTrace(Writer& w, const WireTraceSummary& t) {
  w.U64(t.iteration);
  w.F64(t.emd);
  w.F64(t.user_seconds);
  w.U64(t.questions_asked);
  w.F64(t.cqg_benefit);
  w.U64(t.incremental.detect_full_scans);
  w.U64(t.incremental.detect_delta_updates);
  w.U64(t.incremental.erg_full_builds);
  w.U64(t.incremental.erg_delta_updates);
  w.U64(t.incremental.sim_join_full);
  w.U64(t.incremental.sim_join_fallbacks);
  w.U64(t.incremental.sim_join_delta_syncs);
}

WireTraceSummary GetTrace(Reader& r) {
  WireTraceSummary t;
  t.iteration = r.U64();
  t.emd = r.F64();
  t.user_seconds = r.F64();
  t.questions_asked = r.U64();
  t.cqg_benefit = r.F64();
  t.incremental.detect_full_scans = r.U64();
  t.incremental.detect_delta_updates = r.U64();
  t.incremental.erg_full_builds = r.U64();
  t.incremental.erg_delta_updates = r.U64();
  t.incremental.sim_join_full = r.U64();
  t.incremental.sim_join_fallbacks = r.U64();
  t.incremental.sim_join_delta_syncs = r.U64();
  return t;
}

void PutStats(Writer& w, const ServeStats& s) {
  w.U64(s.sessions_created);
  w.U64(s.steps);
  w.U64(s.answers);
  w.U64(s.snapshots);
  w.U64(s.evictions);
  w.U64(s.restores_from_disk);
  w.U64(s.rejected_capacity);
  w.U64(s.rejected_inflight);
  w.U64(s.rejected_session_queue);
  w.U64(s.detect_full_scans);
  w.U64(s.detect_delta_updates);
  w.U64(s.erg_full_builds);
  w.U64(s.erg_delta_updates);
  w.U64(s.sim_join_full);
  w.U64(s.sim_join_fallbacks);
  w.U64(s.sim_join_delta_syncs);
}

ServeStats GetStats(Reader& r) {
  ServeStats s;
  s.sessions_created = r.U64();
  s.steps = r.U64();
  s.answers = r.U64();
  s.snapshots = r.U64();
  s.evictions = r.U64();
  s.restores_from_disk = r.U64();
  s.rejected_capacity = r.U64();
  s.rejected_inflight = r.U64();
  s.rejected_session_queue = r.U64();
  s.detect_full_scans = r.U64();
  s.detect_delta_updates = r.U64();
  s.erg_full_builds = r.U64();
  s.erg_delta_updates = r.U64();
  s.sim_join_full = r.U64();
  s.sim_join_fallbacks = r.U64();
  s.sim_join_delta_syncs = r.U64();
  return s;
}

void PutTopology(Writer& w, const WireTopology& t) {
  w.U64(t.epoch);
  w.U64(t.shards.size());
  for (const WireShardStatus& s : t.shards) {
    w.U32(s.shard_id);
    w.U32(s.port);
    w.Bool(s.alive);
    w.Bool(s.draining);
    w.U64(s.sessions);
  }
}

WireTopology GetTopology(Reader& r) {
  WireTopology t;
  t.epoch = r.U64();
  // Each row is at least 4+4+1+1+8 bytes; Count bounds the allocation
  // against a hostile length prefix.
  const size_t n = r.Count(18);
  t.shards.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    WireShardStatus s;
    s.shard_id = r.U32();
    s.port = r.U32();
    s.alive = r.Bool();
    s.draining = r.Bool();
    s.sessions = r.U64();
    t.shards.push_back(s);
  }
  return t;
}

WireTraceSummary SummarizeTrace(const IterationTrace& trace) {
  WireTraceSummary t;
  t.iteration = trace.iteration;
  t.emd = trace.emd;
  t.user_seconds = trace.user_seconds;
  t.questions_asked = trace.questions_asked;
  t.cqg_benefit = trace.cqg_benefit;
  t.incremental = trace.incremental;
  return t;
}

}  // namespace

std::string EncodeFrame(const std::string& payload) {
  VC_CHECK(payload.size() <= kMaxWirePayload, "wire payload exceeds bound");
  Writer w;
  w.U8(static_cast<uint8_t>(kWireMagic[0]));
  w.U8(static_cast<uint8_t>(kWireMagic[1]));
  w.U8(static_cast<uint8_t>(kWireMagic[2]));
  w.U8(static_cast<uint8_t>(kWireMagic[3]));
  w.U8(kWireVersion);
  w.U32(static_cast<uint32_t>(payload.size()));
  std::string out = w.Take();
  out.append(payload);
  return out;
}

FrameStatus NextFrame(std::string& buffer, std::string* payload) {
  if (buffer.size() < kWireHeaderSize) {
    // Reject a wrong magic as soon as the bytes we do have disagree, so a
    // text-mode or garbage peer is turned away before it can stall waiting
    // for a "header" that will never parse.
    const size_t have = buffer.size() < 4 ? buffer.size() : 4;
    if (std::memcmp(buffer.data(), kWireMagic, have) != 0) {
      return FrameStatus::kBad;
    }
    return FrameStatus::kNeedMore;
  }
  if (std::memcmp(buffer.data(), kWireMagic, 4) != 0) {
    return FrameStatus::kBad;
  }
  if (static_cast<uint8_t>(buffer[4]) != kWireVersion) {
    return FrameStatus::kBad;
  }
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(static_cast<uint8_t>(buffer[5 + i]))
              << (8 * i);
  }
  if (length > kMaxWirePayload) return FrameStatus::kBad;
  if (buffer.size() < kWireHeaderSize + length) return FrameStatus::kNeedMore;
  payload->assign(buffer, kWireHeaderSize, length);
  buffer.erase(0, kWireHeaderSize + length);
  return FrameStatus::kFrame;
}

std::string EncodeRequestPayload(const WireRequest& request) {
  Writer w;
  PutEnum(w, request.type);
  w.U64(request.request_id);
  switch (request.type) {
    case WireRequestType::kCreate:
      w.Str(request.session_id);
      w.Str(request.dataset);
      w.Str(request.vql);
      codec::PutSessionOptions(w, request.options);
      codec::PutUserOptions(w, request.user_options);
      codec::PutCostModel(w, request.cost_model);
      break;
    case WireRequestType::kStep:
    case WireRequestType::kAnswer:
    case WireRequestType::kGetStatus:
    case WireRequestType::kClose:
      w.Str(request.session_id);
      break;
    case WireRequestType::kSnapshot:
    case WireRequestType::kRestore:
      w.Str(request.session_id);
      w.Str(request.path);
      break;
    case WireRequestType::kStats:
    case WireRequestType::kTopology:
    case WireRequestType::kMetrics:
    case WireRequestType::kTraces:
      break;
    case WireRequestType::kExportState:
      w.Str(request.session_id);
      w.Bool(request.remove);
      break;
    case WireRequestType::kImportState:
      w.Str(request.session_id);
      w.Str(request.state);
      break;
    case WireRequestType::kForwarded:
      w.U32(request.shard_id);
      w.U64(request.epoch);
      w.Str(request.inner);
      // Trace propagation rides the envelope (0 = no active trace).
      w.U64(request.trace_id);
      w.U64(request.parent_span);
      break;
    case WireRequestType::kJoinShard:
      w.U32(request.shard_id);
      w.U32(request.port);
      break;
    case WireRequestType::kDrainShard:
      w.U32(request.shard_id);
      break;
    case WireRequestType::kMigrateSession:
      w.Str(request.session_id);
      w.U32(request.shard_id);
      break;
    case WireRequestType::kSetRole:
      w.U32(request.shard_id);
      w.U64(request.epoch);
      break;
  }
  return w.Take();
}

std::string EncodeRequest(const WireRequest& request) {
  return EncodeFrame(EncodeRequestPayload(request));
}

std::string EncodeResponse(const WireResponse& response) {
  Writer w;
  PutEnum(w, response.type);
  w.U64(response.request_id);
  switch (response.type) {
    case WireResponseType::kError:
      PutEnum(w, response.code);
      w.Str(response.message);
      break;
    case WireResponseType::kSessionInfo:
      PutSessionInfo(w, response.info);
      break;
    case WireResponseType::kPending:
      PutPending(w, response.pending);
      break;
    case WireResponseType::kTrace:
      PutTrace(w, response.trace);
      break;
    case WireResponseType::kAck:
      break;
    case WireResponseType::kStats:
      PutStats(w, response.stats);
      break;
    case WireResponseType::kState:
      w.Str(response.state);
      break;
    case WireResponseType::kTopology:
      PutTopology(w, response.topology);
      break;
    case WireResponseType::kMetrics:
    case WireResponseType::kTraces:
      w.Str(response.metrics);
      break;
  }
  return EncodeFrame(w.Take());
}

Result<WireRequest> DecodeRequestPayload(const std::string& payload) {
  Reader r(payload);
  bool bad = false;
  WireRequest req;
  req.type = GetEnum<WireRequestType>(r, kMaxWireRequestType, &bad);
  if (bad || r.failed()) {
    return Status::InvalidArgument("unknown wire request type");
  }
  req.request_id = r.U64();
  switch (req.type) {
    case WireRequestType::kCreate:
      req.session_id = r.Str();
      req.dataset = r.Str();
      req.vql = r.Str();
      req.options = codec::GetSessionOptions(r, &bad);
      req.user_options = codec::GetUserOptions(r);
      req.cost_model = codec::GetCostModel(r);
      break;
    case WireRequestType::kStep:
    case WireRequestType::kAnswer:
    case WireRequestType::kGetStatus:
    case WireRequestType::kClose:
      req.session_id = r.Str();
      break;
    case WireRequestType::kSnapshot:
    case WireRequestType::kRestore:
      req.session_id = r.Str();
      req.path = r.Str();
      break;
    case WireRequestType::kStats:
    case WireRequestType::kTopology:
    case WireRequestType::kMetrics:
    case WireRequestType::kTraces:
      break;
    case WireRequestType::kExportState:
      req.session_id = r.Str();
      req.remove = r.Bool();
      break;
    case WireRequestType::kImportState:
      req.session_id = r.Str();
      req.state = r.Str();
      break;
    case WireRequestType::kForwarded:
      req.shard_id = r.U32();
      req.epoch = r.U64();
      req.inner = r.Str();
      req.trace_id = r.U64();
      req.parent_span = r.U64();
      break;
    case WireRequestType::kJoinShard:
      req.shard_id = r.U32();
      req.port = r.U32();
      break;
    case WireRequestType::kDrainShard:
      req.shard_id = r.U32();
      break;
    case WireRequestType::kMigrateSession:
      req.session_id = r.Str();
      req.shard_id = r.U32();
      break;
    case WireRequestType::kSetRole:
      req.shard_id = r.U32();
      req.epoch = r.U64();
      break;
  }
  if (r.failed() || bad) {
    return Status::InvalidArgument("wire request is truncated or corrupt");
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("wire request has trailing bytes");
  }
  return req;
}

Result<WireResponse> DecodeResponsePayload(const std::string& payload) {
  Reader r(payload);
  bool bad = false;
  WireResponse resp;
  resp.type = GetEnum<WireResponseType>(r, kMaxWireResponseType, &bad);
  if (bad || r.failed()) {
    return Status::InvalidArgument("unknown wire response type");
  }
  resp.request_id = r.U64();
  switch (resp.type) {
    case WireResponseType::kError: {
      resp.code = GetEnum<StatusCode>(r, kMaxStatusCode, &bad);
      if (resp.code == StatusCode::kOk) bad = true;
      resp.message = r.Str();
      break;
    }
    case WireResponseType::kSessionInfo:
      resp.info = GetSessionInfo(r);
      break;
    case WireResponseType::kPending:
      resp.pending = GetPending(r, &bad);
      break;
    case WireResponseType::kTrace:
      resp.trace = GetTrace(r);
      break;
    case WireResponseType::kAck:
      break;
    case WireResponseType::kStats:
      resp.stats = GetStats(r);
      break;
    case WireResponseType::kState:
      resp.state = r.Str();
      break;
    case WireResponseType::kTopology:
      resp.topology = GetTopology(r);
      break;
    case WireResponseType::kMetrics:
    case WireResponseType::kTraces:
      resp.metrics = r.Str();
      break;
  }
  if (r.failed() || bad) {
    return Status::InvalidArgument("wire response is truncated or corrupt");
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("wire response has trailing bytes");
  }
  return resp;
}

const char* WireRequestTypeName(WireRequestType type) {
  switch (type) {
    case WireRequestType::kCreate: return "create";
    case WireRequestType::kStep: return "step";
    case WireRequestType::kAnswer: return "answer";
    case WireRequestType::kGetStatus: return "status";
    case WireRequestType::kSnapshot: return "snapshot";
    case WireRequestType::kRestore: return "restore";
    case WireRequestType::kClose: return "close";
    case WireRequestType::kStats: return "stats";
    case WireRequestType::kExportState: return "export_state";
    case WireRequestType::kImportState: return "import_state";
    case WireRequestType::kForwarded: return "forwarded";
    case WireRequestType::kJoinShard: return "join_shard";
    case WireRequestType::kDrainShard: return "drain_shard";
    case WireRequestType::kMigrateSession: return "migrate_session";
    case WireRequestType::kTopology: return "topology";
    case WireRequestType::kSetRole: return "set_role";
    case WireRequestType::kMetrics: return "metrics";
    case WireRequestType::kTraces: return "traces";
  }
  return "unknown";
}

WireResponse ErrorResponse(uint64_t request_id, const Status& status) {
  VC_CHECK(!status.ok(), "ErrorResponse needs a failed status");
  WireResponse resp;
  resp.type = WireResponseType::kError;
  resp.request_id = request_id;
  resp.code = status.code();
  resp.message = status.message();
  return resp;
}

WireResponse ExecuteRequest(SessionManager& manager,
                            const WireRequest& request) {
  WireResponse resp;
  resp.request_id = request.request_id;
  switch (request.type) {
    case WireRequestType::kCreate: {
      Result<SessionInfo> info =
          manager.Create(request.session_id, request.dataset, request.vql,
                         request.options, request.user_options,
                         request.cost_model);
      if (!info.ok()) return ErrorResponse(request.request_id, info.status());
      resp.type = WireResponseType::kSessionInfo;
      resp.info = std::move(info).value();
      return resp;
    }
    case WireRequestType::kStep: {
      Result<PendingInteraction> pending = manager.Step(request.session_id);
      if (!pending.ok()) {
        return ErrorResponse(request.request_id, pending.status());
      }
      resp.type = WireResponseType::kPending;
      resp.pending = std::move(pending).value();
      return resp;
    }
    case WireRequestType::kAnswer: {
      Result<IterationTrace> trace = manager.Answer(request.session_id);
      if (!trace.ok()) return ErrorResponse(request.request_id, trace.status());
      resp.type = WireResponseType::kTrace;
      resp.trace = SummarizeTrace(trace.value());
      return resp;
    }
    case WireRequestType::kGetStatus: {
      Result<SessionInfo> info = manager.GetStatus(request.session_id);
      if (!info.ok()) return ErrorResponse(request.request_id, info.status());
      resp.type = WireResponseType::kSessionInfo;
      resp.info = std::move(info).value();
      return resp;
    }
    case WireRequestType::kSnapshot: {
      Status status = manager.Snapshot(request.session_id, request.path);
      if (!status.ok()) return ErrorResponse(request.request_id, status);
      resp.type = WireResponseType::kAck;
      return resp;
    }
    case WireRequestType::kRestore: {
      Result<SessionInfo> info =
          manager.Restore(request.session_id, request.path);
      if (!info.ok()) return ErrorResponse(request.request_id, info.status());
      resp.type = WireResponseType::kSessionInfo;
      resp.info = std::move(info).value();
      return resp;
    }
    case WireRequestType::kClose: {
      Status status = manager.Close(request.session_id);
      if (!status.ok()) return ErrorResponse(request.request_id, status);
      resp.type = WireResponseType::kAck;
      return resp;
    }
    case WireRequestType::kStats: {
      resp.type = WireResponseType::kStats;
      resp.stats = manager.stats();
      return resp;
    }
    case WireRequestType::kExportState: {
      Result<std::string> state =
          manager.ExportSession(request.session_id, request.remove);
      if (!state.ok()) return ErrorResponse(request.request_id, state.status());
      resp.type = WireResponseType::kState;
      resp.state = std::move(state).value();
      return resp;
    }
    case WireRequestType::kImportState: {
      Result<SessionInfo> info =
          manager.ImportSession(request.session_id, request.state);
      if (!info.ok()) return ErrorResponse(request.request_id, info.status());
      resp.type = WireResponseType::kSessionInfo;
      resp.info = std::move(info).value();
      return resp;
    }
    case WireRequestType::kMetrics: {
      resp.type = WireResponseType::kMetrics;
      resp.metrics = obs::EncodeMetricsSnapshot(manager.registry().Snapshot());
      return resp;
    }
    case WireRequestType::kTraces: {
      resp.type = WireResponseType::kTraces;
      resp.metrics = obs::ExportTracesJson(obs::Tracer::Default().Captured());
      return resp;
    }
    case WireRequestType::kForwarded:
    case WireRequestType::kSetRole:
      return ErrorResponse(
          request.request_id,
          Status::InvalidArgument(
              "shard control frames require a SessionManagerHandler"));
    case WireRequestType::kJoinShard:
    case WireRequestType::kDrainShard:
    case WireRequestType::kMigrateSession:
    case WireRequestType::kTopology:
      return ErrorResponse(
          request.request_id,
          Status::InvalidArgument("admin frames are served by the router"));
  }
  return ErrorResponse(request.request_id,
                       Status::Internal("unhandled wire request type"));
}

uint32_t SessionManagerHandler::shard_id() const {
  std::lock_guard<std::mutex> lock(role_mu_);
  return shard_id_;
}

uint64_t SessionManagerHandler::epoch() const {
  std::lock_guard<std::mutex> lock(role_mu_);
  return epoch_;
}

WireResponse SessionManagerHandler::Handle(const WireRequest& request) {
  switch (request.type) {
    case WireRequestType::kSetRole: {
      std::lock_guard<std::mutex> lock(role_mu_);
      if (role_set_ && request.shard_id != shard_id_) {
        return ErrorResponse(
            request.request_id,
            Status::InvalidArgument("shard already holds a different id"));
      }
      if (role_set_ && request.epoch < epoch_) {
        return ErrorResponse(request.request_id,
                             Status::Unavailable("stale topology epoch"));
      }
      role_set_ = true;
      shard_id_ = request.shard_id;
      epoch_ = request.epoch;
      WireResponse resp;
      resp.type = WireResponseType::kAck;
      resp.request_id = request.request_id;
      return resp;
    }
    case WireRequestType::kForwarded: {
      {
        std::lock_guard<std::mutex> lock(role_mu_);
        if (role_set_ && request.shard_id != shard_id_) {
          return ErrorResponse(
              request.request_id,
              Status::Unavailable("forward addressed to a different shard"));
        }
        if (role_set_ && request.epoch < epoch_) {
          return ErrorResponse(
              request.request_id,
              Status::Unavailable("forward carries a stale topology epoch"));
        }
        if (role_set_ && request.epoch > epoch_) epoch_ = request.epoch;
      }
      Result<WireRequest> inner = DecodeRequestPayload(request.inner);
      if (!inner.ok()) {
        return ErrorResponse(request.request_id, inner.status());
      }
      if (inner.value().type == WireRequestType::kForwarded) {
        return ErrorResponse(
            request.request_id,
            Status::InvalidArgument("forwarded requests do not nest"));
      }
      // The inner response keeps the *outer* request id so the router's
      // pipelined connection can match it without tracking two id spaces.
      WireRequest unwrapped = std::move(inner).value();
      unwrapped.request_id = request.request_id;
      return Handle(unwrapped);
    }
    default:
      return ExecuteRequest(manager_, request);
  }
}

}  // namespace visclean
