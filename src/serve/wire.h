// The VCWP wire protocol: length-prefixed binary frames encoding the full
// SessionManager request surface, so sessions can be driven over a socket
// (src/net/server.*) with the exact semantics of in-process calls.
//
// Frame layout (all integers little-endian):
//
//   magic   "VCWP"          4 bytes
//   version u8              kWireVersion (4); any other value is a
//                           malformed header
//   length  u32             payload byte count, <= kMaxWirePayload
//   payload length bytes    one request or response message
//
// A request payload is `u8 type` + `u64 request_id` + type-specific fields;
// a response payload is `u8 type` + `u64 request_id` echoing the request it
// answers. request_id is client-chosen and opaque to the server — clients
// use it to match pipelined responses to requests.
//
// There is exactly one wire version and no negotiation: every frame in
// either direction carries kWireVersion, and a frame at any other version
// is rejected at the header like a bad magic. The version is bumped
// whenever a payload layout changes, so peers built from different layouts
// fail loudly at the first frame instead of misreading each other.
//
// Everything behind the length prefix decodes through the hardened
// serve/codec.h Reader (overflow-safe bounds, latched failure, bounded
// allocations), and every decoder rejects rather than crashes on corrupt
// input: bad magic, unknown version, oversized lengths, truncated or
// trailing bytes, and out-of-range enums all surface as Status errors.
// DESIGN.md §4/§5 are the normative spec; tests/wire_test.cc fuzzes this
// surface.
#ifndef VISCLEAN_SERVE_WIRE_H_
#define VISCLEAN_SERVE_WIRE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine_context.h"
#include "core/session.h"
#include "serve/session_manager.h"
#include "user/cost_model.h"
#include "user/simulated_user.h"

namespace visclean {

/// Frame header magic. A connection whose first four bytes are not this
/// magic is served in line-oriented text mode instead (src/net/command.h).
inline constexpr char kWireMagic[4] = {'V', 'C', 'W', 'P'};
/// The one version this build speaks; bumped whenever a payload layout
/// changes.
inline constexpr uint8_t kWireVersion = 4;
/// Hard payload bound: no legitimate message approaches this, and the bound
/// keeps a corrupt or hostile length prefix from driving a huge allocation.
inline constexpr uint32_t kMaxWirePayload = 16u * 1024u * 1024u;
/// Bytes before the payload: magic + version + length.
inline constexpr size_t kWireHeaderSize = 4 + 1 + 4;

/// \brief Request message types (u8 on the wire).
enum class WireRequestType : uint8_t {
  kCreate = 0,
  kStep = 1,
  kAnswer = 2,
  kGetStatus = 3,
  kSnapshot = 4,
  kRestore = 5,
  kClose = 6,
  kStats = 7,
  // --- sharding ---
  kExportState = 8,     ///< serialize a live session to VCSN bytes
  kImportState = 9,     ///< admit a session from VCSN bytes
  kForwarded = 10,      ///< router→shard envelope around an inner request
  kJoinShard = 11,      ///< admin: add a shard to the router's ring
  kDrainShard = 12,     ///< admin: migrate a shard's sessions away
  kMigrateSession = 13, ///< admin: move one session to a named shard
  kTopology = 14,       ///< admin: dump ring membership + placement counts
  kSetRole = 15,        ///< router→shard: pin shard id + topology epoch
  kMetrics = 16,        ///< telemetry: merged metrics-registry snapshot
  kTraces = 17,         ///< telemetry: captured slow-request traces (JSON)
};
inline constexpr uint8_t kMaxWireRequestType =
    static_cast<uint8_t>(WireRequestType::kTraces);

/// \brief Response message types (u8 on the wire).
enum class WireResponseType : uint8_t {
  kError = 0,        ///< status code + message
  kSessionInfo = 1,  ///< Create / GetStatus / Restore / ImportState
  kPending = 2,      ///< Step
  kTrace = 3,        ///< Answer
  kAck = 4,          ///< Snapshot / Close / JoinShard / Drain / Migrate /
                     ///< SetRole
  kStats = 5,        ///< Stats
  // --- sharding ---
  kState = 6,        ///< ExportState: VCSN snapshot bytes
  kTopology = 7,     ///< Topology: ring membership + placement
  kMetrics = 8,      ///< Metrics: binary obs::MetricsSnapshot bytes
  kTraces = 9,       ///< Traces: captured span trees as JSON text
};
inline constexpr uint8_t kMaxWireResponseType =
    static_cast<uint8_t>(WireResponseType::kTraces);

/// \brief One decoded request. Only the fields of the request's type are
/// meaningful; the rest stay default-initialized (and are not encoded).
struct WireRequest {
  WireRequestType type = WireRequestType::kStats;
  uint64_t request_id = 0;

  std::string session_id;  ///< all types except kStats
  // kCreate only:
  std::string dataset;
  std::string vql;
  SessionOptions options;
  UserOptions user_options;
  UserCostModel cost_model;
  // kSnapshot / kRestore only:
  std::string path;

  // --- sharding fields ---
  std::string state;     ///< kImportState: VCSN snapshot bytes
  bool remove = false;   ///< kExportState: destroy the local copy afterwards
  uint32_t shard_id = 0; ///< kForwarded/kJoinShard/kDrainShard/kSetRole;
                         ///< kMigrateSession: the *target* shard
  uint64_t epoch = 0;    ///< kForwarded / kSetRole: topology epoch
  uint32_t port = 0;     ///< kJoinShard: the shard server's TCP port
  std::string inner;     ///< kForwarded: encoded inner request payload
                         ///< (EncodeRequestPayload, never nested)
  /// kForwarded: the router-side trace the shard's spans should join
  /// (0 = no active trace). Carried on the envelope, not the inner request,
  /// so forwarding is what propagates — the inner bytes stay identical to a
  /// directly-sent request.
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
};

/// Stable lowercase name of a request type ("create", "step", ...; used for
/// span names and logs).
const char* WireRequestTypeName(WireRequestType type);

/// \brief The deterministic slice of an IterationTrace that travels on the
/// wire: wall-clock stage timings are intentionally excluded so a socket
/// round and an in-process round serialize identically (the differential
/// suite compares these byte-for-byte).
struct WireTraceSummary {
  uint64_t iteration = 0;
  double emd = 0.0;
  double user_seconds = 0.0;
  uint64_t questions_asked = 0;
  double cqg_benefit = 0.0;
  IncrementalityCounters incremental;
};

/// \brief One shard's row in a kTopology response.
struct WireShardStatus {
  uint32_t shard_id = 0;
  uint32_t port = 0;
  bool alive = false;
  bool draining = false;
  uint64_t sessions = 0;  ///< sessions currently placed on this shard
};

/// \brief Ring membership + placement snapshot (kTopology response).
struct WireTopology {
  uint64_t epoch = 0;  ///< bumped on every membership or role change
  std::vector<WireShardStatus> shards;
};

/// \brief One decoded response. As with WireRequest, only the active type's
/// fields are meaningful.
struct WireResponse {
  WireResponseType type = WireResponseType::kError;
  uint64_t request_id = 0;

  // kError:
  StatusCode code = StatusCode::kInternal;
  std::string message;
  // kSessionInfo:
  SessionInfo info;
  // kPending:
  PendingInteraction pending;
  // kTrace:
  WireTraceSummary trace;
  // kStats:
  ServeStats stats;
  // kState:
  std::string state;
  // kTopology:
  WireTopology topology;
  // kMetrics (binary obs snapshot; see obs::DecodeMetricsSnapshot) and
  // kTraces (JSON text):
  std::string metrics;
};

/// Wraps a payload in a VCWP frame (header + bytes). Payloads larger than
/// kMaxWirePayload are a programmer error and abort.
std::string EncodeFrame(const std::string& payload);

/// Encodes a request payload without the frame header — the bytes a
/// kForwarded envelope carries in `inner`.
std::string EncodeRequestPayload(const WireRequest& request);

/// Encodes request/response payload + frame in one step.
std::string EncodeRequest(const WireRequest& request);
std::string EncodeResponse(const WireResponse& response);

/// \brief Outcome of scanning a connection buffer for the next frame.
enum class FrameStatus {
  kNeedMore,  ///< header or payload incomplete — read more bytes
  kFrame,     ///< one payload extracted and consumed from the buffer
  kBad,       ///< malformed header (magic/version/length) — close the
              ///< connection; resynchronizing with a corrupt peer is
              ///< impossible in a length-prefixed protocol
};

/// Extracts the next complete frame from the front of `buffer`, consuming
/// its bytes on success. `payload` is only written for kFrame. A header
/// whose version is not kWireVersion is kBad. The buffer may hold any
/// number of partial or complete frames (pipelining).
FrameStatus NextFrame(std::string& buffer, std::string* payload);

/// Decodes a frame payload (not the frame header) into a request/response.
/// Rejects truncation, trailing bytes and out-of-range enums.
Result<WireRequest> DecodeRequestPayload(const std::string& payload);
Result<WireResponse> DecodeResponsePayload(const std::string& payload);

/// \brief Executes one decoded request against a SessionManager and returns
/// the response — the single dispatch point shared by the binary and text
/// front-ends, so both speak for exactly the same API surface. Handles the
/// local request surface (session ops, stats, export/import); routing-layer
/// types (kForwarded, admin frames) are rejected here and handled by a
/// WireHandler that owns that context.
WireResponse ExecuteRequest(SessionManager& manager, const WireRequest& request);

/// Builds a kError response carrying `status` (which must not be OK).
WireResponse ErrorResponse(uint64_t request_id, const Status& status);

/// \brief The request-execution seam: the server front-end
/// (net::VisCleanServer) dispatches every decoded request through one of
/// these, so the same socket machinery can front a shard's SessionManager
/// or the routing tier (shard::ShardRouter).
class WireHandler {
 public:
  virtual ~WireHandler() = default;
  /// Executes one request; must be safe to call from concurrent workers.
  virtual WireResponse Handle(const WireRequest& request) = 0;
};

/// \brief Shard-side handler: ExecuteRequest plus the router→shard control
/// surface (kForwarded unwrapping with shard-id/epoch validation, kSetRole).
/// Router-only admin frames are rejected.
class SessionManagerHandler : public WireHandler {
 public:
  explicit SessionManagerHandler(SessionManager& manager)
      : manager_(manager) {}

  WireResponse Handle(const WireRequest& request) override;

  uint32_t shard_id() const;
  uint64_t epoch() const;

 private:
  SessionManager& manager_;
  /// Role assigned by the router via kSetRole. A forward carrying a stale
  /// epoch or the wrong shard id is rejected kUnavailable so a router
  /// working from dead topology cannot mutate sessions it no longer owns.
  mutable std::mutex role_mu_;
  bool role_set_ = false;
  uint32_t shard_id_ = 0;
  uint64_t epoch_ = 0;
};

}  // namespace visclean

#endif  // VISCLEAN_SERVE_WIRE_H_
