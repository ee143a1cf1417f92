// Unit tests for the VCWP frame codec: encode/decode round-trips for every
// request and response type, frame reassembly from partial and pipelined
// buffers, and the corruption battery (truncation at every prefix,
// single-byte corruption, oversized/zero lengths) — every malformed input
// must come back as a clean error, never a crash or hang. Mirrors the
// snapshot-codec fuzz idiom from serve_test.cc.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/server.h"
#include "serve/session_manager.h"
#include "serve/wire.h"

namespace visclean {
namespace {

// A Create request with every field off its default, so round-trip
// equality exercises the full encoding.
WireRequest FullCreate() {
  WireRequest req;
  req.type = WireRequestType::kCreate;
  req.request_id = 77;
  req.session_id = "alice-1";
  req.dataset = "D1";
  req.vql =
      "VISUALIZE BAR SELECT Venue, SUM(Citations) FROM D1 "
      "TRANSFORM GROUP(Venue) SORT Y DESC LIMIT 10";
  req.options.k = 6;
  req.options.budget = 3;
  req.options.selector = "0.5-bnb";
  req.options.strategy = QuestionStrategy::kSingle;
  req.options.single_m = 8;
  req.options.threads = 2;
  req.options.detection_dirty_threshold = 0.41;
  req.options.erg_dirty_threshold = 0.17;
  req.options.seed = 1234;
  req.options.auto_merge_threshold = 0.9;
  req.options.sim_join_lambda = 0.25;
  req.options.max_t_questions = 40;
  req.options.max_m_questions = 41;
  req.options.blocking_max_block = 12;
  req.options.max_seed_examples = 999;
  req.options.forest.num_trees = 9;
  req.options.forest.tree.max_depth = 7;
  req.options.forest.tree.min_samples_split = 3;
  req.options.forest.tree.max_features = 5;
  req.options.forest.bootstrap_fraction = 0.6;
  req.user_options.wrong_label_rate = 0.05;
  req.user_options.completeness = 0.8;
  req.user_options.seed = 42;
  req.cost_model.cqg_base_seconds = 1.5;
  req.cost_model.cqg_edge_seconds = 2.5;
  req.cost_model.cqg_vertex_seconds = 3.5;
  req.cost_model.single_t_seconds = 4.5;
  req.cost_model.single_a_seconds = 5.5;
  req.cost_model.single_m_seconds = 6.5;
  req.cost_model.single_o_seconds = 7.5;
  return req;
}

std::vector<WireRequest> AllRequests() {
  std::vector<WireRequest> all;
  all.push_back(FullCreate());
  for (WireRequestType type :
       {WireRequestType::kStep, WireRequestType::kAnswer,
        WireRequestType::kGetStatus, WireRequestType::kClose}) {
    WireRequest req;
    req.type = type;
    req.request_id = 5 + static_cast<uint64_t>(type);
    req.session_id = "sess.x";
    all.push_back(req);
  }
  for (WireRequestType type :
       {WireRequestType::kSnapshot, WireRequestType::kRestore}) {
    WireRequest req;
    req.type = type;
    req.request_id = 90;
    req.session_id = "sess.x";
    req.path = "/tmp/some path/snap.bin";
    all.push_back(req);
  }
  WireRequest stats;
  stats.type = WireRequestType::kStats;
  stats.request_id = 91;
  all.push_back(stats);

  // --- sharding requests ---
  WireRequest exp;
  exp.type = WireRequestType::kExportState;
  exp.request_id = 92;
  exp.session_id = "sess.x";
  exp.remove = true;
  all.push_back(exp);

  WireRequest imp;
  imp.type = WireRequestType::kImportState;
  imp.request_id = 93;
  imp.session_id = "sess.x";
  imp.state = std::string("VCSN\x00\x01\xff binary bytes", 20);
  all.push_back(imp);

  WireRequest fwd;
  fwd.type = WireRequestType::kForwarded;
  fwd.request_id = 94;
  fwd.shard_id = 3;
  fwd.epoch = 17;
  {
    WireRequest inner;
    inner.type = WireRequestType::kStep;
    inner.request_id = 94;
    inner.session_id = "sess.x";
    fwd.inner = EncodeRequestPayload(inner);
  }
  all.push_back(fwd);

  WireRequest join;
  join.type = WireRequestType::kJoinShard;
  join.request_id = 95;
  join.shard_id = 4;
  join.port = 40123;
  all.push_back(join);

  WireRequest drain;
  drain.type = WireRequestType::kDrainShard;
  drain.request_id = 96;
  drain.shard_id = 5;
  all.push_back(drain);

  WireRequest migrate;
  migrate.type = WireRequestType::kMigrateSession;
  migrate.request_id = 97;
  migrate.session_id = "sess.x";
  migrate.shard_id = 6;
  all.push_back(migrate);

  WireRequest topology;
  topology.type = WireRequestType::kTopology;
  topology.request_id = 98;
  all.push_back(topology);

  WireRequest role;
  role.type = WireRequestType::kSetRole;
  role.request_id = 99;
  role.shard_id = 7;
  role.epoch = 21;
  all.push_back(role);
  return all;
}

std::vector<WireResponse> AllResponses() {
  std::vector<WireResponse> all;

  WireResponse err;
  err.type = WireResponseType::kError;
  err.request_id = 1;
  err.code = StatusCode::kResourceExhausted;
  err.message = "manager is at max_inflight_requests";
  all.push_back(err);

  WireResponse info;
  info.type = WireResponseType::kSessionInfo;
  info.request_id = 2;
  info.info.id = "alice-1";
  info.info.dataset = "D2";
  info.info.iteration = 3;
  info.info.budget = 5;
  info.info.pending = true;
  info.info.finished = false;
  info.info.resident = false;
  info.info.emd = 0.123456789;
  all.push_back(info);

  WireResponse pending;
  pending.type = WireResponseType::kPending;
  pending.request_id = 3;
  pending.pending.iteration = 2;
  pending.pending.strategy = QuestionStrategy::kSingle;
  pending.pending.cqg_benefit = 7.25;
  pending.pending.cqg_vertices = 4;
  pending.pending.cqg_edges = 6;
  pending.pending.pool_questions = 55;
  all.push_back(pending);

  WireResponse trace;
  trace.type = WireResponseType::kTrace;
  trace.request_id = 4;
  trace.trace.iteration = 2;
  trace.trace.emd = 0.5;
  trace.trace.user_seconds = 12.75;
  trace.trace.questions_asked = 9;
  trace.trace.cqg_benefit = 3.5;
  trace.trace.incremental.detect_full_scans = 1;
  trace.trace.incremental.detect_delta_updates = 2;
  trace.trace.incremental.erg_full_builds = 3;
  trace.trace.incremental.erg_delta_updates = 4;
  trace.trace.incremental.sim_join_full = 5;
  trace.trace.incremental.sim_join_fallbacks = 6;
  trace.trace.incremental.sim_join_delta_syncs = 7;
  all.push_back(trace);

  WireResponse ack;
  ack.type = WireResponseType::kAck;
  ack.request_id = 5;
  all.push_back(ack);

  WireResponse stats;
  stats.type = WireResponseType::kStats;
  stats.request_id = 6;
  stats.stats.sessions_created = 11;
  stats.stats.steps = 12;
  stats.stats.answers = 13;
  stats.stats.snapshots = 14;
  stats.stats.evictions = 15;
  stats.stats.restores_from_disk = 16;
  stats.stats.rejected_capacity = 17;
  stats.stats.rejected_inflight = 18;
  stats.stats.rejected_session_queue = 19;
  stats.stats.detect_full_scans = 20;
  stats.stats.detect_delta_updates = 21;
  stats.stats.erg_full_builds = 22;
  stats.stats.erg_delta_updates = 23;
  stats.stats.sim_join_full = 24;
  stats.stats.sim_join_fallbacks = 25;
  stats.stats.sim_join_delta_syncs = 26;
  all.push_back(stats);

  // --- sharding responses ---
  WireResponse state;
  state.type = WireResponseType::kState;
  state.request_id = 7;
  state.state = std::string("snapshot\x00\x7f\xfe bytes", 17);
  all.push_back(state);

  WireResponse topology;
  topology.type = WireResponseType::kTopology;
  topology.request_id = 8;
  topology.topology.epoch = 9;
  WireShardStatus up;
  up.shard_id = 0;
  up.port = 41000;
  up.alive = true;
  up.draining = false;
  up.sessions = 12;
  topology.topology.shards.push_back(up);
  WireShardStatus down;
  down.shard_id = 1;
  down.port = 41001;
  down.alive = false;
  down.draining = true;
  down.sessions = 0;
  topology.topology.shards.push_back(down);
  all.push_back(topology);
  return all;
}

std::string PayloadOf(const std::string& frame) {
  std::string buffer = frame;
  std::string payload;
  EXPECT_EQ(NextFrame(buffer, &payload), FrameStatus::kFrame);
  EXPECT_TRUE(buffer.empty());
  return payload;
}

TEST(WireCodecTest, RequestRoundTripIsByteExactForEveryType) {
  for (const WireRequest& req : AllRequests()) {
    SCOPED_TRACE(static_cast<int>(req.type));
    std::string frame = EncodeRequest(req);
    Result<WireRequest> decoded = DecodeRequestPayload(PayloadOf(frame));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().type, req.type);
    EXPECT_EQ(decoded.value().request_id, req.request_id);
    // Re-encoding the decode reproduces the frame exactly — every field,
    // doubles included, survives bit-for-bit.
    EXPECT_EQ(EncodeRequest(decoded.value()), frame);
  }
}

TEST(WireCodecTest, ResponseRoundTripIsByteExactForEveryType) {
  for (const WireResponse& resp : AllResponses()) {
    SCOPED_TRACE(static_cast<int>(resp.type));
    std::string frame = EncodeResponse(resp);
    Result<WireResponse> decoded = DecodeResponsePayload(PayloadOf(frame));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().type, resp.type);
    EXPECT_EQ(decoded.value().request_id, resp.request_id);
    EXPECT_EQ(EncodeResponse(decoded.value()), frame);
  }
}

TEST(WireCodecTest, ReassemblesPartialAndPipelinedFrames) {
  std::vector<WireRequest> requests = AllRequests();
  std::string stream;
  for (const WireRequest& req : requests) stream += EncodeRequest(req);

  // Feed the whole pipelined stream one byte at a time; each frame must pop
  // out exactly when its last byte arrives, in order.
  std::string buffer;
  size_t seen = 0;
  for (char c : stream) {
    buffer += c;
    std::string payload;
    FrameStatus fs = NextFrame(buffer, &payload);
    if (fs == FrameStatus::kFrame) {
      Result<WireRequest> decoded = DecodeRequestPayload(payload);
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(decoded.value().request_id, requests[seen].request_id);
      ++seen;
      // Never more than one frame completed by a single byte.
      EXPECT_EQ(NextFrame(buffer, &payload), FrameStatus::kNeedMore);
    } else {
      EXPECT_EQ(fs, FrameStatus::kNeedMore);
    }
  }
  EXPECT_EQ(seen, requests.size());
  EXPECT_TRUE(buffer.empty());

  // All at once: frames drain in order from one buffer.
  buffer = stream;
  for (const WireRequest& req : requests) {
    std::string payload;
    ASSERT_EQ(NextFrame(buffer, &payload), FrameStatus::kFrame);
    Result<WireRequest> decoded = DecodeRequestPayload(payload);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().request_id, req.request_id);
  }
  EXPECT_TRUE(buffer.empty());
}

TEST(WireCodecTest, RejectsBadHeaders) {
  std::string payload;

  // Wrong magic is rejected as soon as the mismatch is visible, even before
  // a full header arrives.
  std::string buffer = "GET / HTTP/1.1\r\n";
  EXPECT_EQ(NextFrame(buffer, &payload), FrameStatus::kBad);
  buffer = "VX";
  EXPECT_EQ(NextFrame(buffer, &payload), FrameStatus::kBad);
  // A strict prefix of the magic is not yet an error.
  buffer = "VCW";
  EXPECT_EQ(NextFrame(buffer, &payload), FrameStatus::kNeedMore);

  // Unknown version.
  std::string frame = EncodeRequest(AllRequests()[1]);
  buffer = frame;
  buffer[4] = 9;
  EXPECT_EQ(NextFrame(buffer, &payload), FrameStatus::kBad);

  // Oversized length: greater than kMaxWirePayload must be rejected up
  // front, not allocated.
  buffer = frame.substr(0, 5);
  uint32_t huge = kMaxWirePayload + 1;
  for (int i = 0; i < 4; ++i) {
    buffer += static_cast<char>((huge >> (8 * i)) & 0xFF);
  }
  EXPECT_EQ(NextFrame(buffer, &payload), FrameStatus::kBad);

  // 0xFFFFFFFF likewise.
  buffer = frame.substr(0, 5) + std::string(4, char(0xFF));
  EXPECT_EQ(NextFrame(buffer, &payload), FrameStatus::kBad);
}

TEST(WireCodecTest, ZeroLengthFrameIsAFrameButNotAMessage) {
  std::string buffer = EncodeFrame("");
  std::string payload = "sentinel";
  EXPECT_EQ(NextFrame(buffer, &payload), FrameStatus::kFrame);
  EXPECT_TRUE(payload.empty());
  EXPECT_FALSE(DecodeRequestPayload(payload).ok());
  EXPECT_FALSE(DecodeResponsePayload(payload).ok());
}

TEST(WireCodecTest, RejectsTruncatedPayloadAtEveryPrefix) {
  for (const WireRequest& req : AllRequests()) {
    std::string payload = PayloadOf(EncodeRequest(req));
    for (size_t len = 0; len < payload.size(); ++len) {
      EXPECT_FALSE(DecodeRequestPayload(payload.substr(0, len)).ok())
          << "request type " << static_cast<int>(req.type) << " len " << len;
    }
    EXPECT_FALSE(DecodeRequestPayload(payload + "x").ok());
  }
  for (const WireResponse& resp : AllResponses()) {
    std::string payload = PayloadOf(EncodeResponse(resp));
    for (size_t len = 0; len < payload.size(); ++len) {
      EXPECT_FALSE(DecodeResponsePayload(payload.substr(0, len)).ok())
          << "response type " << static_cast<int>(resp.type) << " len " << len;
    }
    EXPECT_FALSE(DecodeResponsePayload(payload + "x").ok());
  }
}

// Single-byte corruption over every request and response payload: the
// decoder must return cleanly for any mutation (a rare one may still decode
// — e.g. a flipped float bit — the contract is "returns, never crashes").
TEST(WireCodecTest, SingleByteCorruptionNeverAborts) {
  for (const WireRequest& req : AllRequests()) {
    std::string payload = PayloadOf(EncodeRequest(req));
    for (size_t pos = 0; pos < payload.size();
         pos += (pos < 2048 ? 1 : 131)) {
      for (unsigned char v : {0x00, 0x01, 0xFF}) {
        if (static_cast<unsigned char>(payload[pos]) == v) continue;
        std::string mutated = payload;
        mutated[pos] = static_cast<char>(v);
        (void)DecodeRequestPayload(mutated);
      }
    }
  }
  for (const WireResponse& resp : AllResponses()) {
    std::string payload = PayloadOf(EncodeResponse(resp));
    for (size_t pos = 0; pos < payload.size();
         pos += (pos < 2048 ? 1 : 131)) {
      for (unsigned char v : {0x00, 0x01, 0xFF}) {
        if (static_cast<unsigned char>(payload[pos]) == v) continue;
        std::string mutated = payload;
        mutated[pos] = static_cast<char>(v);
        (void)DecodeResponsePayload(mutated);
      }
    }
  }
}

TEST(WireCodecTest, ErrorResponseCarriesCodeAndMessage) {
  WireResponse err =
      ErrorResponse(42, Status::NotFound("no session named bob"));
  EXPECT_EQ(err.type, WireResponseType::kError);
  EXPECT_EQ(err.request_id, 42u);
  EXPECT_EQ(err.code, StatusCode::kNotFound);
  EXPECT_EQ(err.message, "no session named bob");

  // An OK code inside a kError response is corrupt by definition.
  std::string payload = PayloadOf(EncodeResponse(err));
  // type(1) + request_id(8) => the code byte sits at offset 9.
  std::string mutated = payload;
  mutated[9] = 0;  // StatusCode::kOk
  EXPECT_FALSE(DecodeResponsePayload(mutated).ok());
}

// All 16 wire-carried ServeStats counters survive the StatsResponse codec
// with distinct values. The retired kernel-batching members are not on the
// wire and decode as 0.
TEST(WireStatsTest, StatsResponseRoundTripsEveryCounter) {
  WireResponse stats;
  stats.type = WireResponseType::kStats;
  stats.request_id = 1234;
  uint64_t v = 1000;
  ServeStats& s = stats.stats;
  for (uint64_t* field :
       {&s.sessions_created, &s.steps, &s.answers, &s.snapshots, &s.evictions,
        &s.restores_from_disk, &s.rejected_capacity, &s.rejected_inflight,
        &s.rejected_session_queue, &s.detect_full_scans,
        &s.detect_delta_updates, &s.erg_full_builds, &s.erg_delta_updates,
        &s.sim_join_full, &s.sim_join_fallbacks, &s.sim_join_delta_syncs}) {
    *field = ++v;  // 1001..1016: every counter distinct
  }
  s.em_infer_batches = 7;  // not encoded

  std::string payload = PayloadOf(EncodeResponse(stats));
  // type(1) + request_id(8) + 16 x u64.
  EXPECT_EQ(payload.size(), 1u + 8u + 16u * 8u);
  Result<WireResponse> decoded = DecodeResponsePayload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const ServeStats& d = decoded.value().stats;
  EXPECT_EQ(d.sessions_created, 1001u);
  EXPECT_EQ(d.steps, 1002u);
  EXPECT_EQ(d.answers, 1003u);
  EXPECT_EQ(d.snapshots, 1004u);
  EXPECT_EQ(d.evictions, 1005u);
  EXPECT_EQ(d.restores_from_disk, 1006u);
  EXPECT_EQ(d.rejected_capacity, 1007u);
  EXPECT_EQ(d.rejected_inflight, 1008u);
  EXPECT_EQ(d.rejected_session_queue, 1009u);
  EXPECT_EQ(d.detect_full_scans, 1010u);
  EXPECT_EQ(d.detect_delta_updates, 1011u);
  EXPECT_EQ(d.erg_full_builds, 1012u);
  EXPECT_EQ(d.erg_delta_updates, 1013u);
  EXPECT_EQ(d.sim_join_full, 1014u);
  EXPECT_EQ(d.sim_join_fallbacks, 1015u);
  EXPECT_EQ(d.sim_join_delta_syncs, 1016u);
  EXPECT_EQ(d.em_infer_batches, 0u);
}

TEST(WireVersionTest, FrameVersionIsReportedAndBounded) {
  WireRequest step;
  step.type = WireRequestType::kStep;
  step.request_id = 11;
  step.session_id = "s";

  // Every frame carries kWireVersion.
  std::string frame = EncodeRequest(step);
  EXPECT_EQ(static_cast<uint8_t>(frame[4]), kWireVersion);

  // Any other version is a malformed header: 1 (pre-history), 2 to 4
  // (older layouts; 4 still carried the oracle-mode bytes in Create) and
  // kWireVersion + 1 (the future) all close the connection.
  std::string payload;
  for (uint8_t bad : {uint8_t{1}, uint8_t{2}, uint8_t{3}, uint8_t{4},
                      static_cast<uint8_t>(kWireVersion + 1)}) {
    std::string bad_frame = frame;
    bad_frame[4] = static_cast<char>(bad);
    EXPECT_EQ(NextFrame(bad_frame, &payload), FrameStatus::kBad)
        << static_cast<int>(bad);
  }
}

// The sharding status codes travel as themselves; nothing clamps them.
TEST(WireVersionTest, ShardingStatusCodesSurviveTheWire) {
  for (StatusCode code :
       {StatusCode::kUnavailable, StatusCode::kDeadlineExceeded}) {
    WireResponse err = ErrorResponse(7, Status(code, "gone"));
    Result<WireResponse> decoded =
        DecodeResponsePayload(PayloadOf(EncodeResponse(err)));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().code, code);
    EXPECT_EQ(decoded.value().message, "gone");
  }
}

int RawConnect(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

void SendRaw(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = send(fd, bytes.data() + sent, bytes.size() - sent, 0);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
}

// Reads until one whole frame pops out; returns its payload.
std::string ReadRawFrame(int fd) {
  std::string buffer;
  std::string payload;
  char chunk[512];
  for (;;) {
    FrameStatus fs = NextFrame(buffer, &payload);
    if (fs == FrameStatus::kFrame) return payload;
    EXPECT_NE(fs, FrameStatus::kBad);
    if (fs == FrameStatus::kBad) return "";
    ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    EXPECT_GT(n, 0) << "peer closed before a frame completed";
    if (n <= 0) return "";
    buffer.append(chunk, static_cast<size_t>(n));
  }
}

// End to end: a frame at an older version (a peer built with the previous
// Stats layout) gets one error frame and the connection is closed; a
// connection at kWireVersion is served.
TEST(WireVersionTest, ServerRejectsOtherVersionsAndCloses) {
  SessionManager manager;
  VisCleanServer server(manager);
  ASSERT_TRUE(server.Start().ok());

  WireRequest stats;
  stats.type = WireRequestType::kStats;
  stats.request_id = 31;

  int fd = RawConnect(server.port());
  std::string old = EncodeRequest(stats);
  old[4] = static_cast<char>(kWireVersion - 1);
  SendRaw(fd, old);
  Result<WireResponse> decoded = DecodeResponsePayload(ReadRawFrame(fd));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().type, WireResponseType::kError);
  EXPECT_EQ(decoded.value().code, StatusCode::kInvalidArgument);
  char byte;
  EXPECT_EQ(recv(fd, &byte, 1, 0), 0);  // EOF: server closed
  close(fd);

  fd = RawConnect(server.port());
  stats.request_id = 34;
  SendRaw(fd, EncodeRequest(stats));
  decoded = DecodeResponsePayload(ReadRawFrame(fd));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().type, WireResponseType::kStats);
  EXPECT_EQ(decoded.value().request_id, 34u);
  close(fd);

  server.Stop();
}

}  // namespace
}  // namespace visclean
