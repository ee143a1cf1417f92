// Client libraries for the VisCleanServer's two dialects.
//
// Client speaks the binary VCWP protocol over a blocking socket and mirrors
// the SessionManager API one call at a time: each method encodes a request,
// sends one frame, and blocks for the matching response (request ids are
// still assigned and checked, so a desynchronized server is detected rather
// than silently misattributed). Server-side errors come back as the same
// Status codes an in-process caller would see — the differential suite
// leans on that equivalence.
//
// Deadlines. A hung peer must not wedge the caller — the shard router fails
// over on timeouts instead of blocking a worker forever. ClientOptions
// carries a connect deadline (always on) and an IO deadline (opt-in, 0 =
// block indefinitely like a plain socket); an elapsed deadline surfaces as
// kDeadlineExceeded and disconnects, because a half-read frame cannot be
// resynchronized.
//
// LineClient speaks the text dialect: send one command line, read one
// response line. Used by tests and interactive drivers (e.g. netcat-style
// exploration is the same protocol).
#ifndef VISCLEAN_NET_CLIENT_H_
#define VISCLEAN_NET_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "obs/metrics.h"
#include "serve/session_manager.h"
#include "serve/wire.h"

namespace visclean {

/// \brief Connection behaviour shared by both client dialects.
struct ClientOptions {
  /// Deadline for the TCP connect itself. Always enforced (a connect to a
  /// dead peer otherwise blocks for the kernel's SYN-retry budget).
  size_t connect_timeout_ms = 5000;
  /// Deadline for each whole request/response exchange, measured from the
  /// first byte sent. 0 disables (plain blocking IO, the pre-deadline
  /// behaviour tests rely on).
  size_t io_timeout_ms = 0;
};

/// \brief Binary-protocol client. Not thread-safe; use one per thread (the
/// server multiplexes connections, not the client).
class Client {
 public:
  Client() = default;
  explicit Client(ClientOptions options) : options_(options) {}
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to a VisCleanServer on 127.0.0.1.
  Status Connect(uint16_t port);
  void Disconnect();
  bool connected() const { return fd_ >= 0; }

  /// Sends one request and blocks for its response (kError responses are
  /// returned, not converted — use the typed wrappers below for that).
  Result<WireResponse> Call(WireRequest request);

  // SessionManager mirror. Each maps a kError response back onto a failed
  // Status with the server's code and message.
  Result<SessionInfo> Create(const std::string& id, const std::string& dataset,
                             const std::string& vql, SessionOptions options,
                             UserOptions user_options = {},
                             UserCostModel cost_model = {});
  Result<PendingInteraction> Step(const std::string& id);
  Result<WireTraceSummary> Answer(const std::string& id);
  Result<SessionInfo> GetStatus(const std::string& id);
  Status Snapshot(const std::string& id, const std::string& path);
  Result<SessionInfo> Restore(const std::string& id, const std::string& path);
  Status CloseSession(const std::string& id);
  Result<ServeStats> Stats();
  /// Decoded metrics snapshot (a shard's registry; through a router, the
  /// merged fleet view).
  Result<obs::MetricsSnapshot> Metrics();
  /// Captured slow-request traces as a JSON document.
  Result<std::string> Traces();

  // Sharding surface.
  Result<std::string> ExportState(const std::string& id, bool remove);
  Result<SessionInfo> ImportState(const std::string& id,
                                  const std::string& state);
  Status SetRole(uint32_t shard_id, uint64_t epoch);
  /// Wraps `inner` in a kForwarded envelope addressed to (shard_id, epoch)
  /// and returns the raw response (callers unwrap per inner type).
  Result<WireResponse> Forward(uint32_t shard_id, uint64_t epoch,
                               const WireRequest& inner);

 private:
  Status SendAll(const std::string& bytes);
  Result<std::string> ReadFrame(int64_t deadline_ms);

  ClientOptions options_;
  int fd_ = -1;
  std::string buffer_;  ///< bytes received past the last extracted frame
  uint64_t next_request_id_ = 1;
};

/// \brief Text-protocol client: one command line out, one response line in.
class LineClient {
 public:
  LineClient() = default;
  explicit LineClient(ClientOptions options) : options_(options) {}
  ~LineClient();

  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  Status Connect(uint16_t port);
  void Disconnect();

  /// Sends `line` (newline appended) and returns the one response line
  /// (without its newline).
  Result<std::string> Exchange(const std::string& line);

 private:
  ClientOptions options_;
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace visclean

#endif  // VISCLEAN_NET_CLIENT_H_
