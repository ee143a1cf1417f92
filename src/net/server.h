// VisCleanServer: a TCP front-end that exposes one SessionManager over the
// VCWP wire protocol and the line-oriented command grammar on the same
// port.
//
// Threading model. One IO thread runs a poll() loop over the listen socket,
// a self-pipe wakeup, and every live connection (nonblocking fds, per-
// connection read buffer with frame/line reassembly). Decoded requests are
// dispatched to a small pool of worker threads owned by the server — NOT
// the SessionManager's shared ThreadPool, whose ParallelChunks barrier is
// not reentrant: a request executing on that pool would deadlock the
// session's own benefit fan-out. Workers execute through the server's
// WireHandler (by default a SessionManagerHandler over the given manager;
// the shard router passes its own), serialize the response for the
// connection's mode, and append it to the connection's write buffer; the IO
// thread flushes.
//
// Wire version. There is no negotiation: the server speaks kWireVersion
// only, and a frame at any other version takes the malformed-frame path
// below (one error frame, then the connection closes).
//
// Ordering. Requests on one connection execute strictly in arrival order
// (at most one in flight per connection, the rest queue on the connection),
// so a pipelined Step → Answer pair cannot race itself; distinct
// connections run concurrently up to the worker count, and beyond that the
// SessionManager's admission control answers kResourceExhausted. When a
// connection's queue reaches its pipeline cap the server simply stops
// reading that socket until it drains — TCP backpressure instead of
// protocol errors.
//
// Mode detection. The first four bytes of a connection pick its dialect:
// exactly "VCWP" means binary frames for the whole connection; anything
// else means newline-terminated commands answered with "OK ..."/"ERR ..."
// lines. A malformed binary frame is answered with one error frame and the
// connection is closed (resynchronizing a corrupt length-prefixed stream is
// impossible); a malformed text line only earns an ERR line.
//
// Shutdown. Stop() closes the listen socket, lets queued requests finish,
// flushes every write buffer, then closes all connections and joins the
// threads (graceful drain; no request is abandoned mid-execution).
#ifndef VISCLEAN_NET_SERVER_H_
#define VISCLEAN_NET_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"

namespace visclean {

class SessionManager;
class WireHandler;

namespace obs {
class Registry;
}  // namespace obs

/// \brief Server configuration.
struct ServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 asks the kernel for an ephemeral port
  /// (read it back with port() after Start()).
  uint16_t port = 0;
  /// Worker threads executing requests (each blocks inside the
  /// SessionManager for the duration of one request).
  size_t worker_threads = 4;
  /// Requests allowed to queue on one connection behind the executing one
  /// before the server stops reading that socket (pipelining depth).
  size_t max_pipelined_requests = 64;
  /// accept() backlog.
  int listen_backlog = 128;
  /// Telemetry registry for the per-connection IO counters (net.*); null
  /// uses obs::Registry::Default(). A shard host passes its manager's
  /// registry so one snapshot covers IO and engine metrics together.
  obs::Registry* registry = nullptr;
};

/// \brief TCP server over one request handler. Start/Stop are not
/// thread-safe against each other; everything in between is.
class VisCleanServer {
 public:
  /// Fronts `manager` through an owned SessionManagerHandler (the shard /
  /// single-process configuration). `manager` must outlive the server.
  explicit VisCleanServer(SessionManager& manager, ServerOptions options = {});
  /// Fronts an arbitrary handler (the router tier). `handler` must outlive
  /// the server.
  explicit VisCleanServer(WireHandler& handler, ServerOptions options = {});
  ~VisCleanServer();

  VisCleanServer(const VisCleanServer&) = delete;
  VisCleanServer& operator=(const VisCleanServer&) = delete;

  /// Binds, listens, and spawns the IO + worker threads.
  Status Start();

  /// Graceful drain: stop accepting, finish queued requests, flush
  /// responses, close connections, join threads. Idempotent.
  void Stop();

  /// The bound port (valid after a successful Start()).
  uint16_t port() const;

  /// Live connection count (tests + metrics).
  size_t connections() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace visclean

#endif  // VISCLEAN_NET_SERVER_H_
