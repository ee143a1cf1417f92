#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "net/command.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/session_manager.h"
#include "serve/wire.h"

namespace visclean {

namespace {

Status Errno(const char* what) {
  // strerror is not thread-safe (clang-tidy concurrency-mt-unsafe); the
  // numeric errno is enough for diagnostics.
  return Status::IoError(std::string(what) + " failed, errno " +
                         std::to_string(errno));
}

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::Ok();
}

/// One decoded input waiting its turn on a connection: either a request to
/// execute, or an already-serialized response (parse/decode errors answer
/// in arrival order without occupying a worker).
struct PendingItem {
  bool ready = false;
  WireRequest request;
  std::string response_bytes;
  // Telemetry timestamps (0 when obs is compiled out): the frame/line
  // decode interval measured on the IO thread, and when the item joined
  // the connection queue. They become retro child spans of the request.
  uint64_t decode_start_ns = 0;
  uint64_t decode_end_ns = 0;
  uint64_t enqueue_ns = 0;
};

struct Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}

  const int fd;
  enum class Mode { kUnknown, kBinary, kText };
  /// Written once by the IO thread before any request is dispatched; the
  /// dispatch queue's mutex publishes it to the workers.
  Mode mode = Mode::kUnknown;

  // Read side: IO thread only, no lock.
  std::string in;
  bool peer_eof = false;

  // Shared between the IO thread and workers.
  std::mutex mu;
  std::string out;                ///< serialized responses awaiting send
  std::deque<PendingItem> queue;  ///< decoded inputs not yet executing
  bool busy = false;              ///< one request dispatched/executing
  bool closing = false;           ///< close once queue + out drain
  bool dead = false;              ///< fd closed; workers discard output
};

using ConnPtr = std::shared_ptr<Connection>;

/// One request handed to the worker pool, with its queue provenance.
struct DispatchItem {
  ConnPtr conn;
  WireRequest request;
  uint64_t decode_start_ns = 0;
  uint64_t decode_end_ns = 0;
  uint64_t enqueue_ns = 0;
};

}  // namespace

struct VisCleanServer::Impl {
  Impl(SessionManager& manager_in, ServerOptions options_in)
      : owned_handler(std::make_unique<SessionManagerHandler>(manager_in)),
        handler(*owned_handler),
        options(options_in) {
    InitMetrics();
  }
  Impl(WireHandler& handler_in, ServerOptions options_in)
      : handler(handler_in), options(options_in) {
    InitMetrics();
  }

  void InitMetrics() {
    registry = options.registry != nullptr ? options.registry
                                           : &obs::Registry::Default();
    c_bytes_read = registry->GetCounter("net.bytes_read");
    c_bytes_written = registry->GetCounter("net.bytes_written");
    c_requests = registry->GetCounter("net.requests");
    g_open_conns = registry->GetGauge("net.open_connections");
    h_dispatch_wait_ns = registry->GetHistogram("net.dispatch_wait_ns");
    h_decode_ns = registry->GetHistogram("net.decode_ns");
    h_handle_ns = registry->GetHistogram("net.handle_ns");
  }

  std::unique_ptr<SessionManagerHandler> owned_handler;
  WireHandler& handler;
  ServerOptions options;

  obs::Registry* registry = nullptr;
  obs::Counter* c_bytes_read = nullptr;
  obs::Counter* c_bytes_written = nullptr;
  obs::Counter* c_requests = nullptr;
  obs::Gauge* g_open_conns = nullptr;
  obs::Histogram* h_dispatch_wait_ns = nullptr;  ///< enqueue -> worker pickup
  obs::Histogram* h_decode_ns = nullptr;         ///< frame/line decode time
  obs::Histogram* h_handle_ns = nullptr;         ///< WireHandler::Handle time

  int listen_fd = -1;
  uint16_t bound_port = 0;
  int wake_r = -1;
  int wake_w = -1;
  bool started = false;

  std::thread io_thread;
  std::vector<std::thread> workers;
  std::atomic<bool> stop_flag{false};

  mutable std::mutex conns_mu;
  std::vector<ConnPtr> conns;

  std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::deque<DispatchItem> dispatch;
  bool workers_stop = false;

  void Wake() {
    char byte = 0;
    // Best-effort: a full pipe already guarantees a pending wakeup.
    (void)!write(wake_w, &byte, 1);
  }

  std::string Serialize(const ConnPtr& conn, const WireResponse& response) {
    return conn->mode == Connection::Mode::kBinary
               ? EncodeResponse(response)
               : PrintResponseLine(response) + "\n";
  }

  /// Flushes leading ready items and dispatches the next request if the
  /// connection is idle. The per-connection FIFO lives here: at most one
  /// request per connection is ever in the dispatch queue.
  void Advance(const ConnPtr& conn) {
    DispatchItem next;
    bool enqueue = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      while (!conn->busy && !conn->queue.empty()) {
        PendingItem& front = conn->queue.front();
        if (front.ready) {
          if (!conn->dead) conn->out += front.response_bytes;
          conn->queue.pop_front();
          continue;
        }
        next.conn = conn;
        next.request = std::move(front.request);
        next.decode_start_ns = front.decode_start_ns;
        next.decode_end_ns = front.decode_end_ns;
        next.enqueue_ns = front.enqueue_ns;
        conn->queue.pop_front();
        conn->busy = true;
        enqueue = true;
        break;
      }
    }
    if (enqueue) {
      {
        std::lock_guard<std::mutex> lock(queue_mu);
        dispatch.push_back(std::move(next));
      }
      queue_cv.notify_one();
    }
  }

  void EnqueueRequest(const ConnPtr& conn, WireRequest request,
                      uint64_t decode_start_ns = 0,
                      uint64_t decode_end_ns = 0) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      PendingItem item;
      item.request = std::move(request);
      item.decode_start_ns = decode_start_ns;
      item.decode_end_ns = decode_end_ns;
#ifndef VISCLEAN_OBS_OFF
      item.enqueue_ns = obs::MonotonicNs();
#endif
      conn->queue.push_back(std::move(item));
    }
    Advance(conn);
  }

  void EnqueueReady(const ConnPtr& conn, std::string bytes) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      PendingItem item;
      item.ready = true;
      item.response_bytes = std::move(bytes);
      conn->queue.push_back(std::move(item));
    }
    Advance(conn);
  }

  void WorkerLoop() {
    for (;;) {
      DispatchItem item;
      {
        std::unique_lock<std::mutex> lock(queue_mu);
        queue_cv.wait(lock,
                      [this] { return workers_stop || !dispatch.empty(); });
        if (dispatch.empty()) return;  // only when workers_stop
        item = std::move(dispatch.front());
        dispatch.pop_front();
      }
      const ConnPtr& conn = item.conn;
      c_requests->Add(1);
      WireResponse response;
      {
#ifndef VISCLEAN_OBS_OFF
        uint64_t start_ns = obs::MonotonicNs();
        if (item.enqueue_ns != 0) {
          h_dispatch_wait_ns->Record(start_ns - item.enqueue_ns);
        }
        // Root span of this request — or, for a kForwarded envelope carrying
        // a router-side trace, a child joined into it (the originator keeps
        // completion/capture ownership). Decode + queue wait happened before
        // this scope existed, so they attach as retro children.
        obs::RequestTrace rt(
            obs::Tracer::Default(),
            std::string("net.") + WireRequestTypeName(item.request.type),
            item.request.trace_id, item.request.parent_span);
        if (item.decode_end_ns > item.decode_start_ns) {
          rt.RecordChild("net.decode", item.decode_start_ns,
                         item.decode_end_ns);
        }
        if (item.enqueue_ns != 0) {
          rt.RecordChild("net.queue", item.enqueue_ns, start_ns);
        }
        response = handler.Handle(item.request);
        h_handle_ns->Record(obs::MonotonicNs() - start_ns);
#else
        response = handler.Handle(item.request);
#endif
      }
      std::string bytes = Serialize(conn, response);
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->dead) conn->out += bytes;
        conn->busy = false;
      }
      Advance(conn);
      Wake();  // the IO thread re-polls with POLLOUT armed
    }
  }

  void ParseBinary(const ConnPtr& conn) {
    for (;;) {
      std::string payload;
      FrameStatus fs = NextFrame(conn->in, &payload);
      if (fs == FrameStatus::kNeedMore) break;
      if (fs == FrameStatus::kBad) {
        // One error frame, then hang up: a corrupt length-prefixed stream
        // cannot be resynchronized.
        WireResponse err = ErrorResponse(
            0, Status::InvalidArgument("malformed VCWP frame"));
        EnqueueReady(conn, EncodeResponse(err));
        conn->peer_eof = true;  // stop reading
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->closing = true;
        break;
      }
      uint64_t decode_start_ns = 0;
      uint64_t decode_end_ns = 0;
#ifndef VISCLEAN_OBS_OFF
      decode_start_ns = obs::MonotonicNs();
#endif
      Result<WireRequest> request = DecodeRequestPayload(payload);
#ifndef VISCLEAN_OBS_OFF
      decode_end_ns = obs::MonotonicNs();
      h_decode_ns->Record(decode_end_ns - decode_start_ns);
#endif
      if (!request.ok()) {
        EnqueueReady(conn, EncodeResponse(ErrorResponse(0, request.status())));
      } else {
        EnqueueRequest(conn, std::move(request).value(), decode_start_ns,
                       decode_end_ns);
      }
    }
  }

  void ParseText(const ConnPtr& conn) {
    for (;;) {
      size_t nl = conn->in.find('\n');
      std::string line;
      if (nl == std::string::npos) {
        // A final unterminated line is still a command once the peer shuts
        // down its write side.
        if (!conn->peer_eof || conn->in.empty()) break;
        line = std::move(conn->in);
        conn->in.clear();
      } else {
        line = conn->in.substr(0, nl);
        conn->in.erase(0, nl + 1);
      }
      if (!line.empty() && line.back() == '\r') line.pop_back();
      bool blank = true;
      for (char c : line) {
        if (c != ' ' && c != '\t') blank = false;
      }
      if (blank) continue;
      uint64_t decode_start_ns = 0;
      uint64_t decode_end_ns = 0;
#ifndef VISCLEAN_OBS_OFF
      decode_start_ns = obs::MonotonicNs();
#endif
      Result<WireRequest> request = ParseCommand(line);
#ifndef VISCLEAN_OBS_OFF
      decode_end_ns = obs::MonotonicNs();
      h_decode_ns->Record(decode_end_ns - decode_start_ns);
#endif
      if (!request.ok()) {
        WireResponse err = ErrorResponse(0, request.status());
        EnqueueReady(conn, PrintResponseLine(err) + "\n");
      } else {
        EnqueueRequest(conn, std::move(request).value(), decode_start_ns,
                       decode_end_ns);
      }
    }
  }

  void ParseInput(const ConnPtr& conn) {
    if (conn->mode == Connection::Mode::kUnknown) {
      const size_t have = conn->in.size() < 4 ? conn->in.size() : 4;
      if (std::memcmp(conn->in.data(), kWireMagic, have) == 0 && have < 4) {
        // A strict prefix of the magic: need more bytes to pick a mode,
        // unless the peer already hung up (then it is a short text line).
        if (!conn->peer_eof) return;
        conn->mode = Connection::Mode::kText;
      } else {
        conn->mode = have == 4 && std::memcmp(conn->in.data(), kWireMagic,
                                              4) == 0
                         ? Connection::Mode::kBinary
                         : Connection::Mode::kText;
      }
    }
    if (conn->mode == Connection::Mode::kBinary) {
      ParseBinary(conn);
    } else {
      ParseText(conn);
    }
  }

  void ReadFrom(const ConnPtr& conn) {
    char buf[64 * 1024];
    for (;;) {
      ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn->in.append(buf, static_cast<size_t>(n));
        c_bytes_read->Add(static_cast<uint64_t>(n));
        continue;
      }
      if (n == 0) {
        conn->peer_eof = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      conn->peer_eof = true;  // connection error: drop after drain
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->out.clear();
      conn->closing = true;
      break;
    }
    ParseInput(conn);
  }

  void FlushTo(const ConnPtr& conn) {
    std::lock_guard<std::mutex> lock(conn->mu);
    size_t sent = 0;
    while (sent < conn->out.size()) {
      ssize_t n = send(conn->fd, conn->out.data() + sent,
                       conn->out.size() - sent, MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<size_t>(n);
        continue;
      }
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        conn->out.clear();
        conn->closing = true;
        conn->peer_eof = true;
        return;
      }
      break;
    }
    if (sent > 0) c_bytes_written->Add(sent);
    conn->out.erase(0, sent);
  }

  void Accept() {
    for (;;) {
      int fd = accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN or a transient error; poll again
      }
      if (!SetNonBlocking(fd).ok()) {
        close(fd);
        continue;
      }
      int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      std::lock_guard<std::mutex> lock(conns_mu);
      conns.push_back(std::make_shared<Connection>(fd));
      g_open_conns->Add(1);
    }
  }

  void IoLoop() {
    std::vector<pollfd> pfds;
    std::vector<ConnPtr> polled;
    for (;;) {
      const bool stopping = stop_flag.load();
      if (stopping && listen_fd >= 0) {
        close(listen_fd);
        listen_fd = -1;
      }

      pfds.clear();
      polled.clear();
      pfds.push_back({wake_r, POLLIN, 0});
      if (listen_fd >= 0) pfds.push_back({listen_fd, POLLIN, 0});
      {
        std::lock_guard<std::mutex> lock(conns_mu);
        for (const ConnPtr& conn : conns) {
          short events = 0;
          {
            std::lock_guard<std::mutex> clock(conn->mu);
            if (stopping) conn->closing = true;
            const size_t depth = conn->queue.size() + (conn->busy ? 1 : 0);
            if (!conn->peer_eof && !conn->closing &&
                depth < options.max_pipelined_requests) {
              events |= POLLIN;
            }
            if (!conn->out.empty()) events |= POLLOUT;
          }
          pfds.push_back({conn->fd, events, 0});
          polled.push_back(conn);
        }
      }

      // A finite timeout backstops any missed wakeup and re-checks
      // stop_flag; the self-pipe makes the common case immediate.
      int rc = poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 100);
      if (rc < 0 && errno != EINTR) break;

      size_t idx = 0;
      if (pfds[idx].revents & POLLIN) {
        char drain[256];
        while (read(wake_r, drain, sizeof(drain)) > 0) {
        }
      }
      ++idx;
      if (listen_fd >= 0) {
        if (pfds[idx].revents & POLLIN) Accept();
        ++idx;
      }
      for (size_t i = 0; i < polled.size(); ++i, ++idx) {
        short revents = pfds[idx].revents;
        if (revents & POLLOUT) FlushTo(polled[i]);
        if (revents & (POLLIN | POLLHUP | POLLERR)) ReadFrom(polled[i]);
      }

      // Reap connections whose work is fully drained.
      {
        std::lock_guard<std::mutex> lock(conns_mu);
        for (size_t i = 0; i < conns.size();) {
          const ConnPtr& conn = conns[i];
          bool close_now = false;
          {
            std::lock_guard<std::mutex> clock(conn->mu);
            if ((conn->peer_eof || conn->closing) && !conn->busy &&
                conn->queue.empty() && conn->out.empty()) {
              conn->dead = true;
              close_now = true;
            }
          }
          if (close_now) {
            close(conn->fd);
            g_open_conns->Add(-1);
            conns.erase(conns.begin() + static_cast<ptrdiff_t>(i));
          } else {
            ++i;
          }
        }
        if (stopping && conns.empty()) return;
      }
    }
  }
};

VisCleanServer::VisCleanServer(SessionManager& manager, ServerOptions options)
    : impl_(std::make_unique<Impl>(manager, options)) {}

VisCleanServer::VisCleanServer(WireHandler& handler, ServerOptions options)
    : impl_(std::make_unique<Impl>(handler, options)) {}

VisCleanServer::~VisCleanServer() { Stop(); }

Status VisCleanServer::Start() {
  Impl& s = *impl_;
  VC_CHECK(!s.started, "server already started");
  s.listen_fd = socket(AF_INET, SOCK_STREAM, 0);
  if (s.listen_fd < 0) return Errno("socket");
  int one = 1;
  setsockopt(s.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(s.options.port);
  if (bind(s.listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    close(s.listen_fd);
    s.listen_fd = -1;
    return Errno("bind");
  }
  if (listen(s.listen_fd, s.options.listen_backlog) < 0) {
    close(s.listen_fd);
    s.listen_fd = -1;
    return Errno("listen");
  }
  socklen_t len = sizeof(addr);
  if (getsockname(s.listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    close(s.listen_fd);
    s.listen_fd = -1;
    return Errno("getsockname");
  }
  s.bound_port = ntohs(addr.sin_port);
  VC_RETURN_IF_ERROR(SetNonBlocking(s.listen_fd));

  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    close(s.listen_fd);
    s.listen_fd = -1;
    return Errno("pipe");
  }
  s.wake_r = pipe_fds[0];
  s.wake_w = pipe_fds[1];
  VC_RETURN_IF_ERROR(SetNonBlocking(s.wake_r));
  VC_RETURN_IF_ERROR(SetNonBlocking(s.wake_w));

  s.stop_flag.store(false);
  s.workers_stop = false;
  const size_t workers =
      s.options.worker_threads == 0 ? 1 : s.options.worker_threads;
  s.workers.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    s.workers.emplace_back([&s] { s.WorkerLoop(); });
  }
  s.io_thread = std::thread([&s] { s.IoLoop(); });
  s.started = true;
  return Status::Ok();
}

void VisCleanServer::Stop() {
  Impl& s = *impl_;
  if (!s.started) return;
  // Drain in two phases: the IO thread exits once every connection has
  // flushed (workers must stay alive to finish their requests), then the
  // workers see an empty dispatch queue and stop.
  s.stop_flag.store(true);
  s.Wake();
  s.io_thread.join();
  {
    std::lock_guard<std::mutex> lock(s.queue_mu);
    s.workers_stop = true;
  }
  s.queue_cv.notify_all();
  for (std::thread& w : s.workers) w.join();
  s.workers.clear();
  close(s.wake_r);
  close(s.wake_w);
  s.wake_r = s.wake_w = -1;
  if (s.listen_fd >= 0) {
    close(s.listen_fd);
    s.listen_fd = -1;
  }
  s.started = false;
}

uint16_t VisCleanServer::port() const { return impl_->bound_port; }

size_t VisCleanServer::connections() const {
  std::lock_guard<std::mutex> lock(impl_->conns_mu);
  return impl_->conns.size();
}

}  // namespace visclean
