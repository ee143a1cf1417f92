#include "net/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <utility>

namespace visclean {

namespace {

Status Errno(const char* what) {
  return Status::IoError(std::string(what) + " failed, errno " +
                         std::to_string(errno));
}

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Absolute deadline for an exchange starting now; 0 = none.
int64_t DeadlineFrom(size_t timeout_ms) {
  return timeout_ms == 0 ? 0 : NowMs() + static_cast<int64_t>(timeout_ms);
}

/// Waits until `fd` is ready for `events` or the absolute deadline passes.
/// deadline_ms == 0 blocks indefinitely.
Status AwaitReady(int fd, short events, int64_t deadline_ms,
                  const char* what) {
  for (;;) {
    int wait = -1;
    if (deadline_ms != 0) {
      int64_t remaining = deadline_ms - NowMs();
      if (remaining <= 0) {
        return Status::DeadlineExceeded(std::string(what) + " timed out");
      }
      wait = static_cast<int>(remaining);
    }
    pollfd pfd{fd, events, 0};
    int n = poll(&pfd, 1, wait);
    if (n > 0) return Status::Ok();
    if (n == 0) {
      return Status::DeadlineExceeded(std::string(what) + " timed out");
    }
    if (errno == EINTR) continue;
    return Errno("poll");
  }
}

Status SetNonBlocking(int fd, bool enable) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  int next = enable ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (fcntl(fd, F_SETFL, next) < 0) return Errno("fcntl(F_SETFL)");
  return Status::Ok();
}

Result<int> ConnectLoopback(uint16_t port, size_t connect_timeout_ms) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);

  // Non-blocking connect + poll so a dead peer fails in connect_timeout_ms
  // with kDeadlineExceeded rather than the kernel's SYN-retry budget.
  Status nb = SetNonBlocking(fd, true);
  if (!nb.ok()) {
    close(fd);
    return nb;
  }
  const int64_t deadline = DeadlineFrom(connect_timeout_ms);
  for (;;) {
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EINPROGRESS || errno == EALREADY) {
      Status ready = AwaitReady(fd, POLLOUT, deadline, "connect");
      if (!ready.ok()) {
        close(fd);
        return ready;
      }
      int err = 0;
      socklen_t len = sizeof(err);
      if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
        close(fd);
        errno = err != 0 ? err : errno;
        return Errno("connect");
      }
      break;
    }
    if (errno == EISCONN) break;
    close(fd);
    return Errno("connect");
  }
  Status blocking = SetNonBlocking(fd, false);
  if (!blocking.ok()) {
    close(fd);
    return blocking;
  }
  return fd;
}

/// Sends all bytes, polling for writability against the absolute deadline
/// when one is set (deadline_ms == 0 blocks like plain send).
Status SendAllTo(int fd, const std::string& bytes, int64_t deadline_ms) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    if (deadline_ms != 0) {
      VC_RETURN_IF_ERROR(AwaitReady(fd, POLLOUT, deadline_ms, "send"));
    }
    ssize_t n =
        send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    return Errno("send");
  }
  return Status::Ok();
}

}  // namespace

// ---- Client (binary protocol) ----

Client::~Client() { Disconnect(); }

Status Client::Connect(uint16_t port) {
  VC_CHECK(fd_ < 0, "client already connected");
  Result<int> fd = ConnectLoopback(port, options_.connect_timeout_ms);
  if (!fd.ok()) return fd.status();
  fd_ = fd.value();
  buffer_.clear();
  return Status::Ok();
}

void Client::Disconnect() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

Status Client::SendAll(const std::string& bytes) {
  if (fd_ < 0) return Status::Internal("client is not connected");
  Status status =
      SendAllTo(fd_, bytes, DeadlineFrom(options_.io_timeout_ms));
  if (!status.ok()) Disconnect();
  return status;
}

Result<std::string> Client::ReadFrame(int64_t deadline_ms) {
  char buf[64 * 1024];
  for (;;) {
    std::string payload;
    FrameStatus fs = NextFrame(buffer_, &payload);
    if (fs == FrameStatus::kFrame) return payload;
    if (fs == FrameStatus::kBad) {
      Disconnect();
      return Status::InvalidArgument("malformed frame from server");
    }
    if (deadline_ms != 0) {
      Status ready = AwaitReady(fd_, POLLIN, deadline_ms, "read");
      if (!ready.ok()) {
        // A deadline mid-frame leaves the stream unsynchronizable.
        Disconnect();
        return ready;
      }
    }
    ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      buffer_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    Disconnect();
    if (n == 0) {
      return Status::IoError("server closed the connection mid-response");
    }
    return Errno("recv");
  }
}

Result<WireResponse> Client::Call(WireRequest request) {
  request.request_id = next_request_id_++;
  const int64_t deadline = DeadlineFrom(options_.io_timeout_ms);
  if (fd_ < 0) return Status::Internal("client is not connected");
  Status sent = SendAllTo(fd_, EncodeRequest(request), deadline);
  if (!sent.ok()) {
    Disconnect();
    return sent;
  }
  Result<std::string> payload = ReadFrame(deadline);
  if (!payload.ok()) return payload.status();
  Result<WireResponse> response = DecodeResponsePayload(payload.value());
  if (!response.ok()) {
    Disconnect();
    return response.status();
  }
  if (response.value().request_id != request.request_id) {
    Disconnect();
    return Status::Internal("response id does not match the request");
  }
  return response;
}

namespace {

/// Converts a kError response to its Status; returns OK otherwise.
Status StatusOf(const WireResponse& response) {
  if (response.type != WireResponseType::kError) return Status::Ok();
  return {response.code, response.message};
}

Status WrongType(const char* expected) {
  return Status::Internal(std::string("unexpected response type, wanted ") +
                          expected);
}

}  // namespace

Result<SessionInfo> Client::Create(const std::string& id,
                                   const std::string& dataset,
                                   const std::string& vql,
                                   SessionOptions options,
                                   UserOptions user_options,
                                   UserCostModel cost_model) {
  WireRequest req;
  req.type = WireRequestType::kCreate;
  req.session_id = id;
  req.dataset = dataset;
  req.vql = vql;
  req.options = std::move(options);
  req.user_options = user_options;
  req.cost_model = cost_model;
  Result<WireResponse> resp = Call(std::move(req));
  if (!resp.ok()) return resp.status();
  VC_RETURN_IF_ERROR(StatusOf(resp.value()));
  if (resp.value().type != WireResponseType::kSessionInfo) {
    return WrongType("INFO");
  }
  return std::move(resp).value().info;
}

Result<PendingInteraction> Client::Step(const std::string& id) {
  WireRequest req;
  req.type = WireRequestType::kStep;
  req.session_id = id;
  Result<WireResponse> resp = Call(std::move(req));
  if (!resp.ok()) return resp.status();
  VC_RETURN_IF_ERROR(StatusOf(resp.value()));
  if (resp.value().type != WireResponseType::kPending) {
    return WrongType("PENDING");
  }
  return resp.value().pending;
}

Result<WireTraceSummary> Client::Answer(const std::string& id) {
  WireRequest req;
  req.type = WireRequestType::kAnswer;
  req.session_id = id;
  Result<WireResponse> resp = Call(std::move(req));
  if (!resp.ok()) return resp.status();
  VC_RETURN_IF_ERROR(StatusOf(resp.value()));
  if (resp.value().type != WireResponseType::kTrace) return WrongType("TRACE");
  return resp.value().trace;
}

Result<SessionInfo> Client::GetStatus(const std::string& id) {
  WireRequest req;
  req.type = WireRequestType::kGetStatus;
  req.session_id = id;
  Result<WireResponse> resp = Call(std::move(req));
  if (!resp.ok()) return resp.status();
  VC_RETURN_IF_ERROR(StatusOf(resp.value()));
  if (resp.value().type != WireResponseType::kSessionInfo) {
    return WrongType("INFO");
  }
  return std::move(resp).value().info;
}

Status Client::Snapshot(const std::string& id, const std::string& path) {
  WireRequest req;
  req.type = WireRequestType::kSnapshot;
  req.session_id = id;
  req.path = path;
  Result<WireResponse> resp = Call(std::move(req));
  if (!resp.ok()) return resp.status();
  VC_RETURN_IF_ERROR(StatusOf(resp.value()));
  if (resp.value().type != WireResponseType::kAck) return WrongType("ACK");
  return Status::Ok();
}

Result<SessionInfo> Client::Restore(const std::string& id,
                                    const std::string& path) {
  WireRequest req;
  req.type = WireRequestType::kRestore;
  req.session_id = id;
  req.path = path;
  Result<WireResponse> resp = Call(std::move(req));
  if (!resp.ok()) return resp.status();
  VC_RETURN_IF_ERROR(StatusOf(resp.value()));
  if (resp.value().type != WireResponseType::kSessionInfo) {
    return WrongType("INFO");
  }
  return std::move(resp).value().info;
}

Status Client::CloseSession(const std::string& id) {
  WireRequest req;
  req.type = WireRequestType::kClose;
  req.session_id = id;
  Result<WireResponse> resp = Call(std::move(req));
  if (!resp.ok()) return resp.status();
  VC_RETURN_IF_ERROR(StatusOf(resp.value()));
  if (resp.value().type != WireResponseType::kAck) return WrongType("ACK");
  return Status::Ok();
}

Result<ServeStats> Client::Stats() {
  WireRequest req;
  req.type = WireRequestType::kStats;
  Result<WireResponse> resp = Call(std::move(req));
  if (!resp.ok()) return resp.status();
  VC_RETURN_IF_ERROR(StatusOf(resp.value()));
  if (resp.value().type != WireResponseType::kStats) return WrongType("STATS");
  return resp.value().stats;
}

Result<obs::MetricsSnapshot> Client::Metrics() {
  WireRequest req;
  req.type = WireRequestType::kMetrics;
  Result<WireResponse> resp = Call(std::move(req));
  if (!resp.ok()) return resp.status();
  VC_RETURN_IF_ERROR(StatusOf(resp.value()));
  if (resp.value().type != WireResponseType::kMetrics) {
    return WrongType("METRICS");
  }
  return obs::DecodeMetricsSnapshot(resp.value().metrics);
}

Result<std::string> Client::Traces() {
  WireRequest req;
  req.type = WireRequestType::kTraces;
  Result<WireResponse> resp = Call(std::move(req));
  if (!resp.ok()) return resp.status();
  VC_RETURN_IF_ERROR(StatusOf(resp.value()));
  if (resp.value().type != WireResponseType::kTraces) {
    return WrongType("TRACES");
  }
  return std::move(resp).value().metrics;
}

Result<std::string> Client::ExportState(const std::string& id, bool remove) {
  WireRequest req;
  req.type = WireRequestType::kExportState;
  req.session_id = id;
  req.remove = remove;
  Result<WireResponse> resp = Call(std::move(req));
  if (!resp.ok()) return resp.status();
  VC_RETURN_IF_ERROR(StatusOf(resp.value()));
  if (resp.value().type != WireResponseType::kState) return WrongType("STATE");
  return std::move(resp).value().state;
}

Result<SessionInfo> Client::ImportState(const std::string& id,
                                        const std::string& state) {
  WireRequest req;
  req.type = WireRequestType::kImportState;
  req.session_id = id;
  req.state = state;
  Result<WireResponse> resp = Call(std::move(req));
  if (!resp.ok()) return resp.status();
  VC_RETURN_IF_ERROR(StatusOf(resp.value()));
  if (resp.value().type != WireResponseType::kSessionInfo) {
    return WrongType("INFO");
  }
  return std::move(resp).value().info;
}

Status Client::SetRole(uint32_t shard_id, uint64_t epoch) {
  WireRequest req;
  req.type = WireRequestType::kSetRole;
  req.shard_id = shard_id;
  req.epoch = epoch;
  Result<WireResponse> resp = Call(std::move(req));
  if (!resp.ok()) return resp.status();
  VC_RETURN_IF_ERROR(StatusOf(resp.value()));
  if (resp.value().type != WireResponseType::kAck) return WrongType("ACK");
  return Status::Ok();
}

Result<WireResponse> Client::Forward(uint32_t shard_id, uint64_t epoch,
                                     const WireRequest& inner) {
  VC_CHECK(inner.type != WireRequestType::kForwarded,
           "forwarded requests do not nest");
  WireRequest req;
  req.type = WireRequestType::kForwarded;
  req.shard_id = shard_id;
  req.epoch = epoch;
  req.inner = EncodeRequestPayload(inner);
  return Call(std::move(req));
}

// ---- LineClient (text protocol) ----

LineClient::~LineClient() { Disconnect(); }

Status LineClient::Connect(uint16_t port) {
  VC_CHECK(fd_ < 0, "client already connected");
  Result<int> fd = ConnectLoopback(port, options_.connect_timeout_ms);
  if (!fd.ok()) return fd.status();
  fd_ = fd.value();
  buffer_.clear();
  return Status::Ok();
}

void LineClient::Disconnect() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

Result<std::string> LineClient::Exchange(const std::string& line) {
  if (fd_ < 0) return Status::Internal("client is not connected");
  const int64_t deadline = DeadlineFrom(options_.io_timeout_ms);
  Status sent = SendAllTo(fd_, line + "\n", deadline);
  if (!sent.ok()) {
    Disconnect();
    return sent;
  }
  char buf[16 * 1024];
  for (;;) {
    size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string out = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (!out.empty() && out.back() == '\r') out.pop_back();
      return out;
    }
    if (deadline != 0) {
      Status ready = AwaitReady(fd_, POLLIN, deadline, "read");
      if (!ready.ok()) {
        Disconnect();
        return ready;
      }
    }
    ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      buffer_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    Disconnect();
    if (n == 0) return Status::IoError("server closed the connection");
    return Errno("recv");
  }
}

}  // namespace visclean
