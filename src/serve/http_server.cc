#include "serve/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/http_parser.h"
#include "util/string_util.h"

namespace smptree {
namespace {

// epoll user-data ids for the two non-connection fds; connection ids are
// allocated from 1 upward so they can never collide.
constexpr uint64_t kListenerId = 0;
constexpr uint64_t kStopId = ~uint64_t{0};

int64_t NowMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Creates, binds, and listens a nonblocking TCP socket for `options`. On
/// success stores the fd and the resolved port.
Status BindHttpListener(const HttpServer::Options& options, int* out_fd,
                        uint16_t* out_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    return Status::IOError(StringPrintf("socket: %s", std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("bad bind address " + options.bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s = Status::IOError(
        StringPrintf("bind %s:%d: %s", options.bind_address.c_str(),
                     options.port, std::strerror(errno)));
    ::close(fd);
    return s;
  }
  if (::listen(fd, options.backlog) != 0) {
    const Status s =
        Status::IOError(StringPrintf("listen: %s", std::strerror(errno)));
    ::close(fd);
    return s;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const Status s =
        Status::IOError(StringPrintf("getsockname: %s", std::strerror(errno)));
    ::close(fd);
    return s;
  }
  *out_fd = fd;
  *out_port = ntohs(bound.sin_port);
  return Status::OK();
}

struct Connection {
  enum class State { kReading, kWriting };

  explicit Connection(HttpRequestParser::Limits limits) : parser(limits) {}

  int fd = -1;
  uint64_t id = 0;
  State state = State::kReading;
  HttpRequestParser parser;
  std::string out;        ///< rendered bytes not yet fully sent
  size_t out_offset = 0;  ///< already-sent prefix of `out`
  bool close_after_write = false;
  bool want_write = false;   ///< EPOLLOUT currently armed
  bool want_read = false;    ///< EPOLLIN currently armed
  int64_t deadline_ms = 0;   ///< absolute steady-clock ms
  int64_t queued_ms = 0;     ///< at_ms of its live heap entry; 0 = none
};

/// Heap entry for the lazy deadline heap (smallest deadline on top).
struct Deadline {
  int64_t at_ms = 0;
  uint64_t conn_id = 0;
  bool operator>(const Deadline& other) const { return at_ms > other.at_ms; }
};

}  // namespace

class HttpServer::EventLoop {
 public:
  explicit EventLoop(HttpServer* server) : server_(server) {}
  ~EventLoop() {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  /// Creates the epoll set and registers the shared listener and stop fd.
  Status Open();

  /// The loop body; returns once Stop() was seen and every connection of
  /// this loop is closed.
  void Run();

 private:
  void HandleAccept();
  void HandleReadable(Connection* conn);
  /// Answers the requests complete in `conn`'s parser, one after
  /// another, until it needs more bytes, waits for EPOLLOUT, or closes.
  void Serve(Connection* conn, bool pipelined);
  /// Sends the rest of `conn->out`. True once all of it is sent and the
  /// connection stays open (back in kReading); false when the connection
  /// closed or waits for EPOLLOUT.
  bool TryWrite(Connection* conn);
  void ExpireDeadlines(int64_t now_ms);
  void SetDeadline(Connection* conn, int64_t at_ms);
  int64_t IoDeadline() const;
  void UpdateInterest(Connection* conn, bool want_read, bool want_write);
  void CloseConnection(Connection* conn);
  int NextWaitMillis(int64_t now_ms) const;

  HttpServer* const server_;
  int epoll_fd_ = -1;
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_;
  uint64_t next_conn_id_ = 1;
  std::vector<Deadline> deadlines_;
};

HttpServer::HttpServer(Options options) : options_(std::move(options)) {}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Route(const std::string& method, const std::string& path,
                       Handler handler) {
  routes_[{method, path}] = std::move(handler);
}

Status HttpServer::Start() {
  SMPTREE_RETURN_IF_ERROR(
      BindHttpListener(options_, &listen_fd_, &bound_port_));
  Status status = Status::OK();
  stop_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (stop_fd_ < 0) {
    status = Status::IOError(StringPrintf("eventfd: %s", std::strerror(errno)));
  }
  for (int i = 0; status.ok() && i < std::max(1, options_.num_threads); ++i) {
    loops_.push_back(std::make_unique<EventLoop>(this));
    status = loops_.back()->Open();
  }
  if (!status.ok()) {
    loops_.clear();
    ::close(listen_fd_);
    if (stop_fd_ >= 0) ::close(stop_fd_);
    listen_fd_ = stop_fd_ = -1;
    return status;
  }
  running_.store(true, std::memory_order_release);
  for (const std::unique_ptr<EventLoop>& loop : loops_) {
    threads_.emplace_back([raw = loop.get()] { raw->Run(); });
  }
  return Status::OK();
}

void HttpServer::Stop() {
  if (running_.exchange(false, std::memory_order_acq_rel)) {
    // Never drained: the fd stays readable and wakes every loop.
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(stop_fd_, &one, sizeof(one));
  }
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  loops_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (stop_fd_ >= 0) ::close(stop_fd_);
  listen_fd_ = stop_fd_ = -1;
}

FrontEndStats HttpServer::Stats() const {
  FrontEndStats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.open_connections = open_connections_.load(std::memory_order_relaxed);
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.pipelined_requests =
      pipelined_requests_.load(std::memory_order_relaxed);
  stats.backpressure_stalls =
      backpressure_stalls_.load(std::memory_order_relaxed);
  stats.idle_timeouts = idle_timeouts_.load(std::memory_order_acquire);
  stats.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  stats.deadline_entries =
      deadline_entries_.load(std::memory_order_relaxed);
  return stats;
}

Status HttpServer::EventLoop::Open() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::IOError(
        StringPrintf("epoll_create1: %s", std::strerror(errno)));
  }
  epoll_event ev{};
  // Exclusive: a new connection wakes one loop waiting in epoll_wait, not
  // all of them.
  ev.events = EPOLLIN | EPOLLEXCLUSIVE;
  ev.data.u64 = kListenerId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, server_->listen_fd_, &ev) != 0) {
    return Status::IOError(
        StringPrintf("epoll_ctl listener: %s", std::strerror(errno)));
  }
  ev.events = EPOLLIN;
  ev.data.u64 = kStopId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, server_->stop_fd_, &ev) != 0) {
    return Status::IOError(
        StringPrintf("epoll_ctl stop fd: %s", std::strerror(errno)));
  }
  return Status::OK();
}

void HttpServer::EventLoop::Run() {
  std::vector<epoll_event> events(128);
  bool stopping = false;
  while (!stopping || !connections_.empty()) {
    if (!stopping && !server_->running()) {
      // Stop() was called: quit accepting and stop watching the stop fd
      // (it stays readable), drop idle connections, and keep looping only
      // to flush the responses already rendered. Each of those holds a
      // write deadline, so the drain is bounded.
      stopping = true;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, server_->listen_fd_, nullptr);
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, server_->stop_fd_, nullptr);
      std::vector<Connection*> idle;
      for (auto& [id, conn] : connections_) {
        if (conn->state == Connection::State::kReading) {
          idle.push_back(conn.get());
        }
      }
      for (Connection* conn : idle) CloseConnection(conn);
      continue;
    }

    const int n =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()),
                     NextWaitMillis(NowMillis()));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd itself failed; nothing sane left to do
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[static_cast<size_t>(i)].data.u64;
      const uint32_t mask = events[static_cast<size_t>(i)].events;
      if (id == kListenerId) {
        HandleAccept();
        continue;
      }
      if (id == kStopId) continue;  // seen through running() above
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;  // closed earlier this batch
      Connection* conn = it->second.get();
      if ((mask & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConnection(conn);
        continue;
      }
      if ((mask & EPOLLIN) != 0 &&
          conn->state == Connection::State::kReading) {
        HandleReadable(conn);
      } else if ((mask & EPOLLOUT) != 0 &&
                 conn->state == Connection::State::kWriting &&
                 TryWrite(conn)) {
        conn->parser.Advance();
        Serve(conn, /*pipelined=*/true);
      }
    }
    ExpireDeadlines(NowMillis());
  }

  // Anything still open is torn down here, on the owning thread.
  while (!connections_.empty()) {
    CloseConnection(connections_.begin()->second.get());
  }
}

void HttpServer::EventLoop::HandleAccept() {
  // One connection per readiness event: the listener stays readable while
  // more wait, and the next one goes to whichever loop is idle first.
  const int fd = ::accept4(server_->listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd < 0) return;  // EAGAIN: another loop took it; or a transient error
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  server_->accepted_.fetch_add(1, std::memory_order_relaxed);
  server_->open_connections_.fetch_add(1, std::memory_order_relaxed);

  auto conn = std::make_unique<Connection>(HttpRequestParser::Limits{
      server_->options_.max_header_bytes, server_->options_.max_body_bytes});
  conn->fd = fd;
  conn->id = next_conn_id_++;
  conn->want_read = true;
  Connection* raw = conn.get();
  connections_[raw->id] = std::move(conn);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = raw->id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    CloseConnection(raw);
    return;
  }
  SetDeadline(raw, IoDeadline());
}

void HttpServer::EventLoop::HandleReadable(Connection* conn) {
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Partial request: stay in kReading with a refreshed idle
        // deadline.
        SetDeadline(conn, IoDeadline());
        return;
      }
      CloseConnection(conn);
      return;
    }
    if (n == 0) {
      CloseConnection(conn);
      return;
    }
    const HttpRequestParser::State state =
        conn->parser.Feed(chunk, static_cast<size_t>(n));
    if (state == HttpRequestParser::State::kComplete ||
        state == HttpRequestParser::State::kError) {
      // One request at a time per connection: any pipelined followers
      // stay buffered in the parser until this response is sent.
      Serve(conn, /*pipelined=*/false);
      return;
    }
  }
}

void HttpServer::EventLoop::Serve(Connection* conn, bool pipelined) {
  HttpRequestParser& parser = conn->parser;
  for (;;) {
    if (parser.state() == HttpRequestParser::State::kComplete) {
      server_->requests_.fetch_add(1, std::memory_order_relaxed);
      if (pipelined) {
        server_->pipelined_requests_.fetch_add(1, std::memory_order_relaxed);
      }
      const bool keep_alive = parser.keep_alive();
      conn->out = RenderHttpResponse(server_->Dispatch(parser.request()),
                                     keep_alive);
      conn->close_after_write = !keep_alive;
      parser.Reset();
    } else if (parser.state() == HttpRequestParser::State::kError) {
      server_->protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      const HttpResponse response{parser.error_status(), "text/plain",
                                  parser.error_message(), {}};
      conn->out = RenderHttpResponse(response, false);
      conn->close_after_write = true;
    } else {
      // Mid-request (or idle): wait for more bytes.
      UpdateInterest(conn, /*want_read=*/true, /*want_write=*/false);
      SetDeadline(conn, IoDeadline());
      return;
    }
    if (!TryWrite(conn)) return;  // closed, or waiting for EPOLLOUT
    // Pipelining: a follower request may already be buffered in the
    // parser; serve it without touching the socket.
    parser.Advance();
    pipelined = true;
  }
}

bool HttpServer::EventLoop::TryWrite(Connection* conn) {
  while (conn->out_offset < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_offset,
               conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (conn->state != Connection::State::kWriting) {
          // Write backpressure: the socket buffer is full because the
          // client is not reading. Arm EPOLLOUT until it drains, and
          // bound how long the unread rest may sit in the buffer: a
          // reader stalled past the io timeout is reaped like an idle
          // connection.
          server_->backpressure_stalls_.fetch_add(1,
                                                  std::memory_order_relaxed);
          conn->state = Connection::State::kWriting;
          UpdateInterest(conn, /*want_read=*/false, /*want_write=*/true);
          SetDeadline(conn, IoDeadline());
        }
        return false;
      }
      CloseConnection(conn);
      return false;
    }
    conn->out_offset += static_cast<size_t>(n);
  }

  // Response fully written.
  conn->out.clear();
  conn->out_offset = 0;
  if (conn->close_after_write || !server_->running()) {
    CloseConnection(conn);
    return false;
  }
  conn->state = Connection::State::kReading;
  return true;
}

void HttpServer::EventLoop::ExpireDeadlines(int64_t now_ms) {
  while (!deadlines_.empty() && deadlines_.front().at_ms <= now_ms) {
    const Deadline expired = deadlines_.front();
    std::pop_heap(deadlines_.begin(), deadlines_.end(),
                  std::greater<Deadline>());
    deadlines_.pop_back();
    server_->deadline_entries_.fetch_sub(1, std::memory_order_relaxed);
    auto it = connections_.find(expired.conn_id);
    if (it == connections_.end()) continue;         // already closed
    Connection* conn = it->second.get();
    if (conn->queued_ms != expired.at_ms) continue;  // superseded entry
    conn->queued_ms = 0;
    if (conn->deadline_ms > now_ms) {
      // The connection progressed since this entry was queued.
      SetDeadline(conn, conn->deadline_ms);
      continue;
    }
    CloseConnection(conn);
    // Counted after the close, with release: a Stats() reader that sees
    // the timeout (acquire) also sees the connection gone.
    server_->idle_timeouts_.fetch_add(1, std::memory_order_release);
  }
}

void HttpServer::EventLoop::SetDeadline(Connection* conn, int64_t at_ms) {
  conn->deadline_ms = at_ms;
  // A later deadline waits for the queued entry to come due
  // (ExpireDeadlines re-queues it then).
  if (conn->queued_ms != 0 && conn->queued_ms <= at_ms) return;
  conn->queued_ms = at_ms;
  deadlines_.push_back({at_ms, conn->id});
  std::push_heap(deadlines_.begin(), deadlines_.end(),
                 std::greater<Deadline>());
  server_->deadline_entries_.fetch_add(1, std::memory_order_relaxed);
}

int64_t HttpServer::EventLoop::IoDeadline() const {
  return NowMillis() + int64_t{server_->options_.io_timeout_seconds} * 1000;
}

void HttpServer::EventLoop::UpdateInterest(Connection* conn, bool want_read,
                                           bool want_write) {
  if (conn->want_read == want_read && conn->want_write == want_write) return;
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = conn->id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
    conn->want_read = want_read;
    conn->want_write = want_write;
  }
}

void HttpServer::EventLoop::CloseConnection(Connection* conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  connections_.erase(conn->id);
  server_->open_connections_.fetch_sub(1, std::memory_order_relaxed);
}

int HttpServer::EventLoop::NextWaitMillis(int64_t now_ms) const {
  if (deadlines_.empty()) return -1;  // an fd event wakes us for the rest
  const int64_t until = deadlines_.front().at_ms - now_ms;
  if (until <= 0) return 0;
  return static_cast<int>(std::min<int64_t>(until, 1000));
}

HttpResponse HttpServer::Dispatch(const HttpRequest& request) const {
  const auto it = routes_.find({request.method, request.path});
  if (it != routes_.end()) return it->second(request);
  // Distinguish wrong-method from unknown path for usable client errors;
  // a 405 must name the methods that would work (RFC 7231 6.5.5).
  std::string allow;
  for (const auto& [key, handler] : routes_) {
    if (key.second == request.path) {
      if (!allow.empty()) allow += ", ";
      allow += key.first;
    }
  }
  if (!allow.empty()) {
    HttpResponse response{405, "text/plain", "method not allowed\n", {}};
    response.extra_headers.emplace_back("Allow", allow);
    return response;
  }
  return {404, "text/plain", "no such endpoint\n", {}};
}

}  // namespace smptree
