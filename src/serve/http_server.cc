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
#include <utility>

#include "util/string_util.h"

namespace smptree {
namespace {

// epoll user-data ids for the two non-connection fds; connection ids are
// allocated from 1 upward so they can never collide.
constexpr uint64_t kListenerId = 0;
constexpr uint64_t kWakeId = ~uint64_t{0};

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

}  // namespace

HttpServer::HttpServer(Options options)
    : options_(std::move(options)),
      // Bounds loop->worker handoff; a full queue blocks the loop thread,
      // which is the intended backpressure once every worker is busy and
      // this many requests are already waiting.
      dispatch_queue_(static_cast<size_t>(
          std::max(64, std::max(1, options_.num_threads) * 4))) {}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Route(const std::string& method, const std::string& path,
                       Handler handler) {
  routes_[{method, path}] = std::move(handler);
}

Status HttpServer::Start() {
  SMPTREE_RETURN_IF_ERROR(
      BindHttpListener(options_, &listen_fd_, &bound_port_));
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    const Status s = Status::IOError(
        StringPrintf("epoll_create1: %s", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    const Status s =
        Status::IOError(StringPrintf("eventfd: %s", std::strerror(errno)));
    ::close(listen_fd_);
    ::close(epoll_fd_);
    listen_fd_ = epoll_fd_ = -1;
    return s;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  running_.store(true, std::memory_order_release);
  threads_.emplace_back([this] { LoopThread(); });
  for (int i = 0; i < std::max(1, options_.num_threads); ++i) {
    threads_.emplace_back([this] { WorkerThread(); });
  }
  return Status::OK();
}

void HttpServer::Stop() {
  if (running_.exchange(false, std::memory_order_acq_rel)) {
    WakeLoop();
  }
  // Join the loop thread first: it drains in-flight dispatches, flushes
  // their responses, closes every connection, and closes the dispatch
  // queue, which is what lets the workers exit.
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  listen_fd_ = wake_fd_ = epoll_fd_ = -1;
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

void HttpServer::WakeLoop() {
  const uint64_t one = 1;
  // Best effort: a full eventfd counter already guarantees a pending wake.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void HttpServer::WorkerThread() {
  for (;;) {
    std::optional<DispatchJob> job = dispatch_queue_.Pop();
    if (!job.has_value()) return;
    const HttpResponse response = Dispatch(job->request);
    std::string bytes = RenderHttpResponse(response, job->keep_alive);
    {
      MutexLock lock(completions_mu_);
      completions_.push_back(
          {job->conn_id, !job->keep_alive, std::move(bytes)});
    }
    WakeLoop();
  }
}

void HttpServer::LoopThread() {
  std::vector<epoll_event> events(128);
  bool draining = false;
  int64_t drain_deadline_ms = 0;
  for (;;) {
    if (!draining && !running_.load(std::memory_order_acquire)) {
      // Stop() was called: quit accepting, drop idle keep-alive
      // connections, and let already-dispatched requests finish and flush
      // (bounded below). The queue close is what terminates the workers.
      draining = true;
      drain_deadline_ms =
          NowMillis() + int64_t{options_.io_timeout_seconds} * 1000;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      dispatch_queue_.Close();
      std::vector<Connection*> idle;
      for (auto& [id, conn] : connections_) {
        if (conn->state == Connection::State::kReading) {
          idle.push_back(conn.get());
        }
      }
      for (Connection* conn : idle) CloseConnection(conn);
    }
    if (draining &&
        (!HasPendingWork() || NowMillis() >= drain_deadline_ms)) {
      break;
    }

    const int timeout = draining ? 10 : NextWaitMillis(NowMillis());
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd itself failed; nothing sane left to do
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[static_cast<size_t>(i)].data.u64;
      const uint32_t mask = events[static_cast<size_t>(i)].events;
      if (id == kListenerId) {
        if (!draining) HandleAccept();
        continue;
      }
      if (id == kWakeId) {
        uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        DrainCompletions();
        continue;
      }
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
      }
      // Re-find: the read path may have closed or re-stated the connection.
      auto again = connections_.find(id);
      if (again == connections_.end()) continue;
      conn = again->second.get();
      if ((mask & EPOLLOUT) != 0 &&
          conn->state == Connection::State::kWriting) {
        TryWrite(conn);
      }
    }
    DrainCompletions();
    ExpireDeadlines(NowMillis());
  }

  // Loop exit: anything still open is torn down here, on the owning
  // thread. Workers may still post completions afterwards; they are
  // dropped by the next (nonexistent) drain, which is fine -- their
  // connections are gone.
  while (!connections_.empty()) {
    CloseConnection(connections_.begin()->second.get());
  }
}

void HttpServer::HandleAccept() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or a transient error; epoll re-arms us
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    open_connections_.fetch_add(1, std::memory_order_relaxed);

    auto conn = std::make_unique<Connection>(HttpRequestParser::Limits{
        options_.max_header_bytes, options_.max_body_bytes});
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
      continue;
    }
    SetDeadline(raw, NowMillis() +
                         int64_t{options_.io_timeout_seconds} * 1000);
  }
}

void HttpServer::HandleReadable(Connection* conn) {
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Partial request: stay in kReading with a refreshed idle
        // deadline.
        SetDeadline(conn, NowMillis() +
                              int64_t{options_.io_timeout_seconds} * 1000);
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
      // One request in flight per connection: stop reading until the
      // response is written (any pipelined followers stay buffered).
      OnParserProgress(conn, /*pipelined=*/false);
      return;
    }
  }
}

void HttpServer::OnParserProgress(Connection* conn, bool pipelined) {
  switch (conn->parser.state()) {
    case HttpRequestParser::State::kComplete:
      StartDispatch(conn, pipelined);
      return;
    case HttpRequestParser::State::kError:
      SendError(conn);
      return;
    default:
      // Still mid-request: wait for more bytes.
      UpdateInterest(conn, /*want_read=*/true, /*want_write=*/false);
      SetDeadline(conn, NowMillis() +
                            int64_t{options_.io_timeout_seconds} * 1000);
      return;
  }
}

void HttpServer::StartDispatch(Connection* conn, bool pipelined) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (pipelined) pipelined_requests_.fetch_add(1, std::memory_order_relaxed);

  DispatchJob job;
  job.conn_id = conn->id;
  job.keep_alive = conn->parser.keep_alive();
  job.request = std::move(conn->parser.request());
  conn->parser.Reset();

  conn->state = Connection::State::kDispatching;
  UpdateInterest(conn, /*want_read=*/false, /*want_write=*/false);
  SetDeadline(conn, 0);  // handlers own the latency while dispatching

  // Blocking push is deliberate: with every worker busy and the queue
  // full, the loop thread stalling is the closed-loop backpressure that
  // eventually fills the kernel accept backlog.
  if (!dispatch_queue_.Push(std::move(job))) {
    CloseConnection(conn);  // shutting down; the request is dropped
    return;
  }
  ++outstanding_dispatches_;
}

void HttpServer::SendError(Connection* conn) {
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  const HttpResponse response{conn->parser.error_status(), "text/plain",
                              conn->parser.error_message(), {}};
  EnqueueResponse(conn, RenderHttpResponse(response, false),
                  /*close_after=*/true);
}

void HttpServer::EnqueueResponse(Connection* conn, std::string bytes,
                                  bool close_after) {
  conn->out = std::move(bytes);
  conn->out_offset = 0;
  conn->close_after_write = close_after;
  conn->state = Connection::State::kWriting;
  // Bound how long an unread response may sit in the buffer: a reader
  // stalled past the io timeout is reaped like an idle connection.
  SetDeadline(conn, NowMillis() +
                        int64_t{options_.io_timeout_seconds} * 1000);
  TryWrite(conn);
}

void HttpServer::TryWrite(Connection* conn) {
  while (conn->out_offset < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_offset,
               conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Write backpressure: the socket buffer is full because the
        // client is not reading. Arm EPOLLOUT until it drains.
        if (!conn->want_write) {
          backpressure_stalls_.fetch_add(1, std::memory_order_relaxed);
        }
        UpdateInterest(conn, /*want_read=*/false, /*want_write=*/true);
        return;
      }
      CloseConnection(conn);
      return;
    }
    conn->out_offset += static_cast<size_t>(n);
  }

  // Response fully written.
  conn->out.clear();
  conn->out_offset = 0;
  if (conn->close_after_write ||
      !running_.load(std::memory_order_acquire)) {
    CloseConnection(conn);
    return;
  }
  conn->state = Connection::State::kReading;
  // Pipelining: a follower request may already be buffered in the parser;
  // serve it without touching the socket.
  conn->parser.Advance();
  if (conn->parser.state() != HttpRequestParser::State::kReadingHeaders ||
      conn->parser.buffered_bytes() > 0) {
    OnParserProgress(conn, /*pipelined=*/true);
    return;
  }
  UpdateInterest(conn, /*want_read=*/true, /*want_write=*/false);
  SetDeadline(conn, NowMillis() +
                        int64_t{options_.io_timeout_seconds} * 1000);
}

void HttpServer::DrainCompletions() {
  std::vector<Completion> batch;
  {
    MutexLock lock(completions_mu_);
    batch.swap(completions_);
  }
  for (Completion& done : batch) {
    --outstanding_dispatches_;
    auto it = connections_.find(done.conn_id);
    if (it == connections_.end()) continue;  // connection died meanwhile
    EnqueueResponse(it->second.get(), std::move(done.bytes),
                    done.close_after);
  }
}

void HttpServer::ExpireDeadlines(int64_t now_ms) {
  while (!deadlines_.empty() && deadlines_.front().at_ms <= now_ms) {
    const Deadline expired = deadlines_.front();
    std::pop_heap(deadlines_.begin(), deadlines_.end(),
                  std::greater<Deadline>());
    deadlines_.pop_back();
    deadline_entries_.store(deadlines_.size(), std::memory_order_relaxed);
    auto it = connections_.find(expired.conn_id);
    if (it == connections_.end()) continue;         // already closed
    Connection* conn = it->second.get();
    if (conn->queued_ms != expired.at_ms) continue;  // superseded entry
    conn->queued_ms = 0;
    if (conn->deadline_ms == 0) continue;  // dispatching: no deadline now
    if (conn->deadline_ms > now_ms) {
      // The connection progressed since this entry was queued.
      SetDeadline(conn, conn->deadline_ms);
      continue;
    }
    CloseConnection(conn);
    // Counted after the close, with release: a Stats() reader that sees
    // the timeout (acquire) also sees the connection gone.
    idle_timeouts_.fetch_add(1, std::memory_order_release);
  }
}

void HttpServer::SetDeadline(Connection* conn, int64_t at_ms) {
  conn->deadline_ms = at_ms;
  // 0 lazily invalidates the queued entry; a later deadline waits for the
  // queued entry to come due (ExpireDeadlines re-queues it then).
  if (at_ms == 0 || (conn->queued_ms != 0 && conn->queued_ms <= at_ms)) {
    return;
  }
  conn->queued_ms = at_ms;
  deadlines_.push_back({at_ms, conn->id});
  std::push_heap(deadlines_.begin(), deadlines_.end(),
                 std::greater<Deadline>());
  deadline_entries_.store(deadlines_.size(), std::memory_order_relaxed);
}

void HttpServer::UpdateInterest(Connection* conn, bool want_read,
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

void HttpServer::CloseConnection(Connection* conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  connections_.erase(conn->id);
  open_connections_.fetch_sub(1, std::memory_order_relaxed);
}

int HttpServer::NextWaitMillis(int64_t now_ms) const {
  if (deadlines_.empty()) return -1;  // the eventfd wakes us for everything
  const int64_t until = deadlines_.front().at_ms - now_ms;
  if (until <= 0) return 0;
  return static_cast<int>(std::min<int64_t>(until, 1000));
}

bool HttpServer::HasPendingWork() const {
  if (outstanding_dispatches_ > 0) return true;
  for (const auto& [id, conn] : connections_) {
    if (conn->state == Connection::State::kWriting &&
        conn->out_offset < conn->out.size()) {
      return true;
    }
  }
  return false;
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
