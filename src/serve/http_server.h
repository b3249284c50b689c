// HTTP/1.1 server facade for the inference front end. Two interchangeable
// front ends sit behind one Options switch:
//
//   - kEpoll (default): a single event-loop thread multiplexes every
//     connection over epoll with nonblocking sockets -- per-connection
//     state machines, buffered writes with EPOLLOUT backpressure, a
//     deadline heap for idle timeouts, and pipelined keep-alive. Handlers
//     run on a small dispatch worker pool, so concurrent *connections* are
//     bounded by memory, not by thread count. (serve/epoll_server.h)
//
//   - kThreaded: the original blocking accept thread + connection-thread
//     pool. One thread per live connection, so concurrency is capped at
//     num_threads -- kept as the byte-exactness parity oracle for the
//     event loop and for platforms without epoll semantics.
//
// Both front ends parse with the same incremental HttpRequestParser and
// render with the same RenderHttpResponse, so responses are byte-identical
// by construction. Supports exactly what the serving endpoints need --
// GET/POST, Content-Length bodies, keep-alive, pipelining -- and nothing
// else (no TLS, no chunked encoding).

#ifndef SMPTREE_SERVE_HTTP_SERVER_H_
#define SMPTREE_SERVE_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/http_types.h"
#include "serve/work_queue.h"
#include "util/mutex.h"
#include "util/status.h"

namespace smptree {

class EpollServer;

/// Monitoring snapshot of the connection path for /statz, filled by
/// whichever front end is running.
struct FrontEndStats {
  const char* front_end = "none";
  uint64_t accepted = 0;            ///< connections accepted since Start
  uint64_t open_connections = 0;    ///< currently live connections
  uint64_t requests = 0;            ///< requests dispatched
  uint64_t pipelined_requests = 0;  ///< served from buffered bytes, no recv
  uint64_t backpressure_stalls = 0;  ///< writes that had to arm EPOLLOUT
  uint64_t idle_timeouts = 0;        ///< connections reaped by deadline
  uint64_t protocol_errors = 0;      ///< 4xx answered by the parser itself
  /// Epoll idle-deadline heap entries pending: at most one live entry per
  /// open connection plus not-yet-due entries of closed ones.
  uint64_t deadline_entries = 0;
};

class HttpServer {
 public:
  enum class FrontEnd {
    kEpoll,     ///< event loop + dispatch pool (the production path)
    kThreaded,  ///< accept thread + blocking connection threads (oracle)
  };

  struct Options {
    std::string bind_address = "127.0.0.1";
    uint16_t port = 0;  ///< 0 picks an ephemeral port (see port())
    /// kThreaded: connection handler threads (= max live connections).
    /// kEpoll: dispatch worker threads running the handlers.
    int num_threads = 4;
    int backlog = 128;
    size_t max_header_bytes = 64u * 1024;  ///< over it answers 431
    size_t max_body_bytes = 32u << 20;     ///< over it answers 413
    /// Per-read idle timeout (threaded: SO_RCVTIMEO; epoll: deadline heap).
    /// Also bounds Stop() latency.
    int io_timeout_seconds = 30;
    FrontEnd front_end = FrontEnd::kEpoll;
  };

  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  explicit HttpServer(Options options);
  ~HttpServer();  ///< Stop() if still running

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers a handler for an exact (method, path) pair. Must be called
  /// before Start (the route table is immutable while serving).
  void Route(const std::string& method, const std::string& path,
             Handler handler);

  /// Binds, listens, and spawns the selected front end's threads.
  Status Start();

  /// The bound port (after Start; resolves port 0 to the real port).
  uint16_t port() const;

  /// Stops accepting, closes the listener, and joins all threads.
  /// In-flight requests finish; idle keep-alive connections are dropped.
  void Stop();

  bool running() const;

  /// Routes the request (shared by both front ends). Answers 404 for
  /// unknown paths and 405 with the required Allow header when the path
  /// exists under other methods.
  HttpResponse Dispatch(const HttpRequest& request) const;

  FrontEndStats Stats() const;

 private:
  void AcceptLoop();
  void ConnectionLoop();
  /// Serves one connection until close/error/shutdown (keep-alive loop).
  void ServeConnection(int fd);

  /// Active-connection registry so Stop() can shutdown() fds that handler
  /// threads are blocked reading (idle keep-alive connections would
  /// otherwise pin Stop for up to io_timeout_seconds).
  void RegisterConnection(int fd) EXCLUDES(conns_mu_);
  void UnregisterConnection(int fd) EXCLUDES(conns_mu_);

  const Options options_;
  // lint: unguarded(route table is frozen before Start; immutable serving)
  std::map<std::pair<std::string, std::string>, Handler> routes_;
  // lint: unguarded(constructed in Start before serving, reset in Stop)
  std::unique_ptr<EpollServer> epoll_;
  WorkQueue<int> pending_connections_;
  // lint: unguarded(written in Start/Stop only; never touched by workers)
  std::vector<std::thread> threads_;  ///< [0] = accept, rest = connections
  std::atomic<bool> running_{false};
  std::atomic<int> listen_fd_{-1};
  // lint: unguarded(written once in Start before the accept thread spawns)
  uint16_t bound_port_ = 0;
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> pipelined_requests_{0};
  std::atomic<uint64_t> idle_timeouts_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  mutable Mutex conns_mu_;
  std::set<int> active_fds_ GUARDED_BY(conns_mu_);
};

/// Creates, binds, and listens a TCP socket for `options` (shared by both
/// front ends). On success stores the fd and the resolved port.
Status BindHttpListener(const HttpServer::Options& options, bool nonblocking,
                        int* fd, uint16_t* port);

}  // namespace smptree

#endif  // SMPTREE_SERVE_HTTP_SERVER_H_
