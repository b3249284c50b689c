// HTTP/1.1 server for the inference front end, run to completion:
// `num_threads` event loops each own an epoll set, a connection table and
// a deadline heap, and each runs the route handler inline on the thread
// that read the request -- parse, handler, render and send, with no
// hand-off to another thread. Every loop waits on the one nonblocking
// listener (EPOLLEXCLUSIVE) and accepts one connection per readiness
// event, so a burst of connects spreads across the loops idle in
// epoll_wait; a connection then lives on the loop that accepted it.
// Concurrent *connections* are therefore bounded by memory, not by thread
// count. Supports exactly what the serving endpoints need -- GET/POST,
// Content-Length bodies, keep-alive, pipelining -- and nothing else (no
// TLS, no chunked encoding).
//
// Per-connection state machine (driven entirely by the owning loop):
//
//   kReading --complete request: handler runs inline--> send response
//      ^  \                                              |         |
//      |   `--parse error--> error response, then close  |      EAGAIN
//      |                                                 |         v
//      +------------------ response fully sent <---------+---- kWriting
//
//   - kReading: EPOLLIN armed; bytes feed the incremental parser. A
//     complete request runs its handler right there; the response is sent
//     before the loop reads another request from that connection, which
//     keeps responses ordered.
//   - kWriting: the socket buffer filled mid-response, so EPOLLOUT is armed
//     (write backpressure) and the rest is sent as the client drains it; a
//     slow reader therefore costs one buffered response, never a thread.
//   - After a full write: keep-alive connections first serve the *next*
//     request from bytes already buffered (pipelining -- requests that
//     arrived back-to-back in one segment are served without another
//     recv), otherwise EPOLLIN is re-armed with a fresh idle deadline.
//
// A handler holds only its own loop while it runs: that loop's other
// connections wait for it, the other loops do not.
//
// Idle timeouts use a lazy min-heap of (deadline, connection id) per loop
// holding at most one live entry per connection: re-arming to a later
// deadline pushes nothing, and when the queued entry comes due it is
// re-queued at the connection's current deadline (or reaps it, if that has
// passed). Entries of closed connections are skipped, so there is no
// cancellation bookkeeping, and the heap does not grow with every request
// served on a keep-alive connection.
//
// Stop(): one eventfd, written once and never drained, wakes every loop.
// Each loop stops accepting, drops its idle connections, lets a running
// handler finish, flushes the responses already rendered (each bounded by
// io_timeout_seconds) and closes each connection once its response is out;
// pipelined requests not yet started are dropped.

#ifndef SMPTREE_SERVE_HTTP_SERVER_H_
#define SMPTREE_SERVE_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/http_types.h"
#include "util/status.h"

namespace smptree {

/// Monitoring snapshot of the connection path for /statz.
struct FrontEndStats {
  uint64_t accepted = 0;            ///< connections accepted since Start
  uint64_t open_connections = 0;    ///< currently live connections
  uint64_t requests = 0;            ///< requests handled
  uint64_t pipelined_requests = 0;  ///< served from buffered bytes, no recv
  uint64_t backpressure_stalls = 0;  ///< writes that had to arm EPOLLOUT
  uint64_t idle_timeouts = 0;        ///< connections reaped by deadline
  uint64_t protocol_errors = 0;      ///< 4xx answered by the parser itself
  /// Idle-deadline heap entries pending: at most one live entry per open
  /// connection plus not-yet-due entries of closed ones.
  uint64_t deadline_entries = 0;
};

class HttpServer {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    uint16_t port = 0;  ///< 0 picks an ephemeral port (see port())
    int num_threads = 4;  ///< event loops; each runs its handlers inline
    int backlog = 128;
    size_t max_header_bytes = 64u * 1024;  ///< over it answers 431
    size_t max_body_bytes = 32u << 20;     ///< over it answers 413
    /// Idle timeout of a connection waiting to read or to write. Also
    /// bounds Stop() latency.
    int io_timeout_seconds = 30;
  };

  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  explicit HttpServer(Options options);
  ~HttpServer();  ///< Stop() if still running

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers a handler for an exact (method, path) pair. Must be called
  /// before Start (the route table is immutable while serving). Handlers
  /// run on the event loops and must be safe to call concurrently.
  void Route(const std::string& method, const std::string& path,
             Handler handler);

  /// Binds, listens, and spawns the event loops. A server starts at most
  /// once.
  Status Start();

  /// The bound port (after Start; resolves port 0 to the real port).
  uint16_t port() const { return bound_port_; }

  /// Stops accepting, closes the listener, and joins the loops. Handlers
  /// already running finish and their responses are flushed; idle
  /// keep-alive connections are dropped.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  FrontEndStats Stats() const;

 private:
  class EventLoop;  // one loop thread's epoll set, connections and deadlines

  /// Routes the request. Answers 404 for unknown paths and 405 with the
  /// required Allow header when the path exists under other methods.
  HttpResponse Dispatch(const HttpRequest& request) const;

  const Options options_;
  // Frozen before Start; the loops only read it.
  std::map<std::pair<std::string, std::string>, Handler> routes_;

  std::atomic<bool> running_{false};
  // The fds and the loops are set up in Start before any loop thread
  // spawns, and torn down in Stop after joining them.
  uint16_t bound_port_ = 0;
  int listen_fd_ = -1;
  int stop_fd_ = -1;  ///< eventfd written once by Stop, never drained
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::thread> threads_;  ///< threads_[i] runs loops_[i]

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> open_connections_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> pipelined_requests_{0};
  std::atomic<uint64_t> backpressure_stalls_{0};
  std::atomic<uint64_t> idle_timeouts_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> deadline_entries_{0};  ///< sum of the loops' heaps
};

}  // namespace smptree

#endif  // SMPTREE_SERVE_HTTP_SERVER_H_
