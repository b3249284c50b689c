// HTTP/1.1 server for the inference front end: one event-loop thread
// multiplexes the listener and every connection socket (all nonblocking)
// over epoll, a small dispatch pool runs the route handlers, and completed
// responses flow back to the loop through a mutex-protected completion
// queue + eventfd wakeup. Concurrent *connections* are therefore bounded by
// memory, not by thread count. Supports exactly what the serving endpoints
// need -- GET/POST, Content-Length bodies, keep-alive, pipelining -- and
// nothing else (no TLS, no chunked encoding).
//
// Per-connection state machine (driven entirely by the loop thread, which
// exclusively owns every Connection object):
//
//   kReading ----complete request----> kDispatching ----response----+
//      ^  \                                                         |
//      |   `--parse error--> kWriting (error response, then close)  |
//      +-------------- response fully written <-------- kWriting <--+
//
//   - kReading: EPOLLIN armed; bytes feed the incremental parser. A
//     complete request disarms EPOLLIN (no new reads while a request is in
//     flight -- one request at a time per connection keeps responses
//     ordered) and hands the request to the dispatch queue.
//   - kDispatching: a dispatch thread runs the handler and posts the
//     rendered bytes back; the connection has no epoll interest and no
//     deadline.
//   - kWriting: the loop sends from the output buffer. EPOLLOUT is armed
//     *only* when send() returns EAGAIN (write backpressure); a slow
//     reader therefore costs one buffered response, never a thread.
//   - After a full write: keep-alive connections first try to parse the
//     *next* request from bytes already buffered (pipelining -- requests
//     that arrived back-to-back in one segment are served without another
//     recv), otherwise EPOLLIN is re-armed with a fresh idle deadline.
//
// Idle timeouts use a lazy min-heap of (deadline, connection id) holding
// at most one live entry per connection: re-arming to a later deadline
// pushes nothing, and when the queued entry comes due it is re-queued at
// the connection's current deadline (or reaps it, if that has passed).
// Entries of closed connections are skipped, so there is no cancellation
// bookkeeping, and the heap does not grow with every request served on a
// keep-alive connection.
//
// Stop(): the listener closes, idle keep-alive connections are dropped,
// and requests already dispatched finish and are flushed (bounded by
// io_timeout_seconds).

#ifndef SMPTREE_SERVE_HTTP_SERVER_H_
#define SMPTREE_SERVE_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/http_parser.h"
#include "serve/http_types.h"
#include "serve/work_queue.h"
#include "util/mutex.h"
#include "util/status.h"

namespace smptree {

/// Monitoring snapshot of the connection path for /statz.
struct FrontEndStats {
  uint64_t accepted = 0;            ///< connections accepted since Start
  uint64_t open_connections = 0;    ///< currently live connections
  uint64_t requests = 0;            ///< requests dispatched
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
    int num_threads = 4;  ///< dispatch threads running the handlers
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
  /// run on the dispatch threads and must be safe to call concurrently.
  void Route(const std::string& method, const std::string& path,
             Handler handler);

  /// Binds, listens, and spawns the loop and dispatch threads. A server
  /// starts at most once.
  Status Start();

  /// The bound port (after Start; resolves port 0 to the real port).
  uint16_t port() const { return bound_port_; }

  /// Stops accepting, closes the listener, and joins all threads.
  /// In-flight requests finish; idle keep-alive connections are dropped.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  FrontEndStats Stats() const;

 private:
  struct Connection {
    enum class State { kReading, kDispatching, kWriting };

    explicit Connection(HttpRequestParser::Limits limits)
        : parser(limits) {}

    int fd = -1;
    uint64_t id = 0;
    State state = State::kReading;
    HttpRequestParser parser;
    std::string out;        ///< rendered bytes not yet fully sent
    size_t out_offset = 0;  ///< already-sent prefix of `out`
    bool close_after_write = false;
    bool want_write = false;   ///< EPOLLOUT currently armed
    bool want_read = false;    ///< EPOLLIN currently armed
    int64_t deadline_ms = 0;   ///< absolute steady-clock ms; 0 = no deadline
    int64_t queued_ms = 0;     ///< at_ms of its live heap entry; 0 = none
  };

  struct DispatchJob {
    uint64_t conn_id = 0;
    bool keep_alive = true;
    HttpRequest request;
  };

  struct Completion {
    uint64_t conn_id = 0;
    bool close_after = false;
    std::string bytes;
  };

  /// Heap entry for the lazy deadline heap (smallest deadline on top).
  struct Deadline {
    int64_t at_ms = 0;
    uint64_t conn_id = 0;
    bool operator>(const Deadline& other) const {
      return at_ms > other.at_ms;
    }
  };

  /// Routes the request. Answers 404 for unknown paths and 405 with the
  /// required Allow header when the path exists under other methods.
  HttpResponse Dispatch(const HttpRequest& request) const;

  void LoopThread();
  void WorkerThread();
  void WakeLoop();

  // All of the following run on the loop thread only.
  void HandleAccept();
  void HandleReadable(Connection* conn);
  void OnParserProgress(Connection* conn, bool pipelined);
  void StartDispatch(Connection* conn, bool pipelined);
  void SendError(Connection* conn);
  void EnqueueResponse(Connection* conn, std::string bytes, bool close_after);
  void TryWrite(Connection* conn);
  void DrainCompletions();
  void ExpireDeadlines(int64_t now_ms);
  void SetDeadline(Connection* conn, int64_t at_ms);
  void UpdateInterest(Connection* conn, bool want_read, bool want_write);
  void CloseConnection(Connection* conn);
  int NextWaitMillis(int64_t now_ms) const;
  bool HasPendingWork() const;

  const Options options_;
  // lint: unguarded(route table is frozen before Start; immutable serving)
  std::map<std::pair<std::string, std::string>, Handler> routes_;

  std::atomic<bool> running_{false};
  // lint: unguarded(written once in Start before any thread spawns)
  uint16_t bound_port_ = 0;
  // lint: unguarded(opened in Start, closed in Stop after joining threads)
  int epoll_fd_ = -1;
  // lint: unguarded(opened in Start, closed in Stop after joining threads)
  int listen_fd_ = -1;
  // lint: unguarded(opened in Start, closed in Stop after joining threads)
  int wake_fd_ = -1;

  // lint: unguarded(loop thread exclusively owns the connection table)
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_;
  // lint: unguarded(loop thread only: monotonically increasing conn ids)
  uint64_t next_conn_id_ = 1;
  // lint: unguarded(loop thread only: lazy deadline min-heap)
  std::vector<Deadline> deadlines_;
  // Requests handed to workers and not yet completed; drives Stop() drain.
  // lint: unguarded(loop thread only)
  uint64_t outstanding_dispatches_ = 0;

  WorkQueue<DispatchJob> dispatch_queue_;
  Mutex completions_mu_;
  std::vector<Completion> completions_ GUARDED_BY(completions_mu_);

  // lint: unguarded(written in Start/Stop only; never touched by workers)
  std::vector<std::thread> threads_;  ///< [0] = loop, rest = dispatch

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> open_connections_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> pipelined_requests_{0};
  std::atomic<uint64_t> backpressure_stalls_{0};
  std::atomic<uint64_t> idle_timeouts_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> deadline_entries_{0};  ///< mirrors deadlines_.size()
};

}  // namespace smptree

#endif  // SMPTREE_SERVE_HTTP_SERVER_H_
