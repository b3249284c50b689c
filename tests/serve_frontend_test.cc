// Wire-level tests of the HTTP front end (the epoll event loop), driven
// through raw sockets so TCP segmentation is under test control: pipelined
// requests in one segment, byte-at-a-time trickled headers, HTTP/1.0
// persistence defaults, oversized header floods, and slow readers that
// force write backpressure. The parity test pins the exact response bytes
// for a battery of wire inputs.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/http_client.h"
#include "serve/http_server.h"

namespace smptree {
namespace {

constexpr size_t kBigBodyBytes = 8u << 20;

std::string BigBody() {
  std::string body(kBigBodyBytes, '\0');
  for (size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<char>('a' + (i % 13));
  }
  return body;
}

/// Blocking loopback client with explicit framing control: Send() pushes
/// exactly the bytes given (any segmentation the test wants), ReadResponse
/// frames one response off the stream, ReadUntilEof drains to close.
class RawClient {
 public:
  explicit RawClient(uint16_t port, int rcvbuf_bytes = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    if (rcvbuf_bytes > 0) {
      // Before connect so the small window is part of the handshake.
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                   sizeof(rcvbuf_bytes));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0; }

  bool Send(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// One full response (headers + Content-Length body); "" on EOF/error.
  std::string ReadResponse() {
    for (;;) {
      const size_t header_end = buffer_.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        const size_t need =
            header_end + 4 + ContentLength(buffer_.substr(0, header_end));
        while (buffer_.size() < need) {
          if (!Fill()) return "";
        }
        std::string response = buffer_.substr(0, need);
        buffer_.erase(0, need);
        return response;
      }
      if (!Fill()) return "";
    }
  }

  /// Everything until the server closes (plus any already-buffered bytes).
  std::string ReadUntilEof() {
    while (Fill()) {
    }
    std::string all;
    all.swap(buffer_);
    return all;
  }

 private:
  bool Fill() {
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
      return true;
    }
  }

  static size_t ContentLength(const std::string& head) {
    const size_t pos = head.find("Content-Length: ");
    if (pos == std::string::npos) return 0;
    return static_cast<size_t>(
        std::stoul(head.substr(pos + sizeof("Content-Length: ") - 1)));
  }

  int fd_ = -1;
  std::string buffer_;
};

int StatusOf(const std::string& response) {
  // "HTTP/1.1 NNN ..."
  if (response.size() < 12) return -1;
  return std::stoi(response.substr(9, 3));
}

std::string BodyOf(const std::string& response) {
  const size_t header_end = response.find("\r\n\r\n");
  return header_end == std::string::npos ? ""
                                         : response.substr(header_end + 4);
}

/// Registers the test routes and starts the server with the given options.
std::unique_ptr<HttpServer> StartServer(HttpServer::Options options = {}) {
  options.bind_address = "127.0.0.1";
  options.port = 0;
  auto server = std::make_unique<HttpServer>(std::move(options));
  server->Route("GET", "/ping", [](const HttpRequest&) {
    HttpResponse r;
    r.content_type = "text/plain";
    r.body = "pong\n";
    return r;
  });
  server->Route("POST", "/echo", [](const HttpRequest& request) {
    HttpResponse r;
    r.content_type = "text/plain";
    r.body = request.body;
    return r;
  });
  server->Route("GET", "/big", [](const HttpRequest&) {
    HttpResponse r;
    r.content_type = "application/octet-stream";
    r.body = BigBody();
    return r;
  });
  server->Route("GET", "/slow", [](const HttpRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    HttpResponse r;
    r.body = "{}\n";
    return r;
  });
  const Status started = server->Start();
  EXPECT_TRUE(started.ok()) << started.ToString();
  return server;
}

TEST(FrontEndTest, PipelinedRequestsInOneSegment) {
  auto server = StartServer();
  RawClient client(server->port());
  ASSERT_TRUE(client.ok());
  // Three back-to-back requests in one send: the server must answer all
  // of them in order, and the follow-ups must be served from the bytes
  // already buffered (pipelining), not from another socket read.
  ASSERT_TRUE(client.Send(
      "GET /ping HTTP/1.1\r\n\r\n"
      "POST /echo HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
      "GET /ping HTTP/1.1\r\n\r\n"));
  const std::string first = client.ReadResponse();
  const std::string second = client.ReadResponse();
  const std::string third = client.ReadResponse();
  EXPECT_EQ(StatusOf(first), 200);
  EXPECT_EQ(BodyOf(first), "pong\n");
  EXPECT_EQ(StatusOf(second), 200);
  EXPECT_EQ(BodyOf(second), "hello");
  EXPECT_EQ(StatusOf(third), 200);
  EXPECT_EQ(BodyOf(third), "pong\n");
  const FrontEndStats stats = server->Stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_GE(stats.pipelined_requests, 1u);
  server->Stop();
}

TEST(FrontEndTest, TrickledHeadersOneByteAtATime) {
  auto server = StartServer();
  RawClient client(server->port());
  ASSERT_TRUE(client.ok());
  const std::string wire =
      "POST /echo HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyz";
  for (const char byte : wire) {
    ASSERT_TRUE(client.Send(std::string(1, byte)));
  }
  const std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_EQ(BodyOf(response), "xyz");
  server->Stop();
}

TEST(FrontEndTest, Http10ClosesByDefault) {
  auto server = StartServer();
  RawClient client(server->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.Send("GET /ping HTTP/1.0\r\nHost: x\r\n\r\n"));
  // EOF after one response is the close semantics under test.
  const std::string response = client.ReadUntilEof();
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(BodyOf(response), "pong\n");
  server->Stop();
}

TEST(FrontEndTest, Http10KeepAliveTokenKeepsConnectionOpen) {
  auto server = StartServer();
  RawClient client(server->port());
  ASSERT_TRUE(client.ok());
  // Token-list value, mixed case: must negotiate keep-alive on HTTP/1.0.
  ASSERT_TRUE(client.Send(
      "GET /ping HTTP/1.0\r\nConnection: Keep-Alive, Upgrade\r\n\r\n"));
  const std::string first = client.ReadResponse();
  EXPECT_EQ(StatusOf(first), 200);
  EXPECT_NE(first.find("Connection: keep-alive\r\n"), std::string::npos);
  // The same socket must accept a second request.
  ASSERT_TRUE(
      client.Send("GET /ping HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
  const std::string second = client.ReadResponse();
  EXPECT_EQ(StatusOf(second), 200);
  EXPECT_EQ(BodyOf(second), "pong\n");
  server->Stop();
}

TEST(FrontEndTest, OversizedHeaderBlockAnswers431) {
  HttpServer::Options options;
  options.max_header_bytes = 1024;
  auto server = StartServer(options);
  RawClient client(server->port());
  ASSERT_TRUE(client.ok());
  std::string wire = "GET /ping HTTP/1.1\r\n";
  while (wire.size() < 3 * 1024) {
    wire += "X-Flood: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n";
  }
  wire += "\r\n";
  ASSERT_TRUE(client.Send(wire));
  const std::string response = client.ReadUntilEof();
  EXPECT_EQ(StatusOf(response), 431) << response.substr(0, 64);
  EXPECT_EQ(server->Stats().protocol_errors, 1u);
  server->Stop();
}

TEST(FrontEndTest, MalformedRequestAnswers400AndCloses) {
  auto server = StartServer();
  RawClient client(server->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.Send("NONSENSE\r\n\r\n"));
  const std::string response = client.ReadUntilEof();
  EXPECT_EQ(StatusOf(response), 400);
  EXPECT_EQ(server->Stats().protocol_errors, 1u);
  server->Stop();
}

TEST(FrontEndTest, MethodNotAllowedNamesAllowedMethods) {
  auto server = StartServer();
  RawClient client(server->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.Send(
      "POST /ping HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n"
      "\r\n"));
  const std::string response = client.ReadUntilEof();
  EXPECT_EQ(StatusOf(response), 405);
  EXPECT_NE(response.find("\r\nAllow: GET\r\n"), std::string::npos)
      << response.substr(0, 128);
  server->Stop();
}

TEST(FrontEndTest, SlowReaderStillGetsFullResponse) {
  auto server = StartServer();
  // A tiny receive window plus a multi-megabyte response forces the
  // server-side socket buffer full: the front end must buffer and arm
  // EPOLLOUT (counted as a backpressure stall) instead of dropping or
  // truncating.
  RawClient client(server->port(), /*rcvbuf_bytes=*/4096);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.Send("GET /big HTTP/1.1\r\nConnection: close\r\n\r\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::string response = client.ReadUntilEof();
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_EQ(BodyOf(response), BigBody());
  EXPECT_GE(server->Stats().backpressure_stalls, 1u);
  server->Stop();
}

TEST(FrontEndTest, StopDuringPipelinedRequests) {
  // Stop() while handlers are running on several loops and more requests
  // are buffered behind each: must not hang, crash, or race (this is the
  // TSan exercise).
  HttpServer::Options options;
  options.num_threads = 3;
  auto server = StartServer(options);
  constexpr int kConnections = 6;
  std::vector<std::unique_ptr<RawClient>> clients;
  for (int i = 0; i < kConnections; ++i) {
    clients.push_back(std::make_unique<RawClient>(server->port()));
    ASSERT_TRUE(clients.back()->ok()) << "connection " << i;
    ASSERT_TRUE(clients.back()->Send(
        "GET /slow HTTP/1.1\r\n\r\n"
        "GET /slow HTTP/1.1\r\n\r\n"
        "GET /slow HTTP/1.1\r\n\r\n"));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server->Stop();
  EXPECT_FALSE(server->running());
  // Every connection must actually reach EOF, and whatever was flushed to
  // it before the close must be well-formed 200s.
  for (int i = 0; i < kConnections; ++i) {
    std::string response;
    while (!(response = clients[i]->ReadResponse()).empty()) {
      EXPECT_EQ(StatusOf(response), 200) << "connection " << i;
      EXPECT_EQ(BodyOf(response), "{}\n") << "connection " << i;
    }
    EXPECT_EQ(clients[i]->ReadUntilEof(), "") << "connection " << i;
  }
}

TEST(FrontEndTest, ClientSurvivesSignalsDuringLargeRead) {
  // The EINTR fix in HttpClientConnection: a directed signal interrupting
  // recv mid-body must not be treated as a hangup.
  struct sigaction action{};
  struct sigaction saved{};
  action.sa_handler = [](int) {};
  // Deliberately no SA_RESTART: recv must return EINTR for this test.
  ::sigaction(SIGUSR1, &action, &saved);

  auto server = StartServer();
  HttpClientConnection client("127.0.0.1", server->port());
  // Warm up the keep-alive connection first: connect() is not resumable
  // after EINTR, so only the recv loops should face the signal storm.
  auto warmup = client.Call("GET", "/ping", "");
  ASSERT_TRUE(warmup.ok()) << warmup.status().ToString();
  std::atomic<bool> done{false};
  const pthread_t target = pthread_self();
  std::thread pest([&] {
    while (!done.load(std::memory_order_acquire)) {
      ::pthread_kill(target, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  auto response = client.Call("GET", "/big", "");
  done.store(true, std::memory_order_release);
  pest.join();
  ::sigaction(SIGUSR1, &saved, nullptr);

  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body, BigBody());
  server->Stop();
}

TEST(EpollScalingTest, ServesManyMoreConnectionsThanDispatchThreads) {
  // The acceptance bar for the event loops: 64 live keep-alive
  // connections on 4 loops (16x), every one of them answered -- a
  // thread-per-connection server would strand all but num_threads of them.
  HttpServer::Options options;
  options.num_threads = 4;
  auto server = StartServer(options);

  constexpr int kConnections = 64;
  std::vector<std::unique_ptr<RawClient>> clients;
  for (int i = 0; i < kConnections; ++i) {
    clients.push_back(std::make_unique<RawClient>(server->port()));
    ASSERT_TRUE(clients.back()->ok()) << "connection " << i;
  }
  for (int round = 0; round < 2; ++round) {
    // All sends first so every connection has a request in flight at
    // once, then all reads: true concurrency, not sequential reuse.
    for (auto& client : clients) {
      ASSERT_TRUE(client->Send("GET /ping HTTP/1.1\r\n\r\n"));
    }
    for (auto& client : clients) {
      const std::string response = client->ReadResponse();
      EXPECT_EQ(StatusOf(response), 200);
      EXPECT_EQ(BodyOf(response), "pong\n");
    }
  }
  const FrontEndStats stats = server->Stats();
  EXPECT_EQ(stats.accepted, static_cast<uint64_t>(kConnections));
  EXPECT_EQ(stats.open_connections, static_cast<uint64_t>(kConnections));
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(2 * kConnections));
  clients.clear();
  server->Stop();
}

TEST(EpollDeadlineTest, KeepAliveTrafficHoldsOneDeadlineEntry) {
  // Every request re-arms the connection's idle deadline. The deadline
  // heap holds one entry for the connection however many requests it
  // serves; the connection outlives its first deadline while it stays
  // busy, and is reaped about one timeout after it goes quiet.
  HttpServer::Options options;
  options.num_threads = 2;
  options.io_timeout_seconds = 1;
  auto server = StartServer(options);
  RawClient client(server->port());
  ASSERT_TRUE(client.ok());

  const auto start = std::chrono::steady_clock::now();
  int requests = 0;
  while (std::chrono::steady_clock::now() - start <
         std::chrono::milliseconds(1500)) {
    ASSERT_TRUE(client.Send("GET /ping HTTP/1.1\r\n\r\n"));
    ASSERT_EQ(StatusOf(client.ReadResponse()), 200);
    ++requests;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  FrontEndStats stats = server->Stats();
  EXPECT_GE(requests, 100);
  EXPECT_LE(stats.deadline_entries, 1u);
  EXPECT_EQ(stats.idle_timeouts, 0u);
  EXPECT_EQ(stats.open_connections, 1u);

  const auto quiet = std::chrono::steady_clock::now();
  while (server->Stats().idle_timeouts == 0 &&
         std::chrono::steady_clock::now() - quiet < std::chrono::seconds(5)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stats = server->Stats();
  ASSERT_EQ(stats.idle_timeouts, 1u);  // else the read below would block
  EXPECT_EQ(stats.open_connections, 0u);
  EXPECT_EQ(client.ReadUntilEof(), "");
  server->Stop();
}

TEST(FrontEndParityTest, ByteIdenticalResponsesAcrossFrontEnds) {
  // Same wire input, byte-identical wire output. The expected bytes are
  // those of the retired blocking thread-per-connection front end, which
  // agreed with the event loop byte for byte on every one of these wires.
  // Every request either negotiates close or provokes an error close so
  // EOF frames the comparison.
  struct Case {
    const char* wire;
    const char* response;
  };
  const Case cases[] = {
      {"GET /ping HTTP/1.1\r\nConnection: close\r\n\r\n",
       "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n"
       "Connection: close\r\n\r\npong\n"},
      {"POST /echo HTTP/1.1\r\nContent-Length: 5\r\nConnection: close\r\n"
       "\r\nhello",
       "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n"
       "Connection: close\r\n\r\nhello"},
      {"GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n",
       "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\n"
       "Content-Length: 17\r\nConnection: close\r\n\r\nno such endpoint\n"},
      {"POST /ping HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n"
       "\r\n",
       "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: text/plain\r\n"
       "Content-Length: 19\r\nAllow: GET\r\nConnection: close\r\n\r\n"
       "method not allowed\n"},
      {"GET /ping HTTP/1.0\r\n\r\n",
       "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n"
       "Connection: close\r\n\r\npong\n"},
      {"GET /ping HTTP/1.0\r\nConnection: keep-alive, close\r\n\r\n",
       "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n"
       "Connection: close\r\n\r\npong\n"},
      {"BOGUS\r\n\r\n",
       "HTTP/1.1 400 Bad Request\r\nContent-Type: text/plain\r\n"
       "Content-Length: 23\r\nConnection: close\r\n\r\n"
       "malformed request line\n"},
      {"POST /echo HTTP/1.1\r\nContent-Length: nan\r\n\r\n",
       "HTTP/1.1 400 Bad Request\r\nContent-Type: text/plain\r\n"
       "Content-Length: 19\r\nConnection: close\r\n\r\nbad Content-Length\n"},
      {"GET /ping HTTP/999\r\n\r\n",
       "HTTP/1.1 400 Bad Request\r\nContent-Type: text/plain\r\n"
       "Content-Length: 23\r\nConnection: close\r\n\r\n"
       "malformed HTTP version\n"},
  };
  auto server = StartServer();
  for (const Case& c : cases) {
    RawClient client(server->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.Send(c.wire));
    EXPECT_EQ(client.ReadUntilEof(), c.response)
        << "response differs on: " << std::string(c.wire).substr(0, 40);
  }
  server->Stop();
}

}  // namespace
}  // namespace smptree
