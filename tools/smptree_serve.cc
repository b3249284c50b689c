// smptree_serve: long-lived inference server over a trained model.
//
//   smptree_serve --schema schema.txt --model model.tree
//                 [--port 8080] [--address 127.0.0.1] [--workers 0]
//                 [--http-threads 4] [--no-reload] [--build-stats stats.json]
//
// --http-threads event loops share the connections; each runs the
// handlers of its own connections inline and scores a batch itself on one
// of --workers scoring slots (0 = one per hardware thread).
//
// Endpoints (see docs/SERVING.md): POST /v1/predict, POST /v1/reload,
// GET /healthz, GET /statz. Prints "listening on <port>" once ready (port 0
// picks an ephemeral port and prints the real one, which is how the test
// harness finds it). Runs until SIGINT/SIGTERM, then drains in-flight
// requests and exits 0.

#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "serve/json.h"
#include "serve/service.h"
#include "util/string_util.h"

namespace smptree {
namespace {

// Self-pipe for signal-safe shutdown: the handler writes one byte, main
// blocks on read. (CondVar notify is not async-signal-safe; write is.)
int g_shutdown_pipe[2] = {-1, -1};

void HandleSignal(int) {
  const char byte = 1;
  // Best effort; if the pipe is full a shutdown is already pending.
  [[maybe_unused]] ssize_t n = ::write(g_shutdown_pipe[1], &byte, 1);
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: smptree_serve --schema F --model F [--port N]\n"
               "         [--address A] [--workers N] [--http-threads N]\n"
               "         [--no-reload] [--build-stats F.json]\n");
  return 1;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return Usage();
    if (arg == "--no-reload") {
      flags["no-reload"] = "1";
      continue;
    }
    if (i + 1 >= argc) return Usage();
    flags[arg.substr(2)] = argv[++i];
  }
  const auto get = [&](const std::string& name,
                       const std::string& fallback = "") {
    const auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  };
  const auto get_int = [&](const std::string& name, int64_t fallback,
                           int64_t* out) {
    const std::string raw = get(name);
    if (raw.empty()) {
      *out = fallback;
      return true;
    }
    return ParseInt64(raw, out);
  };

  const std::string schema_path = get("schema");
  const std::string model_path = get("model");
  if (schema_path.empty() || model_path.empty()) return Usage();

  int64_t port = 0, workers = 0, http_threads = 4;
  if (!get_int("port", 8080, &port) || port < 0 || port > 65535 ||
      !get_int("workers", 0, &workers) ||
      !get_int("http-threads", 4, &http_threads) || http_threads < 1) {
    return Fail("bad numeric flag");
  }

  auto store = ModelStore::Open(schema_path, model_path);
  if (!store.ok()) return Fail(store.status().ToString());

  ServiceOptions options;
  options.engine.num_workers = static_cast<int>(workers);
  options.http.bind_address = get("address", "127.0.0.1");
  options.http.port = static_cast<uint16_t>(port);
  options.http.num_threads = static_cast<int>(http_threads);
  options.allow_reload = get("no-reload").empty();

  // Training-run BuildStats to embed in /statz ("build" section). Validate
  // up front: a malformed file would corrupt every /statz response body.
  const std::string build_stats_path = get("build-stats");
  if (!build_stats_path.empty()) {
    std::ifstream in(build_stats_path);
    if (!in) return Fail("cannot open " + build_stats_path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string raw(TrimWhitespace(buffer.str()));
    auto parsed = ParseJson(raw);
    if (!parsed.ok()) {
      return Fail("--build-stats " + build_stats_path + ": " +
                  parsed.status().ToString());
    }
    options.build_stats_json = raw;
  }

  InferenceService service(std::move(*store), options);
  const Status started = service.Start();
  if (!started.ok()) return Fail(started.ToString());

  const ServingModelPtr model = service.store().Current();
  std::printf(
      "smptree_serve: %s model %s (epoch %lld, %d trees, %lld nodes, "
      "%d scoring slots)\n",
      model->kind_name(), model->source.c_str(),
      static_cast<long long>(model->epoch), model->num_trees(),
      static_cast<long long>(model->total_nodes()),
      service.engine().num_workers());
  std::printf("listening on %u\n", static_cast<unsigned>(service.port()));
  std::fflush(stdout);

  if (::pipe(g_shutdown_pipe) != 0) return Fail("pipe failed");
  struct sigaction sa{};
  sa.sa_handler = HandleSignal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  char byte = 0;
  while (::read(g_shutdown_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::printf("smptree_serve: shutting down\n");
  service.Stop();
  return 0;
}

}  // namespace
}  // namespace smptree

int main(int argc, char** argv) { return smptree::Main(argc, argv); }
