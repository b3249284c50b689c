// InferenceService: binds the serving layers together -- ModelStore (model
// lifecycle) + PredictionEngine (scoring slots) + HttpServer (front end) --
// and implements the HTTP API:
//
//   POST /v1/predict  {"tuples": [[v, ...], ...]}
//     -> {"epoch": E, "codes": [c, ...], "labels": ["name", ...]}
//   POST /v1/reload   {"model": "path/to/model.tree"}
//     -> {"epoch": E, "nodes": N, "source": "..."}   (swap-on-load)
//   GET  /healthz     -> {"status": "ok", "epoch": E}
//   GET  /statz       -> counters, latency quantiles, queue depth, epoch
//
// Values in a predict tuple follow schema attribute order; categorical
// values may be sent as value names (strings) or integer codes; null means
// a missing continuous value. Responses carry both dense label codes and
// class names so thin clients need no schema.

#ifndef SMPTREE_SERVE_SERVICE_H_
#define SMPTREE_SERVE_SERVICE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "serve/engine.h"
#include "serve/http_server.h"
#include "serve/model_store.h"
#include "util/status.h"
#include "util/timer.h"

namespace smptree {

struct ServiceOptions {
  EngineOptions engine;
  HttpServer::Options http;
  /// When false, POST /v1/reload answers 403 (immutable deployments).
  bool allow_reload = true;
  /// Optional BuildStats JSON of the served model's training run (as written
  /// by `smptree_cli train --stats-out`). When non-empty it is embedded
  /// verbatim as the "build" section of /statz, so a deployment carries its
  /// training-time phase/wait breakdown next to the serving metrics. Must be
  /// a single valid JSON object; smptree_serve validates it at startup.
  std::string build_stats_json;
  /// Optional live producer of the /statz "stream" section (a JSON object),
  /// wired by `smptree train-stream --serve-port` to the streaming builder's
  /// StatsJson. Called on the statz handler's thread while training runs, so
  /// it must be thread-safe (the builder's is: it reads relaxed atomics).
  std::function<std::string()> stream_stats;
};

class InferenceService {
 public:
  InferenceService(std::unique_ptr<ModelStore> store, ServiceOptions options);
  ~InferenceService();

  InferenceService(const InferenceService&) = delete;
  InferenceService& operator=(const InferenceService&) = delete;

  Status Start();
  void Stop();

  uint16_t port() const { return http_.port(); }
  ModelStore& store() { return *store_; }
  PredictionEngine& engine() { return engine_; }

 private:
  HttpResponse HandlePredict(const HttpRequest& request);
  HttpResponse HandleReload(const HttpRequest& request);
  HttpResponse HandleHealthz(const HttpRequest& request);
  HttpResponse HandleStatz(const HttpRequest& request);

  const ServiceOptions options_;
  std::unique_ptr<ModelStore> store_;
  PredictionEngine engine_;
  HttpServer http_;
  Timer uptime_;
  std::atomic<uint64_t> predict_errors_{0};
  std::atomic<uint64_t> reloads_{0};
  std::atomic<uint64_t> reload_errors_{0};
};

}  // namespace smptree

#endif  // SMPTREE_SERVE_SERVICE_H_
