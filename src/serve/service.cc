#include "serve/service.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "serve/batch.h"
#include "serve/json.h"
#include "util/string_util.h"

namespace smptree {
namespace {

HttpResponse JsonError(int status, const Status& error) {
  HttpResponse response;
  response.status = status;
  response.body = "{\"error\": " + JsonQuote(error.ToString()) + "}\n";
  return response;
}

}  // namespace

InferenceService::InferenceService(std::unique_ptr<ModelStore> store,
                                   ServiceOptions options)
    : options_(std::move(options)),
      store_(std::move(store)),
      engine_(store_.get(), options_.engine),
      http_(options_.http) {
  http_.Route("POST", "/v1/predict",
              [this](const HttpRequest& r) { return HandlePredict(r); });
  http_.Route("POST", "/v1/reload",
              [this](const HttpRequest& r) { return HandleReload(r); });
  http_.Route("GET", "/healthz",
              [this](const HttpRequest& r) { return HandleHealthz(r); });
  http_.Route("GET", "/statz",
              [this](const HttpRequest& r) { return HandleStatz(r); });
}

InferenceService::~InferenceService() { Stop(); }

Status InferenceService::Start() { return http_.Start(); }

void InferenceService::Stop() {
  // Order matters: stop the front end first so no new batches arrive, then
  // shut the engine. In-flight predicts complete before Stop returns
  // because HttpServer joins its event loops, which score them inline.
  http_.Stop();
  engine_.Shutdown();
}

HttpResponse InferenceService::HandlePredict(const HttpRequest& request) {
  auto doc = ParseJson(request.body);
  if (!doc.ok()) {
    predict_errors_.fetch_add(1, std::memory_order_relaxed);
    return JsonError(400, doc.status());
  }
  auto batch = Batch::FromJson(store_->schema(), *doc);
  if (!batch.ok()) {
    predict_errors_.fetch_add(1, std::memory_order_relaxed);
    return JsonError(400, batch.status());
  }
  auto outcome = engine_.Predict(std::move(*batch));
  if (!outcome.ok()) {
    predict_errors_.fetch_add(1, std::memory_order_relaxed);
    return JsonError(outcome.status().IsAborted() ? 503 : 400,
                     outcome.status());
  }

  // One pass into one reserved string, each class name quoted once per
  // response. The bytes must stay those of "%d" / "%lld" / "%.17g"
  // (PredictWireTest pins them).
  const Schema& schema = store_->schema();
  std::vector<std::string> quoted(
      static_cast<size_t>(schema.num_classes()));
  size_t longest = 0;
  for (int c = 0; c < schema.num_classes(); ++c) {
    std::string& q = quoted[static_cast<size_t>(c)];
    AppendJsonQuoted(schema.class_name(c), &q);
    longest = std::max(longest, q.size());
  }
  const std::vector<ClassLabel>& labels = outcome->labels;
  // Forest models add per-tuple class-probability rows (vote shares).
  const size_t k =
      outcome->num_classes > 0 && !outcome->probs.empty() && !labels.empty()
          ? static_cast<size_t>(outcome->num_classes)
          : 0;
  HttpResponse response;
  std::string& body = response.body;
  body.reserve(64 + labels.size() * (longest + 8 + k * 21));
  body += "{\"epoch\": ";
  AppendJsonInteger(outcome->model_epoch, &body);
  body += ", \"codes\": [";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) body += ',';
    AppendJsonInteger(labels[i], &body);
  }
  body += "], \"labels\": [";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) body += ',';
    body += quoted[labels[i]];
  }
  body += ']';
  if (k > 0) {
    body += ", \"probs\": [";
    for (size_t i = 0; i < labels.size(); ++i) {
      body += i > 0 ? ",[" : "[";
      for (size_t c = 0; c < k; ++c) {
        if (c > 0) body += ',';
        AppendJsonNumber(outcome->probs[i * k + c], &body);
      }
      body += ']';
    }
    body += ']';
  }
  body += "}\n";
  return response;
}

HttpResponse InferenceService::HandleReload(const HttpRequest& request) {
  if (!options_.allow_reload) {
    reload_errors_.fetch_add(1, std::memory_order_relaxed);
    return JsonError(403, Status::NotSupported("reload is disabled"));
  }
  auto doc = ParseJson(request.body);
  if (!doc.ok()) {
    reload_errors_.fetch_add(1, std::memory_order_relaxed);
    return JsonError(400, doc.status());
  }
  const JsonValue* model = doc->Find("model");
  if (model == nullptr || !model->is_string()) {
    reload_errors_.fetch_add(1, std::memory_order_relaxed);
    return JsonError(400, Status::InvalidArgument(
                              "request needs a \"model\" path string"));
  }
  const Status s = store_->Reload(model->string_value());
  if (!s.ok()) {
    reload_errors_.fetch_add(1, std::memory_order_relaxed);
    return JsonError(s.IsIOError() || s.IsNotFound() ? 404 : 400, s);
  }
  reloads_.fetch_add(1, std::memory_order_relaxed);
  const ServingModelPtr current = store_->Current();
  HttpResponse response;
  response.body = StringPrintf(
      "{\"epoch\": %lld, \"kind\": \"%s\", \"trees\": %d, \"nodes\": %lld, "
      "\"source\": %s}\n",
      static_cast<long long>(current->epoch), current->kind_name(),
      current->num_trees(),
      static_cast<long long>(current->total_nodes()),
      JsonQuote(current->source).c_str());
  return response;
}

HttpResponse InferenceService::HandleHealthz(const HttpRequest&) {
  HttpResponse response;
  response.body = StringPrintf(
      "{\"status\": \"ok\", \"epoch\": %lld}\n",
      static_cast<long long>(store_->epoch()));
  return response;
}

HttpResponse InferenceService::HandleStatz(const HttpRequest&) {
  const EngineStats stats = engine_.Stats();
  const FrontEndStats http = http_.Stats();
  const ServingModelPtr model = store_->Current();
  const double uptime = uptime_.Seconds();
  const double tuples_per_second =
      uptime > 0 ? static_cast<double>(stats.tuples) / uptime : 0.0;
  // Non-empty log2 buckets of the batch-size histogram, rendered as
  // {"<lower-edge>": count, ...} so real batch shapes are observable.
  std::string size_buckets;
  for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
    const uint64_t count = stats.batch_size_buckets[static_cast<size_t>(b)];
    if (count == 0) continue;
    if (!size_buckets.empty()) size_buckets += ", ";
    size_buckets += StringPrintf(
        "\"%llu\": %llu", static_cast<unsigned long long>(uint64_t{1} << b),
        static_cast<unsigned long long>(count));
  }
  HttpResponse response;
  response.body = StringPrintf(
      "{\"model_epoch\": %lld, \"model_kind\": \"%s\", \"model_trees\": %d, "
      "\"model_nodes\": %lld, "
      "\"model_source\": %s, "
      "\"model_bytes\": {\"pointer\": %zu, \"flat\": %zu}, "
      "\"workers\": %d, \"queue_depth\": %zu, "
      "\"batches\": %llu, \"tuples\": %llu, \"rejected\": %llu, "
      "\"predict_errors\": %llu, \"reloads\": %llu, "
      "\"reload_errors\": %llu, \"uptime_seconds\": %s, "
      "\"tuples_per_second\": %s, \"batch_tuples\": "
      "{\"mean\": %s, \"p50\": %llu, \"p99\": %llu, \"log2_buckets\": {%s}}, "
      "\"latency\": "
      "{\"mean_ms\": %s, \"p50_ms\": %s, \"p90_ms\": %s, \"p99_ms\": %s}}\n",
      static_cast<long long>(model->epoch), model->kind_name(),
      model->num_trees(),
      static_cast<long long>(model->total_nodes()),
      JsonQuote(model->source).c_str(),
      stats.model_bytes_pointer, stats.model_bytes_flat,
      stats.workers, stats.queue_depth,
      static_cast<unsigned long long>(stats.batches),
      static_cast<unsigned long long>(stats.tuples),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(
          predict_errors_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          reloads_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          reload_errors_.load(std::memory_order_relaxed)),
      JsonNumber(uptime).c_str(), JsonNumber(tuples_per_second).c_str(),
      JsonNumber(stats.batch_mean_tuples).c_str(),
      static_cast<unsigned long long>(stats.batch_p50_tuples),
      static_cast<unsigned long long>(stats.batch_p99_tuples),
      size_buckets.c_str(),
      JsonNumber(stats.mean_nanos / 1e6).c_str(),
      JsonNumber(static_cast<double>(stats.p50_nanos) / 1e6).c_str(),
      JsonNumber(static_cast<double>(stats.p90_nanos) / 1e6).c_str(),
      JsonNumber(static_cast<double>(stats.p99_nanos) / 1e6).c_str());
  // Connection-path counters of the front end, spliced in as an "http"
  // member before the outer closing brace (the body above always ends
  // "}}\n"). "front_end" is a constant, kept so existing scrapers keep
  // working.
  const std::string http_json = StringPrintf(
      ", \"http\": {\"front_end\": \"epoll\", \"open_connections\": %llu, "
      "\"accepted\": %llu, \"requests\": %llu, "
      "\"pipelined_requests\": %llu, \"backpressure_stalls\": %llu, "
      "\"idle_timeouts\": %llu, \"protocol_errors\": %llu}",
      static_cast<unsigned long long>(http.open_connections),
      static_cast<unsigned long long>(http.accepted),
      static_cast<unsigned long long>(http.requests),
      static_cast<unsigned long long>(http.pipelined_requests),
      static_cast<unsigned long long>(http.backpressure_stalls),
      static_cast<unsigned long long>(http.idle_timeouts),
      static_cast<unsigned long long>(http.protocol_errors));
  response.body.insert(response.body.rfind("}\n"), http_json);
  if (!options_.build_stats_json.empty()) {
    // Splice the training-run BuildStats in as a "build" member before the
    // outer closing brace (the body above always ends "}}\n").
    const size_t tail = response.body.rfind("}\n");
    response.body.insert(tail, ", \"build\": " + options_.build_stats_json);
  }
  if (options_.stream_stats) {
    // Live streaming-trainer counters, same splice as "build".
    const size_t tail = response.body.rfind("}\n");
    response.body.insert(tail, ", \"stream\": " + options_.stream_stats());
  }
  return response;
}

}  // namespace smptree
