#include "serve/engine.h"

#include <thread>

#include "util/string_util.h"
#include "util/timer.h"

namespace smptree {

PredictionEngine::PredictionEngine(const ModelStore* store,
                                   EngineOptions options)
    : store_(store), options_(std::move(options)) {
  int n = options_.num_workers;
  if (n <= 0) {
    n = static_cast<int>(std::thread::hardware_concurrency());
    if (n <= 0) n = 2;
  }
  arenas_.reserve(static_cast<size_t>(n));
  free_arenas_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    arenas_.push_back(std::make_unique<WorkerArena>());
    free_arenas_.push_back(arenas_.back().get());
  }
}

void PredictionEngine::Shutdown() {
  MutexLock lock(mu_);
  shut_down_ = true;
  slot_freed_.NotifyAll();
}

PredictionEngine::WorkerArena* PredictionEngine::AcquireArena() {
  MutexLock lock(mu_);
  ++waiting_;
  while (!shut_down_ && free_arenas_.empty()) slot_freed_.Wait(mu_);
  --waiting_;
  if (shut_down_) return nullptr;
  WorkerArena* arena = free_arenas_.back();
  free_arenas_.pop_back();
  return arena;
}

void PredictionEngine::ReleaseArena(WorkerArena* arena) {
  MutexLock lock(mu_);
  free_arenas_.push_back(arena);
  slot_freed_.NotifyOne();
}

Result<PredictOutcome> PredictionEngine::Predict(const ColumnBlock& batch) {
  if (batch.num_tuples() <= 0) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return Status::InvalidArgument("empty batch");
  }
  if (batch.num_attrs() != store_->schema().num_attrs()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return Status::InvalidArgument(StringPrintf(
        "batch has %d attributes, serving schema has %d", batch.num_attrs(),
        store_->schema().num_attrs()));
  }
  Timer timer;
  WorkerArena* const arena = AcquireArena();
  if (arena == nullptr) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return Status::Aborted("prediction engine is shut down");
  }

  // The batch's model snapshot: one atomic load; holding the shared_ptr
  // keeps this epoch's tree alive past any concurrent reload.
  const ServingModelPtr model = store_->Current();
  if (options_.test_batch_hook) options_.test_batch_hook(model->epoch);

  // Score the whole batch through the snapshot's flattened model: one
  // exact-size resize per output buffer, then the scorer writes labels
  // and probs in place -- no per-tuple row gather, no interim copies.
  PredictOutcome outcome;
  const int64_t n = batch.num_tuples();
  outcome.labels.resize(static_cast<size_t>(n));
  if (model->kind == ModelKind::kForest) {
    // Forests also report vote shares; the whole batch scores against the
    // one snapshot taken above, so no reload can tear labels from probs.
    const int k = model->schema().num_classes();
    outcome.num_classes = k;
    outcome.probs.resize(static_cast<size_t>(n * k));
    arena->scorer.ScoreForest(*model->flat_forest, batch,
                              outcome.labels.data(), outcome.probs.data());
  } else {
    arena->scorer.ScoreTree(model->flat_tree, batch, outcome.labels.data());
  }
  outcome.model_epoch = model->epoch;

  arena->batch_size.Record(static_cast<uint64_t>(n));
  arena->latency.Record(static_cast<uint64_t>(timer.Seconds() * 1e9));
  arena->batches.fetch_add(1, std::memory_order_relaxed);
  arena->tuples.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
  ReleaseArena(arena);
  return outcome;
}

EngineStats PredictionEngine::Stats() const {
  EngineStats stats;
  LatencyHistogram merged;
  LatencyHistogram merged_sizes;
  for (const auto& arena : arenas_) {
    stats.batches += arena->batches.load(std::memory_order_relaxed);
    stats.tuples += arena->tuples.load(std::memory_order_relaxed);
    merged.Merge(arena->latency);
    merged_sizes.Merge(arena->batch_size);
  }
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  {
    MutexLock lock(mu_);
    stats.queue_depth = waiting_;
  }
  stats.workers = num_workers();
  stats.mean_nanos = merged.mean_nanos();
  stats.p50_nanos = merged.QuantileNanos(0.5);
  stats.p90_nanos = merged.QuantileNanos(0.9);
  stats.p99_nanos = merged.QuantileNanos(0.99);
  stats.batch_mean_tuples = merged_sizes.mean_nanos();
  if (merged_sizes.count() > 0) {
    stats.batch_p50_tuples = merged_sizes.QuantileNanos(0.5);
    stats.batch_p99_tuples = merged_sizes.QuantileNanos(0.99);
  }
  for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
    stats.batch_size_buckets[static_cast<size_t>(b)] =
        merged_sizes.bucket_count(b);
  }
  // Both representations of the live model; a reload between Stats calls
  // shows up as the new model's footprint.
  const ServingModelPtr model = store_->Current();
  stats.model_bytes_pointer = model->pointer_bytes();
  stats.model_bytes_flat = model->flat_bytes();
  return stats;
}

}  // namespace smptree
