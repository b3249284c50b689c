// PredictionEngine: the scoring core of the serving subsystem. Predict
// scores each whole batch on the calling thread through the snapshot's
// flattened model (infer/batch_scorer.h) -- level-synchronous traversal
// straight off the block's columns, no per-tuple row gather, no pointer
// chasing. There are no engine threads and no request hand-off: the caller
// (an HTTP event loop running the predict handler inline, or the CLI)
// borrows one of `num_workers` scoring slots, scores, and returns it. With
// the default sizes (4 event loops, one slot per hardware thread) no loop
// waits for a slot.
//
// Concurrency model (the read-side mirror of the paper's build-side
// protocols): callers share NOTHING mutable on the hot path. Each batch
// takes one ServingModelPtr snapshot from the ModelStore -- an O(1)
// pointer copy -- and scores every tuple against that snapshot (the flat
// form is compiled into the snapshot at install time), so a hot reload
// mid-batch never changes the model under a batch and never blocks.
// Each slot is an arena holding the scorer scratch and private histograms
// (latency + batch size); /statz merges them on demand. The only shared
// lock guards the free-slot list, and a caller waits on it only when every
// slot is busy.

#ifndef SMPTREE_SERVE_ENGINE_H_
#define SMPTREE_SERVE_ENGINE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/records.h"
#include "data/dataset.h"
#include "infer/batch_scorer.h"
#include "serve/latency_histogram.h"
#include "serve/model_store.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace smptree {

struct EngineOptions {
  /// Scoring slots: at most this many batches score at once, further
  /// callers wait for a slot. 0 means hardware_concurrency.
  int num_workers = 0;
  /// Test-only: called by the scoring thread after it takes its model
  /// snapshot and before it scores, with the snapshot's epoch. Lets tests
  /// hold a batch "in flight" across a reload deterministically.
  std::function<void(int64_t epoch)> test_batch_hook;
};

/// The scored batch: one label per input tuple, plus the epoch of the model
/// that produced them (so callers can tell which model answered across a
/// reload). Forest models additionally report per-class vote shares:
/// `probs` holds num_tuples() x num_classes doubles, row-major
/// (probs[t * num_classes + c]); it is empty for single-tree models.
/// Every field comes from ONE model snapshot -- a reload mid-batch can
/// never mix one model's labels with another's probabilities.
struct PredictOutcome {
  std::vector<ClassLabel> labels;
  std::vector<double> probs;
  int num_classes = 0;  ///< probs row width; 0 when probs is empty
  int64_t model_epoch = 0;
};

/// Monitoring snapshot for /statz.
struct EngineStats {
  uint64_t batches = 0;         ///< batches scored
  uint64_t tuples = 0;          ///< tuples scored
  uint64_t rejected = 0;        ///< batches rejected before scoring
  size_t queue_depth = 0;       ///< callers now waiting for a free slot
  int workers = 0;              ///< scoring slots
  double mean_nanos = 0.0;      ///< per-batch latency (slot wait + score)
  uint64_t p50_nanos = 0;
  uint64_t p90_nanos = 0;
  uint64_t p99_nanos = 0;
  /// Heap cost of the currently installed model, both representations
  /// (pointer-linked builder form vs flattened SoA inference form).
  size_t model_bytes_pointer = 0;
  size_t model_bytes_flat = 0;
  /// Batch-size distribution (tuples per scored batch): log2 buckets, so
  /// batch_size_buckets[b] counts batches of [2^b, 2^(b+1)) tuples.
  double batch_mean_tuples = 0.0;
  uint64_t batch_p50_tuples = 0;
  uint64_t batch_p99_tuples = 0;
  std::array<uint64_t, LatencyHistogram::kBuckets> batch_size_buckets{};
};

class PredictionEngine {
 public:
  /// `store` must outlive the engine. Starts no threads.
  PredictionEngine(const ModelStore* store, EngineOptions options);

  PredictionEngine(const PredictionEngine&) = delete;
  PredictionEngine& operator=(const PredictionEngine&) = delete;

  /// Scores `batch` on the calling thread, waiting first if every scoring
  /// slot is busy. Safe to call from any number of threads concurrently.
  /// Fails without scoring when the batch arity does not match the serving
  /// schema or the engine is shut down.
  Result<PredictOutcome> Predict(const ColumnBlock& batch) EXCLUDES(mu_);

  /// Batches already scoring complete; callers waiting for a slot and new
  /// Predict calls fail with Aborted. Idempotent.
  void Shutdown() EXCLUDES(mu_);

  EngineStats Stats() const EXCLUDES(mu_);

  int num_workers() const { return static_cast<int>(arenas_.size()); }

 private:
  /// One scoring slot: scorer scratch reused across batches, and the
  /// slot's private slice of the stats.
  struct WorkerArena {
    BatchScorer scorer;            ///< cursor/vote scratch (infer/)
    LatencyHistogram latency;      ///< per-batch latency (wait + score)
    LatencyHistogram batch_size;   ///< tuples per batch (log2 buckets)
    std::atomic<uint64_t> batches{0};
    std::atomic<uint64_t> tuples{0};
  };

  /// Takes a free slot, waiting while none is; nullptr once shut down.
  WorkerArena* AcquireArena() EXCLUDES(mu_);
  void ReleaseArena(WorkerArena* arena) EXCLUDES(mu_);

  const ModelStore* const store_;
  const EngineOptions options_;
  // lint: unguarded(filled in the constructor, immutable afterwards)
  std::vector<std::unique_ptr<WorkerArena>> arenas_;
  std::atomic<uint64_t> rejected_{0};

  mutable Mutex mu_;
  CondVar slot_freed_;
  std::vector<WorkerArena*> free_arenas_ GUARDED_BY(mu_);
  size_t waiting_ GUARDED_BY(mu_) = 0;
  bool shut_down_ GUARDED_BY(mu_) = false;
};

}  // namespace smptree

#endif  // SMPTREE_SERVE_ENGINE_H_
