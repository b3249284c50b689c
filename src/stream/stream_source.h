// Streaming input for the incremental builder: a StreamSource hands out
// bounded batches of labelled tuples -- column blocks, like every other data
// holder -- from an unbounded or out-of-core input. Two implementations:
//
//  - SyntheticStreamSource wraps the Agrawal generator (data/synthetic.h)
//    tuple-for-tuple, so a stream and a materialized GenerateSynthetic
//    dataset with the same seed agree exactly -- the accuracy-vs-batch
//    comparisons in bench/stream_throughput depend on that.
//  - DiskStreamSource pages sharded CSV or binary (stream/shard_io.h) files
//    through a double buffer: a background reader thread loads shard k+1
//    while the consumer drains shard k, so the builder thread never blocks
//    on disk unless it outruns the reader.
//
// Contract for implementations: NextBatch runs on the builder thread and
// must not perform blocking I/O itself -- disk work belongs on the reader
// side of the double buffer (the ReaderLoop seam; smptree_lint's
// stream-source-blocking-io check enforces this convention).

#ifndef SMPTREE_STREAM_STREAM_SOURCE_H_
#define SMPTREE_STREAM_STREAM_SOURCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "data/synthetic.h"
#include "util/mutex.h"
#include "util/random.h"
#include "util/status.h"

namespace smptree {

/// One delivered chunk of stream input: a labelled column block, the layout
/// of every other data holder. Sources fill its columns in place, and a
/// batch reused across NextBatch calls keeps its capacity, so steady-state
/// batches allocate nothing.
using StreamBatch = Dataset;

/// Pull interface over an ordered tuple stream. Not thread-safe: one
/// consumer thread calls NextBatch.
class StreamSource {
 public:
  virtual ~StreamSource() = default;

  virtual const Schema& schema() const = 0;

  /// Clears `batch` and refills it with up to `max_tuples` tuples under
  /// schema(). Returns the number delivered; 0 means the stream is
  /// exhausted. Must not block on I/O (see file comment).
  virtual Result<int64_t> NextBatch(int64_t max_tuples, StreamBatch* batch) = 0;
};

/// Unbounded (or limited) Agrawal generator stream.
class SyntheticStreamSource : public StreamSource {
 public:
  /// `config.num_tuples` is the stream length; 0 means unbounded (the
  /// caller stops by tuple budget).
  explicit SyntheticStreamSource(const SyntheticConfig& config);

  const Schema& schema() const override { return schema_; }
  Result<int64_t> NextBatch(int64_t max_tuples, StreamBatch* batch) override;

 private:
  const Schema schema_;
  const int function_;
  const double label_noise_;
  const int64_t limit_;  ///< 0 = unbounded
  Random rng_;
  int64_t emitted_ = 0;
};

/// Sharded on-disk stream with double-buffered read-ahead. Shards ending in
/// ".csv" parse as CSV; everything else reads as binary shards
/// (stream/shard_io.h). Shards are delivered in the order given.
class DiskStreamSource : public StreamSource {
 public:
  /// Validates inputs and starts the reader thread; does not wait for the
  /// first shard (the first NextBatch does).
  static Result<std::unique_ptr<DiskStreamSource>> Open(
      const Schema& schema, std::vector<std::string> shard_paths);

  ~DiskStreamSource() override;

  const Schema& schema() const override { return schema_; }
  Result<int64_t> NextBatch(int64_t max_tuples, StreamBatch* batch) override;

 private:
  DiskStreamSource(const Schema& schema,
                   std::vector<std::string> shard_paths);

  /// Background thread: loads shards one ahead of the consumer and parks
  /// them in the ready slot. This is the blocking-I/O seam -- all disk reads
  /// happen here, never on the consumer thread.
  void ReaderLoop();

  const Schema schema_;
  const std::vector<std::string> shards_;

  Mutex mu_;
  CondVar cv_;
  bool ready_valid_ GUARDED_BY(mu_) = false;
  Dataset ready_ GUARDED_BY(mu_);
  Status reader_status_ GUARDED_BY(mu_);  ///< first shard load failure
  bool reader_done_ GUARDED_BY(mu_) = false;
  bool stop_ GUARDED_BY(mu_) = false;

  // Consumer-thread state: only NextBatch touches these, after the swap
  // under mu_ completes, so they need no lock of their own.
  Dataset current_;    // lint: unguarded(consumer-thread only, see above)
  int64_t current_pos_ = 0;  // lint: unguarded(consumer-thread only)

  std::thread reader_;  // lint: unguarded(set once in Open, joined in dtor)
};

}  // namespace smptree

#endif  // SMPTREE_STREAM_STREAM_SOURCE_H_
