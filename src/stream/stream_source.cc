#include "stream/stream_source.h"

#include <utility>

#include "data/csv.h"
#include "stream/shard_io.h"
#include "util/string_util.h"

namespace smptree {

namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Empties `batch` for a refill under `schema`, keeping its capacity unless
/// it last held another schema.
void ClearBatch(const Schema& schema, StreamBatch* batch) {
  if (!SchemasCompatible(batch->schema(), schema)) *batch = StreamBatch(schema);
  batch->Clear();
}

}  // namespace

// ------------------------------------------------------- SyntheticStream

SyntheticStreamSource::SyntheticStreamSource(const SyntheticConfig& config)
    : schema_(SyntheticSchema(config.num_attrs)),
      function_(config.function),
      label_noise_(config.label_noise),
      limit_(config.num_tuples),
      rng_(config.seed) {}

Result<int64_t> SyntheticStreamSource::NextBatch(int64_t max_tuples,
                                                 StreamBatch* batch) {
  ClearBatch(schema_, batch);
  if (function_ < 1 || function_ > NumSyntheticFunctions()) {
    return Status::InvalidArgument(StringPrintf(
        "classification function %d outside 1..10", function_));
  }
  int64_t want = max_tuples;
  if (limit_ > 0) want = std::min(want, limit_ - emitted_);
  if (want <= 0) return int64_t{0};
  AppendSynthetic(function_, label_noise_, want, &rng_, batch);
  emitted_ += want;
  return want;
}

// ------------------------------------------------------------ DiskStream

Result<std::unique_ptr<DiskStreamSource>> DiskStreamSource::Open(
    const Schema& schema, std::vector<std::string> shard_paths) {
  SMPTREE_RETURN_IF_ERROR(schema.Validate());
  if (shard_paths.empty()) {
    return Status::InvalidArgument("no shard paths");
  }
  // No I/O here: missing files surface as a reader_status_ from the first
  // NextBatch, keeping Open non-blocking.
  return std::unique_ptr<DiskStreamSource>(
      new DiskStreamSource(schema, std::move(shard_paths)));
}

DiskStreamSource::DiskStreamSource(const Schema& schema,
                                   std::vector<std::string> shard_paths)
    : schema_(schema), shards_(std::move(shard_paths)) {
  reader_ = std::thread([this] { ReaderLoop(); });
}

DiskStreamSource::~DiskStreamSource() {
  {
    MutexLock lock(mu_);
    stop_ = true;
    cv_.NotifyAll();
  }
  if (reader_.joinable()) reader_.join();
}

void DiskStreamSource::ReaderLoop() {
  for (const std::string& path : shards_) {
    {
      MutexLock lock(mu_);
      if (stop_) return;
    }
    // Blocking load, deliberately outside the lock: the consumer keeps
    // draining the previous shard while this one reads.
    Result<Dataset> shard = EndsWith(path, ".csv")
                                ? ReadCsv(schema_, path)
                                : ReadBinaryShard(schema_, path);
    MutexLock lock(mu_);
    if (!shard.ok()) {
      reader_status_ = shard.status();
      reader_done_ = true;
      cv_.NotifyAll();
      return;
    }
    while (ready_valid_ && !stop_) cv_.Wait(mu_);
    if (stop_) return;
    ready_ = std::move(*shard);
    ready_valid_ = true;
    cv_.NotifyAll();
  }
  MutexLock lock(mu_);
  reader_done_ = true;
  cv_.NotifyAll();
}

Result<int64_t> DiskStreamSource::NextBatch(int64_t max_tuples,
                                            StreamBatch* batch) {
  ClearBatch(schema_, batch);
  int64_t delivered = 0;
  while (delivered < max_tuples) {
    if (current_pos_ >= current_.num_tuples()) {
      // Swap in the prefetched shard (waits only if the consumer outran the
      // reader).
      MutexLock lock(mu_);
      while (!ready_valid_ && !reader_done_) cv_.Wait(mu_);
      if (!ready_valid_) {
        // No more shards are coming. Surface the sticky reader error only
        // after everything already read has been delivered (the reader may
        // have failed on shard N+1 while shard N was still in flight), so
        // no tuples are silently dropped.
        if (reader_status_.ok() || delivered > 0) break;
        return reader_status_;
      }
      current_ = std::move(ready_);
      ready_valid_ = false;
      current_pos_ = 0;
      cv_.NotifyAll();  // free the slot for the next read-ahead
      continue;
    }
    const int64_t take = std::min(max_tuples - delivered,
                                  current_.num_tuples() - current_pos_);
    batch->AppendRange(current_, current_pos_, current_pos_ + take);
    current_pos_ += take;
    delivered += take;
  }
  return delivered;
}

}  // namespace smptree
