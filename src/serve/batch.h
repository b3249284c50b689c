// Batch: the serving subsystem's unit of work -- a columnar slab of tuples
// to score, reusing the core AttrValue representation (core/records.h) so a
// batch lays out exactly like Dataset columns.
// Batches are built either from the JSON wire format (HTTP predict
// requests) or straight from a Dataset (CLI predict, load generator,
// benchmarks).

#ifndef SMPTREE_SERVE_BATCH_H_
#define SMPTREE_SERVE_BATCH_H_

#include <cstdint>
#include <vector>

#include "core/records.h"
#include "data/dataset.h"
#include "data/schema.h"
#include "serve/json.h"
#include "util/status.h"

namespace smptree {

class Batch {
 public:
  Batch() = default;

  int64_t num_tuples() const { return num_tuples_; }
  int num_attrs() const { return static_cast<int>(columns_.size()); }

  const std::vector<AttrValue>& column(int attr) const {
    return columns_[attr];
  }

  /// Builds a batch from the predict wire format:
  ///   {"tuples": [[v0, v1, ...], ...]}
  /// Each inner array holds one tuple's values in schema attribute order.
  /// Continuous: number, or null for missing. Categorical: value name
  /// (string, resolved through the schema) or integer code; codes are
  /// range-checked against the cardinality.
  static Result<Batch> FromJson(const Schema& schema, const JsonValue& doc);

  /// Copies rows [begin, end) of `data` (labels ignored).
  static Batch FromDataset(const Dataset& data, int64_t begin, int64_t end);

 private:
  std::vector<std::vector<AttrValue>> columns_;  ///< [attr][tuple]
  int64_t num_tuples_ = 0;
};

}  // namespace smptree

#endif  // SMPTREE_SERVE_BATCH_H_
