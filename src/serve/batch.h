// Batch: the serving subsystem's unit of work -- a ColumnBlock of tuples to
// score (data/dataset.h, the layout Dataset and StreamBatch share) plus the
// decoder for the JSON wire format that HTTP predict requests carry. Code
// that scores a Dataset passes its block() straight to the scorer, so no
// copy is made to score one.

#ifndef SMPTREE_SERVE_BATCH_H_
#define SMPTREE_SERVE_BATCH_H_

#include "data/dataset.h"
#include "data/schema.h"
#include "serve/json.h"
#include "util/status.h"

namespace smptree {

class Batch : public ColumnBlock {
 public:
  using ColumnBlock::ColumnBlock;

  /// Builds a batch from the predict wire format:
  ///   {"tuples": [[v0, v1, ...], ...]}
  /// Each inner array holds one tuple's values in schema attribute order.
  /// Continuous: number, or null for missing. Categorical: value name
  /// (string, resolved through the schema) or integer code; codes are
  /// range-checked against the cardinality.
  static Result<Batch> FromJson(const Schema& schema, const JsonValue& doc);
};

}  // namespace smptree

#endif  // SMPTREE_SERVE_BATCH_H_
