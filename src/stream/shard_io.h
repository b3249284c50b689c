// Fixed-width binary shard format for streaming sources: a whole Dataset
// written column-major as raw little-endian-native bytes, so a disk stream
// can page shards in with one sequential read per column and no per-value
// parsing (the CSV path stays available for interchange; this format is
// scratch/throughput storage local to one machine, like the attribute-list
// files in core/).
//
// Layout: 8-byte magic "smpshrd1", int32 num_attrs, int32 num_classes,
// int64 num_tuples, then each attribute column as num_tuples * 4 raw
// AttrValue bytes, then the label column as num_tuples * 2 bytes.

#ifndef SMPTREE_STREAM_SHARD_IO_H_
#define SMPTREE_STREAM_SHARD_IO_H_

#include <string>

#include "data/dataset.h"
#include "util/status.h"

namespace smptree {

/// Writes `data` as one binary shard at `path` (real filesystem).
Status WriteBinaryShard(const Dataset& data, const std::string& path);

/// Reads a shard written by WriteBinaryShard straight into the columns of
/// the returned Dataset. The header's attribute and class counts are
/// validated against `schema`, and the values by Dataset::Validate: a
/// non-finite continuous value is InvalidArgument, a categorical code or
/// label out of range is Corruption naming the file.
Result<Dataset> ReadBinaryShard(const Schema& schema, const std::string& path);

}  // namespace smptree

#endif  // SMPTREE_STREAM_SHARD_IO_H_
