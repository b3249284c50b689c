#include "stream/shard_io.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>

#include "util/string_util.h"

namespace smptree {

namespace {

constexpr char kMagic[8] = {'s', 'm', 'p', 's', 'h', 'r', 'd', '1'};

}  // namespace

Status WriteBinaryShard(const Dataset& data, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError(StringPrintf("cannot open %s", path.c_str()));
  }
  const int32_t num_attrs = data.num_attrs();
  const int32_t num_classes = data.num_classes();
  const int64_t num_tuples = data.num_tuples();
  out.write(kMagic, sizeof(kMagic));
  out.write(reinterpret_cast<const char*>(&num_attrs), sizeof(num_attrs));
  out.write(reinterpret_cast<const char*>(&num_classes), sizeof(num_classes));
  out.write(reinterpret_cast<const char*>(&num_tuples), sizeof(num_tuples));
  for (int a = 0; a < num_attrs; ++a) {
    const std::span<const AttrValue> col = data.column(a);
    out.write(reinterpret_cast<const char*>(col.data()),
              static_cast<std::streamsize>(col.size() * sizeof(AttrValue)));
  }
  const std::span<const ClassLabel> labels = data.labels();
  out.write(reinterpret_cast<const char*>(labels.data()),
            static_cast<std::streamsize>(labels.size() * sizeof(ClassLabel)));
  if (!out.flush()) {
    return Status::IOError(StringPrintf("write failed for %s", path.c_str()));
  }
  return Status::OK();
}

Result<Dataset> ReadBinaryShard(const Schema& schema,
                                const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError(StringPrintf("cannot open %s", path.c_str()));
  }
  char magic[8];
  int32_t num_attrs = 0;
  int32_t num_classes = 0;
  int64_t num_tuples = 0;
  in.read(magic, sizeof(magic));
  in.read(reinterpret_cast<char*>(&num_attrs), sizeof(num_attrs));
  in.read(reinterpret_cast<char*>(&num_classes), sizeof(num_classes));
  in.read(reinterpret_cast<char*>(&num_tuples), sizeof(num_tuples));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption(
        StringPrintf("%s is not a binary shard (bad magic)", path.c_str()));
  }
  if (num_attrs != schema.num_attrs() ||
      num_classes != schema.num_classes()) {
    return Status::InvalidArgument(StringPrintf(
        "%s has %d attrs x %d classes, schema expects %d x %d", path.c_str(),
        num_attrs, num_classes, schema.num_attrs(), schema.num_classes()));
  }
  if (num_tuples < 0) {
    return Status::Corruption(
        StringPrintf("%s has negative tuple count", path.c_str()));
  }
  // Bound the header's count by the bytes that follow it before sizing
  // anything from it.
  const std::streamoff data_start = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff bytes_left = in.tellg() - data_start;
  in.seekg(data_start);
  const int64_t tuple_bytes =
      static_cast<int64_t>(num_attrs) * static_cast<int64_t>(sizeof(AttrValue)) +
      static_cast<int64_t>(sizeof(ClassLabel));
  if (!in || num_tuples > static_cast<int64_t>(bytes_left) / tuple_bytes) {
    return Status::Corruption(StringPrintf(
        "%s claims %lld tuples but holds %lld bytes after its header",
        path.c_str(), static_cast<long long>(num_tuples),
        static_cast<long long>(bytes_left)));
  }

  Dataset data(schema);
  data.Resize(num_tuples);
  for (int a = 0; a < num_attrs; ++a) {
    in.read(reinterpret_cast<char*>(data.mutable_column(a).data()),
            static_cast<std::streamsize>(num_tuples * sizeof(AttrValue)));
  }
  in.read(reinterpret_cast<char*>(data.mutable_labels().data()),
          static_cast<std::streamsize>(num_tuples * sizeof(ClassLabel)));
  if (!in) {
    return Status::Corruption(
        StringPrintf("%s is truncated", path.c_str()));
  }
  // A non-finite value is InvalidArgument, as from the CSV reader; a code
  // or label out of range is this file's corruption.
  const Status valid = data.Validate();
  if (valid.IsCorruption()) {
    return Status::Corruption(StringPrintf(
        "%s: %s", path.c_str(), std::string(valid.message()).c_str()));
  }
  SMPTREE_RETURN_IF_ERROR(valid);
  return data;
}

}  // namespace smptree
