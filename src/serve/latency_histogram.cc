#include "serve/latency_histogram.h"

#include <algorithm>

#include "util/string_util.h"

namespace smptree {
namespace {

std::string FormatNanos(uint64_t nanos) {
  if (nanos >= 1000000000ull) {
    return StringPrintf("%.2fs", static_cast<double>(nanos) / 1e9);
  }
  if (nanos >= 1000000ull) {
    return StringPrintf("%.2fms", static_cast<double>(nanos) / 1e6);
  }
  if (nanos >= 1000ull) {
    return StringPrintf("%.2fus", static_cast<double>(nanos) / 1e3);
  }
  return StringPrintf("%lluns", static_cast<unsigned long long>(nanos));
}

}  // namespace

uint64_t LatencyHistogram::QuantileNanos(double q) const {
  const uint64_t n = count();
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the sample we want, 1-based; q=1 selects the last sample.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(q * static_cast<double>(n) + 0.5));
  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen >= rank) {
      // Upper edge of bucket b: 2^(b+1) - 1 (bucket 0 holds 0..1ns).
      return b >= 63 ? ~0ull : (uint64_t{2} << b) - 1;
    }
  }
  return ~0ull;
}

std::string LatencyHistogram::ToAscii() const {
  uint64_t max_bucket = 0;
  int first = kBuckets, last = -1;
  for (int b = 0; b < kBuckets; ++b) {
    const uint64_t c = buckets_[b].load(std::memory_order_relaxed);
    if (c == 0) continue;
    max_bucket = std::max(max_bucket, c);
    first = std::min(first, b);
    last = std::max(last, b);
  }
  if (last < 0) return "(no samples)\n";
  std::string out;
  for (int b = first; b <= last; ++b) {
    const uint64_t c = buckets_[b].load(std::memory_order_relaxed);
    const int width = max_bucket == 0
                          ? 0
                          : static_cast<int>(40.0 * static_cast<double>(c) /
                                             static_cast<double>(max_bucket));
    out += StringPrintf("%10s..%-10s %8llu |%s\n",
                        FormatNanos(b == 0 ? 0 : uint64_t{1} << b).c_str(),
                        FormatNanos((uint64_t{2} << b) - 1).c_str(),
                        static_cast<unsigned long long>(c),
                        std::string(static_cast<size_t>(width), '#').c_str());
  }
  return out;
}

}  // namespace smptree
