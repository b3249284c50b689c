#include "core/presort.h"

#include <array>
#include <bit>
#include <cstdint>
#include <limits>

#include "parallel/scheduler.h"
#include "util/timer.h"

namespace smptree {

namespace {

// Maps a float to a key whose unsigned order is the float's numeric order:
// a non-negative float gets its sign bit set, a negative one has every bit
// inverted. -0.0f takes +0.0f's key because the two compare equal, so
// their records keep tid order. Non-finite values never get here
// (Dataset::Append rejects them).
inline uint32_t SortKey(float value) {
  uint32_t bits = std::bit_cast<uint32_t>(value);
  if (bits == 0x80000000u) bits = 0;
  return (bits & 0x80000000u) != 0 ? ~bits : bits | 0x80000000u;
}

constexpr int kDigitBits = 11;
constexpr int kPasses = 3;  // 11 + 11 + 10 key bits
constexpr uint32_t kDigitMask = (1u << kDigitBits) - 1;

inline uint32_t Digit(uint32_t key, int pass) {
  return (key >> (pass * kDigitBits)) & kDigitMask;
}

// Stable LSD radix sort of one continuous list by SortKey. The setup phase
// leaves every list in tid order and each pass is stable, so the result is
// ContinuousRecordLess's (value, tid) order. One histogram pass counts all
// three digits; a pass whose digit is the same in every record moves
// nothing and is skipped. `scratch` must have capacity for the list; the
// two swap buffers, so either may come back holding the sorted records.
void RadixSortByValue(std::vector<AttrRecord>* list,
                      std::vector<AttrRecord>* scratch) {
  const uint32_t n = static_cast<uint32_t>(list->size());
  std::array<std::array<uint32_t, kDigitMask + 1>, kPasses> counts{};
  for (const AttrRecord& rec : *list) {
    const uint32_t key = SortKey(rec.value.f);
    for (int pass = 0; pass < kPasses; ++pass) ++counts[pass][Digit(key, pass)];
  }
  const uint32_t first_key = SortKey((*list)[0].value.f);
  for (int pass = 0; pass < kPasses; ++pass) {
    auto& offset = counts[pass];
    if (offset[Digit(first_key, pass)] == n) continue;
    uint32_t sum = 0;
    for (uint32_t& c : offset) {
      const uint32_t count = c;
      c = sum;
      sum += count;
    }
    scratch->resize(n);
    AttrRecord* out = scratch->data();
    for (const AttrRecord& rec : *list) {
      out[offset[Digit(SortKey(rec.value.f), pass)]++] = rec;
    }
    list->swap(*scratch);
  }
}

}  // namespace

Result<AttributeLists> BuildAttributeLists(const Dataset& data,
                                           int sort_threads) {
  if (data.num_tuples() == 0) {
    return Status::InvalidArgument("empty training set");
  }
  if (data.num_tuples() >
      static_cast<int64_t>(std::numeric_limits<Tid>::max())) {
    return Status::InvalidArgument("training set exceeds 32-bit tid space");
  }

  AttributeLists out;
  Timer timer;

  // Setup phase: materialize (value, class, tid) records per attribute.
  // Attributes are independent columns, so the materialization loop uses
  // the same per-attribute dynamic scheduling as the sort phase below.
  //
  // Both phases allocate every buffer here, on the calling thread, so the
  // helper threads never call malloc. A helper that does takes a glibc
  // arena of its own and churns it; the builder threads started next
  // inherit those arenas, and a traced MWK build then ran ~20% slower.
  const int num_attrs = data.num_attrs();
  const int64_t n = data.num_tuples();
  out.lists.resize(num_attrs);
  for (auto& list : out.lists) list.reserve(n);
  ParallelFor(sort_threads, num_attrs, [&](int64_t a, int) {
    auto& list = out.lists[a];
    list.resize(n);
    const auto column = data.column(static_cast<int>(a));
    const auto labels = data.labels();
    for (int64_t t = 0; t < n; ++t) {
      list[t].value = column[t];
      list[t].tid = static_cast<Tid>(t);
      list[t].label = labels[t];
      list[t].unused = 0;
    }
  });
  out.setup_seconds = timer.Seconds();

  // Sort phase: continuous lists only; categorical lists stay unsorted.
  timer.Start();
  std::vector<int> continuous;
  for (int a = 0; a < num_attrs; ++a) {
    if (!data.schema().attr(a).is_categorical()) continuous.push_back(a);
  }
  const auto num_continuous = static_cast<int64_t>(continuous.size());
  std::vector<std::vector<AttrRecord>> scratch(
      ParallelForWorkers(sort_threads, num_continuous));
  for (auto& buffer : scratch) buffer.reserve(n);
  ParallelFor(sort_threads, num_continuous, [&](int64_t i, int worker) {
    RadixSortByValue(&out.lists[continuous[i]], &scratch[worker]);
  });
  out.sort_seconds = timer.Seconds();
  return out;
}

}  // namespace smptree
