#include "core/presort.h"

#include <algorithm>

#include "parallel/scheduler.h"
#include "util/timer.h"

namespace smptree {

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
  const int num_attrs = data.num_attrs();
  const int64_t n = data.num_tuples();
  out.lists.resize(num_attrs);
  ParallelFor(sort_threads, num_attrs, [&](int64_t a) {
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
  ParallelFor(sort_threads, static_cast<int64_t>(continuous.size()),
              [&](int64_t i) {
    std::sort(out.lists[continuous[i]].begin(),
              out.lists[continuous[i]].end(), ContinuousRecordLess());
  });
  out.sort_seconds = timer.Seconds();
  return out;
}

}  // namespace smptree
