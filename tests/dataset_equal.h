// Test helper: byte-level equality of two datasets' columns and labels, the
// check the column-block oracles make against their row-wise references.

#ifndef SMPTREE_TESTS_DATASET_EQUAL_H_
#define SMPTREE_TESTS_DATASET_EQUAL_H_

#include <gtest/gtest.h>

#include <cstring>

#include "data/dataset.h"

namespace smptree {

/// Expects `got` and `want` to hold the same tuples: equal counts and
/// byte-identical attribute columns and label columns.
inline void ExpectSameTuples(const Dataset& got, const Dataset& want) {
  ASSERT_EQ(got.num_tuples(), want.num_tuples());
  ASSERT_EQ(got.num_attrs(), want.num_attrs());
  const size_t n = static_cast<size_t>(want.num_tuples());
  if (n == 0) return;
  for (int a = 0; a < want.num_attrs(); ++a) {
    EXPECT_EQ(std::memcmp(got.column(a).data(), want.column(a).data(),
                          n * sizeof(AttrValue)),
              0)
        << "attribute " << a;
  }
  EXPECT_EQ(std::memcmp(got.labels().data(), want.labels().data(),
                        n * sizeof(ClassLabel)),
            0)
      << "labels";
}

}  // namespace smptree

#endif  // SMPTREE_TESTS_DATASET_EQUAL_H_
