// Text serialization of decision trees: a stable, line-oriented format that
// round-trips exactly (used to persist models and by the equivalence tests).
//
// Format (one node per line, preorder):
//   tree v1 classes=<k> nodes=<n>
//   N <id> split attr=<a> cat=<0|1> thr=<bits>|subset=<mask> counts=<c0,c1,..>
//   L <id> class=<label> counts=<c0,c1,..>
// Continuous thresholds are written as raw float bits so parsing is exact.

#ifndef SMPTREE_CORE_TREE_IO_H_
#define SMPTREE_CORE_TREE_IO_H_

#include <string>
#include <string_view>

#include "core/tree.h"
#include "util/status.h"

namespace smptree {

/// Serializes `tree` to the text format above.
std::string SerializeTree(const DecisionTree& tree);

/// Parses a tree serialized by SerializeTree. The schema must match the one
/// the tree was built against (attribute indices are not re-validated beyond
/// range checks).
Result<DecisionTree> DeserializeTree(const Schema& schema,
                                     std::string_view text);

/// Structural equality: same shape, same split tests, same leaf classes.
/// Class-count vectors must match too.
bool TreesEqual(const DecisionTree& a, const DecisionTree& b);

}  // namespace smptree

#endif  // SMPTREE_CORE_TREE_IO_H_
