#include "ensemble/forest_io.h"

#include <cstdio>
#include <string>
#include <string_view>
#include <utility>

#include "core/tree_io.h"
#include "util/string_util.h"

namespace smptree {

namespace {

constexpr char kForestHeaderPrefix[] = "forest v1 trees=";
constexpr char kTreeHeaderPrefix[] = "tree v1 ";
constexpr char kForestTrailer[] = "end forest";

}  // namespace

std::string SerializeForest(const Forest& forest) {
  std::string out = StringPrintf("forest v1 trees=%d\n", forest.num_trees());
  for (int i = 0; i < forest.num_trees(); ++i) {
    out += SerializeTree(forest.tree(i));
  }
  out += kForestTrailer;
  out += '\n';
  return out;
}

Result<Forest> DeserializeForest(const Schema& schema,
                                 const std::string& text) {
  size_t pos = 0;
  std::string_view view;
  if (!NextLine(text, &pos, &view) || !view.starts_with(kForestHeaderPrefix)) {
    return Status::InvalidArgument("not a forest file (bad header)");
  }
  std::string line(view);
  int declared_trees = 0;
  if (std::sscanf(line.c_str() + sizeof(kForestHeaderPrefix) - 1, "%d",
                  &declared_trees) != 1 ||
      declared_trees < 1) {
    return Status::InvalidArgument(
        StringPrintf("bad forest tree count in header: '%s'", line.c_str()));
  }

  Forest forest(schema);
  for (int i = 0; i < declared_trees; ++i) {
    const size_t member_at = pos;
    if (!NextLine(text, &pos, &view)) {
      return Status::Corruption(StringPrintf(
          "forest truncated: header declares %d trees, found %d",
          declared_trees, i));
    }
    line = view;
    if (!view.starts_with(kTreeHeaderPrefix)) {
      return Status::Corruption(StringPrintf(
          "member %d: expected tree header, got '%s'", i, line.c_str()));
    }
    // The member's own header carries its node count; hand tree_io exactly
    // that many node lines, in place, as one complete record.
    const size_t nodes_at = line.find("nodes=");
    long long num_nodes = 0;
    if (nodes_at == std::string::npos ||
        std::sscanf(line.c_str() + nodes_at + 6, "%lld", &num_nodes) != 1 ||
        num_nodes < 1) {
      return Status::Corruption(StringPrintf(
          "member %d: bad node count in '%s'", i, line.c_str()));
    }
    for (long long n = 0; n < num_nodes; ++n) {
      if (!NextLine(text, &pos, &view)) {
        return Status::Corruption(StringPrintf(
            "member %d truncated: %lld of %lld node lines", i, n, num_nodes));
      }
    }
    const std::string_view member =
        std::string_view(text).substr(member_at, pos - member_at);
    Result<DecisionTree> tree = DeserializeTree(schema, member);
    if (!tree.ok()) {
      return Status::Corruption(StringPrintf(
          "member %d: %s", i, tree.status().ToString().c_str()));
    }
    SMPTREE_RETURN_IF_ERROR(tree->Validate());
    SMPTREE_RETURN_IF_ERROR(forest.AddTree(std::move(*tree)));
  }

  if (!NextLine(text, &pos, &view) || view != kForestTrailer) {
    return Status::Corruption(
        "forest truncated: missing 'end forest' trailer");
  }
  SMPTREE_RETURN_IF_ERROR(forest.Validate());
  return forest;
}

bool ForestsEqual(const Forest& a, const Forest& b) {
  if (a.num_trees() != b.num_trees()) return false;
  for (int i = 0; i < a.num_trees(); ++i) {
    if (!TreesEqual(a.tree(i), b.tree(i))) return false;
  }
  return true;
}

}  // namespace smptree
