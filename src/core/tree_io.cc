#include "core/tree_io.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <optional>
#include <sstream>
#include <string_view>

#include "util/string_util.h"

namespace smptree {

namespace {

uint32_t FloatBits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

float BitsFloat(uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

std::string CountsToString(const std::vector<int64_t>& counts) {
  std::string out;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (i) out += ',';
    out += StringPrintf("%lld", static_cast<long long>(counts[i]));
  }
  return out;
}

Status ParseCounts(std::string_view text, int num_classes,
                   std::vector<int64_t>* out) {
  if (std::count(text.begin(), text.end(), ',') + 1 != num_classes) {
    return Status::Corruption("class-count arity mismatch");
  }
  out->clear();
  size_t pos = 0;
  for (int c = 0; c < num_classes; ++c) {
    const size_t comma = std::min(text.find(',', pos), text.size());
    const std::string_view part = text.substr(pos, comma - pos);
    int64_t v = 0;
    if (!ParseInt64(part, &v)) {
      return Status::Corruption("bad count: " + std::string(part));
    }
    out->push_back(v);
    pos = comma + 1;
  }
  return Status::OK();
}

// The ' '-separated fields of one node line, viewed in place; the vector is
// reused across lines so parsing a node allocates nothing here.
struct NodeFields {
  std::vector<std::string_view> tokens;

  void Split(std::string_view line) {
    tokens.clear();
    size_t pos = 0;
    while (true) {
      const size_t space = std::min(line.find(' ', pos), line.size());
      tokens.push_back(line.substr(pos, space - pos));
      if (space == line.size()) return;
      pos = space + 1;
    }
  }

  // Value of the last "key=value" field after the kind and the id.
  std::optional<std::string_view> Find(std::string_view key) const {
    std::optional<std::string_view> value;
    for (size_t i = 2; i < tokens.size(); ++i) {
      const std::string_view t = tokens[i];
      if (t.size() > key.size() && t[key.size()] == '=' &&
          t.substr(0, key.size()) == key) {
        value = t.substr(key.size() + 1);
      }
    }
    return value;
  }
};

}  // namespace

std::string SerializeTree(const DecisionTree& tree) {
  std::ostringstream os;
  os << "tree v1 classes=" << tree.schema().num_classes()
     << " nodes=" << tree.num_nodes() << "\n";
  // Emitted ids are canonical preorder positions, NOT arena ids: parallel
  // builders create structurally identical trees whose arena order depends
  // on scheduling, and the serialized form must be identical for identical
  // trees.
  int64_t next_id = 0;
  std::function<void(NodeId)> emit = [&](NodeId id) {
    const TreeNode& n = tree.node(id);
    const int64_t out_id = next_id++;
    if (n.is_leaf()) {
      os << "L " << out_id << " class=" << n.majority
         << " counts=" << CountsToString(n.class_counts) << "\n";
      return;
    }
    os << "N " << out_id << " attr=" << n.split.attr
       << " cat=" << (n.split.categorical ? 1 : 0);
    if (!n.split.categorical) {
      os << " thr=" << FloatBits(n.split.threshold);
    } else if (n.split.big_subset != nullptr) {
      os << " bigsubset=";
      const auto& words = *n.split.big_subset;
      for (size_t w = 0; w < words.size(); ++w) {
        if (w) os << ":";
        os << words[w];
      }
    } else {
      os << " subset=" << n.split.subset;
    }
    os << " counts=" << CountsToString(n.class_counts) << "\n";
    emit(n.left);
    emit(n.right);
  };
  if (tree.num_nodes() > 0) emit(tree.root());
  return os.str();
}

Result<DecisionTree> DeserializeTree(const Schema& schema,
                                     std::string_view text) {
  size_t pos = 0;
  std::string_view line;
  if (!NextLine(text, &pos, &line) || !line.starts_with("tree v1 ")) {
    return Status::Corruption("missing tree header");
  }

  DecisionTree tree(schema);
  ClassHistogram hist(schema.num_classes());
  std::vector<int64_t> counts;
  NodeFields fields;

  // Preorder reconstruction with an explicit stack of nodes awaiting
  // children: (node id, which side comes next).
  struct Pending {
    NodeId id;
    int filled = 0;  // 0 -> expect left, 1 -> expect right
  };
  std::vector<Pending> stack;
  bool have_root = false;

  auto attach = [&](const ClassHistogram& h, bool* is_root,
                    NodeId* out) -> Status {
    if (!have_root) {
      *out = tree.CreateRoot(h);
      have_root = true;
      *is_root = true;
      return Status::OK();
    }
    if (stack.empty()) return Status::Corruption("dangling node");
    Pending& top = stack.back();
    *out = tree.AddChild(top.id, top.filled == 0, h);
    if (++top.filled == 2) stack.pop_back();
    *is_root = false;
    return Status::OK();
  };

  while (NextLine(text, &pos, &line)) {
    const std::string_view trimmed = TrimWhitespace(line);
    if (trimmed.empty()) continue;
    fields.Split(trimmed);
    const std::vector<std::string_view>& tokens = fields.tokens;
    const auto corrupt = [&line](const char* what) {
      return Status::Corruption(what + std::string(line));
    };
    if (tokens.size() < 3) return corrupt("short line: ");
    const auto counts_text = fields.Find("counts");
    if (!counts_text) return corrupt("missing counts: ");
    SMPTREE_RETURN_IF_ERROR(
        ParseCounts(*counts_text, schema.num_classes(), &counts));
    hist.Reset(schema.num_classes());
    for (size_t c = 0; c < counts.size(); ++c) {
      hist.Add(static_cast<ClassLabel>(c), counts[c]);
    }

    bool is_root = false;
    NodeId id = kInvalidNode;
    SMPTREE_RETURN_IF_ERROR(attach(hist, &is_root, &id));

    if (tokens[0] == "L") {
      int64_t cls = 0;
      const auto cls_text = fields.Find("class");
      if (!cls_text || !ParseInt64(*cls_text, &cls) || cls < 0 ||
          cls >= schema.num_classes()) {
        return corrupt("bad leaf class: ");
      }
      tree.mutable_node(id).majority = static_cast<ClassLabel>(cls);
    } else if (tokens[0] == "N") {
      SplitTest test;
      int64_t attr = 0;
      int64_t cat = 0;
      const auto attr_text = fields.Find("attr");
      const auto cat_text = fields.Find("cat");
      if (!attr_text || !cat_text || !ParseInt64(*attr_text, &attr) ||
          !ParseInt64(*cat_text, &cat) || attr < 0 ||
          attr >= schema.num_attrs()) {
        return corrupt("bad node attrs: ");
      }
      test.attr = static_cast<int32_t>(attr);
      test.categorical = cat != 0;
      if (test.categorical) {
        const auto big_text = fields.Find("bigsubset");
        if (big_text) {
          std::vector<uint64_t> words;
          for (const auto& part : SplitString(*big_text, ':')) {
            uint64_t w = 0;
            if (!ParseUint64(part, &w)) return corrupt("bad bigsubset: ");
            words.push_back(w);
          }
          if (words.empty()) return corrupt("empty bigsubset: ");
          test.big_subset =
              std::make_shared<const std::vector<uint64_t>>(std::move(words));
        } else {
          uint64_t subset = 0;
          const auto subset_text = fields.Find("subset");
          if (!subset_text || !ParseUint64(*subset_text, &subset)) {
            return corrupt("bad subset: ");
          }
          test.subset = subset;
        }
      } else {
        int64_t bits = 0;
        const auto thr_text = fields.Find("thr");
        if (!thr_text || !ParseInt64(*thr_text, &bits)) {
          return corrupt("bad threshold: ");
        }
        test.threshold = BitsFloat(static_cast<uint32_t>(bits));
      }
      tree.SetSplit(id, test);
      stack.push_back(Pending{id, 0});
    } else {
      return Status::Corruption("unknown line kind: " +
                                std::string(tokens[0]));
    }
  }
  if (!have_root) return Status::Corruption("empty tree body");
  if (!stack.empty()) return Status::Corruption("tree body truncated");
  return tree;
}

bool TreesEqual(const DecisionTree& a, const DecisionTree& b) {
  std::function<bool(NodeId, NodeId)> eq = [&](NodeId x, NodeId y) {
    const TreeNode& nx = a.node(x);
    const TreeNode& ny = b.node(y);
    if (nx.is_leaf() != ny.is_leaf()) return false;
    if (nx.class_counts != ny.class_counts) return false;
    if (nx.is_leaf()) return nx.majority == ny.majority;
    if (!(nx.split == ny.split)) return false;
    return eq(nx.left, ny.left) && eq(nx.right, ny.right);
  };
  if ((a.num_nodes() == 0) != (b.num_nodes() == 0)) return false;
  if (a.num_nodes() == 0) return true;
  return eq(a.root(), b.root());
}

}  // namespace smptree
