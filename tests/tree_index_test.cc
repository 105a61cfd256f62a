#include "tree/tree_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "tree/builder.h"
#include "tree/tree.h"

namespace treediff {
namespace {

Tree Parse(const char* sexpr,
           std::shared_ptr<LabelTable> labels = nullptr) {
  if (labels == nullptr) labels = std::make_shared<LabelTable>();
  auto tree = ParseSexpr(sexpr, labels);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return std::move(*tree);
}

constexpr const char* kDoc =
    "(D (P (S \"the quick fox\") (S \"jumps\")) (P (S \"over\") (F (S "
    "\"the\") (S \"lazy dog\"))) (E))";

TEST(TreeIndexTest, OrdersMatchTreeTraversals) {
  Tree t = Parse(kDoc);
  TreeIndex index(t);
  EXPECT_EQ(index.PreOrder(), t.PreOrder());
  EXPECT_EQ(index.PostOrder(), t.PostOrder());
  EXPECT_EQ(index.BfsOrder(), t.BfsOrder());
  EXPECT_EQ(index.Leaves(), t.Leaves());
}

TEST(TreeIndexTest, ScalarsMatchTreeDerivedStructure) {
  Tree t = Parse(kDoc);
  TreeIndex index(t);
  const std::vector<int> leaf_counts = t.LeafCounts();
  for (NodeId x = 0; x < static_cast<NodeId>(t.id_bound()); ++x) {
    EXPECT_EQ(index.LeafCount(x), leaf_counts[static_cast<size_t>(x)]) << x;
  }
  for (NodeId x : t.PreOrder()) {
    // SubtreeSize equals the number of preorder descendants (self included).
    int size = 0;
    for (NodeId y : t.PreOrder()) {
      if (t.IsAncestorOrSelf(x, y)) ++size;
    }
    EXPECT_EQ(index.SubtreeSize(x), size) << x;
    EXPECT_EQ(index.ValueHash(x), HashValueBytes(t.value(x))) << x;
    // ChildIndex agrees with a manual sibling scan.
    if (x == t.root()) {
      EXPECT_EQ(index.ChildIndex(x), -1);
    } else {
      const auto& sibs = t.children(t.parent(x));
      const auto it = std::find(sibs.begin(), sibs.end(), x);
      EXPECT_EQ(index.ChildIndex(x),
                static_cast<int>(std::distance(sibs.begin(), it)));
    }
  }
}

TEST(TreeIndexTest, ContainsMatchesIsAncestorOrSelf) {
  Tree t = Parse(kDoc);
  TreeIndex index(t);
  for (NodeId a : t.PreOrder()) {
    for (NodeId b : t.PreOrder()) {
      EXPECT_EQ(index.Contains(a, b), t.IsAncestorOrSelf(a, b))
          << a << " vs " << b;
    }
  }
}

TEST(TreeIndexTest, LeafRangesSliceTheLeafSequence) {
  Tree t = Parse(kDoc);
  TreeIndex index(t);
  const std::vector<NodeId>& leaves = index.Leaves();
  for (NodeId x : t.PreOrder()) {
    std::vector<NodeId> expected;
    for (NodeId w : t.Leaves()) {
      if (t.IsAncestorOrSelf(x, w)) expected.push_back(w);
    }
    const std::vector<NodeId> got(
        leaves.begin() + index.LeafRangeBegin(x),
        leaves.begin() + index.LeafRangeEnd(x));
    EXPECT_EQ(got, expected) << x;
  }
}

TEST(TreeIndexTest, ChainsAreDocumentOrderPerLabelAndKind) {
  Tree t = Parse(kDoc);
  TreeIndex index(t);
  std::map<LabelId, std::vector<NodeId>> leaf_chains, internal_chains;
  for (NodeId x : t.PreOrder()) {
    (t.IsLeaf(x) ? leaf_chains : internal_chains)[t.label(x)].push_back(x);
  }
  EXPECT_EQ(index.LeafChains(), leaf_chains);
  EXPECT_EQ(index.InternalChains(), internal_chains);
  // Missing labels yield empty chains.
  const LabelId unused = t.InternLabel("Zz");
  EXPECT_TRUE(index.LeafChain(unused).empty());
  EXPECT_TRUE(index.InternalChain(unused).empty());
}

TEST(TreeIndexTest, SubtreeHashesDistinguishContentAndAgreeOnTwins) {
  auto labels = std::make_shared<LabelTable>();
  Tree t = Parse("(D (P (S \"a\") (S \"b\")) (P (S \"a\") (S \"b\")) "
                 "(P (S \"a\") (S \"c\")))",
                 labels);
  TreeIndex index(t);
  const auto& kids = t.children(t.root());
  // Identical subtrees fingerprint identically; a one-leaf difference
  // changes the fingerprint all the way up.
  EXPECT_EQ(index.SubtreeHash(kids[0]), index.SubtreeHash(kids[1]));
  EXPECT_NE(index.SubtreeHash(kids[0]), index.SubtreeHash(kids[2]));
  // Fingerprints are cross-tree comparable (deterministic hash).
  Tree u = Parse("(P (S \"a\") (S \"b\"))", labels);
  TreeIndex uindex(u);
  EXPECT_EQ(uindex.SubtreeHash(u.root()), index.SubtreeHash(kids[0]));
}

TEST(TreeIndexTest, NodeValueHashWithAndWithoutIndex) {
  Tree t = Parse("(S \"some value\")");
  const uint64_t bare = NodeValueHash(t, t.root());
  {
    TreeIndex index(t);
    EXPECT_EQ(t.attached_index(), &index);
    EXPECT_EQ(NodeValueHash(t, t.root()), bare);
  }
  EXPECT_EQ(t.attached_index(), nullptr);
  EXPECT_EQ(NodeValueHash(t, t.root()), HashValueBytes("some value"));
}

TEST(TreeIndexTest, TreeChildIndexUsesAttachedIndex) {
  Tree t = Parse(kDoc);
  std::vector<int> bare;
  for (NodeId x : t.PreOrder()) bare.push_back(t.ChildIndex(x));
  TreeIndex index(t);
  std::vector<int> indexed;
  for (NodeId x : t.PreOrder()) indexed.push_back(t.ChildIndex(x));
  EXPECT_EQ(indexed, bare);
}

TEST(TreeIndexTest, DetachesWhenTreeIsMovedFrom) {
  Tree t = Parse(kDoc);
  TreeIndex index(t);
  ASSERT_TRUE(index.attached());
  Tree stolen = std::move(t);
  EXPECT_FALSE(index.attached());
  EXPECT_EQ(stolen.attached_index(), nullptr);
}

TEST(TreeIndexTest, CopiesDoNotCarryTheIndex) {
  Tree t = Parse(kDoc);
  TreeIndex index(t);
  Tree copy = t;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(copy.attached_index(), nullptr);
  EXPECT_EQ(t.attached_index(), &index);
}

TEST(TreeIndexTest, SingleNodeTree) {
  Tree t = Parse("(S \"x\")");
  TreeIndex index(t);
  EXPECT_EQ(index.SubtreeSize(t.root()), 1);
  EXPECT_EQ(index.LeafCount(t.root()), 1);
  EXPECT_EQ(index.ChildIndex(t.root()), -1);
  EXPECT_EQ(index.PreOrder(), std::vector<NodeId>{t.root()});
  EXPECT_EQ(index.BfsOrder(), std::vector<NodeId>{t.root()});
  EXPECT_EQ(index.Leaves(), std::vector<NodeId>{t.root()});
  EXPECT_TRUE(index.Contains(t.root(), t.root()));
}

}  // namespace
}  // namespace treediff
