#include "tree/tree.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "tree/tree_index.h"

namespace treediff {
namespace {

/// The children of `x` as a vector, for comparisons.
std::vector<NodeId> Kids(const Tree& t, NodeId x) {
  const std::span<const NodeId> kids = t.children(x);
  return {kids.begin(), kids.end()};
}

/// Builds the paper's Figure 3 initial tree:
///   1(D) -> 2(P) -> {6(S,"a"), 7(S,"b")} ; 3(S,"c") ; ... simplified here
/// For unit tests we use a small document-like tree.
class TreeTest : public ::testing::Test {
 protected:
  TreeTest() : tree_(std::make_shared<LabelTable>()) {
    d_ = tree_.AddRoot("D");
    p1_ = tree_.AddChild(d_, "P");
    p2_ = tree_.AddChild(d_, "P");
    s1_ = tree_.AddChild(p1_, "S", "a");
    s2_ = tree_.AddChild(p1_, "S", "b");
    s3_ = tree_.AddChild(p2_, "S", "c");
  }

  Tree tree_;
  NodeId d_ = kInvalidNode, p1_ = kInvalidNode, p2_ = kInvalidNode;
  NodeId s1_ = kInvalidNode, s2_ = kInvalidNode, s3_ = kInvalidNode;
};

TEST_F(TreeTest, BasicAccessors) {
  EXPECT_EQ(tree_.size(), 6u);
  EXPECT_EQ(tree_.root(), d_);
  EXPECT_EQ(tree_.parent(p1_), d_);
  EXPECT_EQ(tree_.parent(d_), kInvalidNode);
  EXPECT_EQ(tree_.value(s1_), "a");
  EXPECT_EQ(tree_.label_name(s1_), "S");
  EXPECT_TRUE(tree_.IsLeaf(s1_));
  EXPECT_FALSE(tree_.IsLeaf(p1_));
  EXPECT_EQ(Kids(tree_, p1_), (std::vector<NodeId>{s1_, s2_}));
  EXPECT_TRUE(tree_.Validate().ok());
}

TEST_F(TreeTest, ChildIndex) {
  EXPECT_EQ(tree_.ChildIndex(d_), -1);
  EXPECT_EQ(tree_.ChildIndex(p1_), 0);
  EXPECT_EQ(tree_.ChildIndex(p2_), 1);
  EXPECT_EQ(tree_.ChildIndex(s2_), 1);
}

TEST_F(TreeTest, AncestorOrSelf) {
  EXPECT_TRUE(tree_.IsAncestorOrSelf(d_, s3_));
  EXPECT_TRUE(tree_.IsAncestorOrSelf(s3_, s3_));
  EXPECT_FALSE(tree_.IsAncestorOrSelf(p1_, s3_));
  EXPECT_FALSE(tree_.IsAncestorOrSelf(s1_, p1_));
}

TEST_F(TreeTest, InsertLeafAtEveryPosition) {
  // Insert as 1st, middle, and last child.
  StatusOr<NodeId> front = tree_.InsertLeaf(tree_.InternLabel("S"), "x", p1_, 1);
  ASSERT_TRUE(front.ok());
  EXPECT_EQ(Kids(tree_, p1_), (std::vector<NodeId>{*front, s1_, s2_}));
  StatusOr<NodeId> back = tree_.InsertLeaf(tree_.InternLabel("S"), "y", p1_, 4);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(tree_.children(p1_).back(), *back);
  EXPECT_TRUE(tree_.Validate().ok());
}

TEST_F(TreeTest, InsertLeafRejectsBadPosition) {
  EXPECT_EQ(tree_.InsertLeaf(0, "v", p1_, 0).status().code(),
            Code::kOutOfRange);
  EXPECT_EQ(tree_.InsertLeaf(0, "v", p1_, 4).status().code(),
            Code::kOutOfRange);
}

TEST_F(TreeTest, DeleteLeafDetachesNode) {
  ASSERT_TRUE(tree_.DeleteLeaf(s2_).ok());
  EXPECT_FALSE(tree_.Alive(s2_));
  EXPECT_EQ(Kids(tree_, p1_), (std::vector<NodeId>{s1_}));
  EXPECT_EQ(tree_.size(), 5u);
  EXPECT_TRUE(tree_.Validate().ok());
}

TEST_F(TreeTest, DeleteInteriorNodeFails) {
  EXPECT_EQ(tree_.DeleteLeaf(p1_).code(), Code::kFailedPrecondition);
  EXPECT_EQ(tree_.DeleteLeaf(s2_).code(), Code::kOk);
  EXPECT_EQ(tree_.DeleteLeaf(s2_).code(), Code::kInvalidArgument);  // Dead.
}

TEST_F(TreeTest, DeleteRootLeaf) {
  Tree solo;
  NodeId r = solo.AddRoot("X");
  ASSERT_TRUE(solo.DeleteLeaf(r).ok());
  EXPECT_EQ(solo.root(), kInvalidNode);
  EXPECT_EQ(solo.size(), 0u);
  EXPECT_TRUE(solo.Validate().ok());
}

TEST_F(TreeTest, UpdateValue) {
  ASSERT_TRUE(tree_.UpdateValue(s1_, "new").ok());
  EXPECT_EQ(tree_.value(s1_), "new");
}

TEST_F(TreeTest, MoveSubtreeAcrossParents) {
  // Move s1 (with no children) from p1 to p2 as first child.
  ASSERT_TRUE(tree_.MoveSubtree(s1_, p2_, 1).ok());
  EXPECT_EQ(Kids(tree_, p1_), (std::vector<NodeId>{s2_}));
  EXPECT_EQ(Kids(tree_, p2_), (std::vector<NodeId>{s1_, s3_}));
  EXPECT_EQ(tree_.parent(s1_), p2_);
  EXPECT_TRUE(tree_.Validate().ok());
}

TEST_F(TreeTest, MoveSubtreeCarriesDescendants) {
  ASSERT_TRUE(tree_.MoveSubtree(p1_, p2_, 2).ok());
  EXPECT_EQ(Kids(tree_, p2_), (std::vector<NodeId>{s3_, p1_}));
  EXPECT_EQ(Kids(tree_, p1_), (std::vector<NodeId>{s1_, s2_}));
  EXPECT_EQ(tree_.parent(s1_), p1_);
  EXPECT_TRUE(tree_.Validate().ok());
}

TEST_F(TreeTest, MoveWithinSameParentCountsPositionAfterDetach) {
  // Children of d: [p1, p2]; move p1 to become the 2nd child (after detach
  // the list is [p2], so position 2 appends).
  ASSERT_TRUE(tree_.MoveSubtree(p1_, d_, 2).ok());
  EXPECT_EQ(Kids(tree_, d_), (std::vector<NodeId>{p2_, p1_}));
}

TEST_F(TreeTest, MoveRejectsRootAndCycles) {
  EXPECT_EQ(tree_.MoveSubtree(d_, p1_, 1).code(), Code::kInvalidArgument);
  EXPECT_EQ(tree_.MoveSubtree(p1_, s1_, 1).code(), Code::kInvalidArgument);
  EXPECT_EQ(tree_.MoveSubtree(p1_, p1_, 1).code(), Code::kInvalidArgument);
  EXPECT_TRUE(tree_.Validate().ok());
}

TEST_F(TreeTest, MoveRejectsBadPositionAndRestoresState) {
  EXPECT_EQ(tree_.MoveSubtree(s1_, p2_, 5).code(), Code::kOutOfRange);
  EXPECT_TRUE(tree_.Validate().ok());
  EXPECT_EQ(tree_.parent(s1_), p1_);
}

TEST_F(TreeTest, BfsOrderIsLevelOrder) {
  EXPECT_EQ(tree_.BfsOrder(),
            (std::vector<NodeId>{d_, p1_, p2_, s1_, s2_, s3_}));
}

TEST_F(TreeTest, PostOrderVisitsChildrenFirst) {
  EXPECT_EQ(tree_.PostOrder(),
            (std::vector<NodeId>{s1_, s2_, p1_, s3_, p2_, d_}));
}

TEST_F(TreeTest, PreOrderVisitsParentsFirst) {
  EXPECT_EQ(tree_.PreOrder(),
            (std::vector<NodeId>{d_, p1_, s1_, s2_, p2_, s3_}));
}

TEST_F(TreeTest, LeavesInDocumentOrder) {
  EXPECT_EQ(tree_.Leaves(), (std::vector<NodeId>{s1_, s2_, s3_}));
}

TEST_F(TreeTest, LeafCounts) {
  std::vector<int> counts = tree_.LeafCounts();
  EXPECT_EQ(counts[static_cast<size_t>(d_)], 3);
  EXPECT_EQ(counts[static_cast<size_t>(p1_)], 2);
  EXPECT_EQ(counts[static_cast<size_t>(p2_)], 1);
  EXPECT_EQ(counts[static_cast<size_t>(s1_)], 1);
}

TEST_F(TreeTest, EulerIntervalsAnswerAncestry) {
  TreeIndex e(tree_);
  EXPECT_TRUE(e.Contains(d_, s3_));
  EXPECT_TRUE(e.Contains(p1_, s1_));
  EXPECT_TRUE(e.Contains(s1_, s1_));
  EXPECT_FALSE(e.Contains(p1_, s3_));
  EXPECT_FALSE(e.Contains(s1_, p1_));
}

TEST_F(TreeTest, ClonePreservesIdsAndIsIndependent) {
  Tree copy = tree_.Clone();
  EXPECT_TRUE(Tree::Isomorphic(tree_, copy));
  EXPECT_EQ(copy.value(s1_), "a");
  ASSERT_TRUE(copy.UpdateValue(s1_, "changed").ok());
  EXPECT_EQ(tree_.value(s1_), "a");  // Original untouched.
}

TEST_F(TreeTest, IsomorphismIgnoresIdsButNotStructure) {
  Tree other(tree_.label_table());
  NodeId d = other.AddRoot("D");
  NodeId q1 = other.AddChild(d, "P");
  NodeId q2 = other.AddChild(d, "P");
  other.AddChild(q1, "S", "a");
  other.AddChild(q1, "S", "b");
  other.AddChild(q2, "S", "c");
  EXPECT_TRUE(Tree::Isomorphic(tree_, other));

  ASSERT_TRUE(other.UpdateValue(other.children(q2)[0], "zzz").ok());
  EXPECT_FALSE(Tree::Isomorphic(tree_, other));
}

TEST_F(TreeTest, IsomorphismDetectsChildOrder) {
  Tree other(tree_.label_table());
  NodeId d = other.AddRoot("D");
  NodeId q1 = other.AddChild(d, "P");
  NodeId q2 = other.AddChild(d, "P");
  other.AddChild(q1, "S", "b");  // Swapped order.
  other.AddChild(q1, "S", "a");
  other.AddChild(q2, "S", "c");
  EXPECT_FALSE(Tree::Isomorphic(tree_, other));
}

TEST_F(TreeTest, IsomorphismAcrossLabelTablesComparesNames) {
  Tree other;  // Own table.
  NodeId d = other.AddRoot("D");
  NodeId q1 = other.AddChild(d, "P");
  NodeId q2 = other.AddChild(d, "P");
  other.AddChild(q1, "S", "a");
  other.AddChild(q1, "S", "b");
  other.AddChild(q2, "S", "c");
  EXPECT_TRUE(Tree::Isomorphic(tree_, other));
}

TEST_F(TreeTest, WrapRootInsertsDummyAbove) {
  NodeId new_root = tree_.WrapRoot(tree_.InternLabel("ROOT"));
  EXPECT_EQ(tree_.root(), new_root);
  EXPECT_EQ(Kids(tree_, new_root), (std::vector<NodeId>{d_}));
  EXPECT_EQ(tree_.parent(d_), new_root);
  EXPECT_EQ(tree_.size(), 7u);
  EXPECT_TRUE(tree_.Validate().ok());
}

TEST_F(TreeTest, DebugString) {
  EXPECT_EQ(tree_.ToDebugString(),
            "(D (P (S \"a\") (S \"b\")) (P (S \"c\")))");
}

TEST(EmptyTreeTest, Behaviour) {
  Tree t;
  EXPECT_EQ(t.root(), kInvalidNode);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.BfsOrder().empty());
  EXPECT_TRUE(t.PostOrder().empty());
  EXPECT_TRUE(t.Validate().ok());
  EXPECT_EQ(t.ToDebugString(), "()");
}

TEST(LabelTableTest, InternIsIdempotent) {
  LabelTable table;
  LabelId a = table.Intern("alpha");
  LabelId b = table.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.Intern("alpha"), a);
  EXPECT_EQ(table.Name(a), "alpha");
  EXPECT_EQ(table.Find("beta"), b);
  EXPECT_EQ(table.Find("gamma"), kInvalidLabel);
  EXPECT_EQ(table.size(), 2u);
}

TEST(FrozenTreeTest, EditOperationsFailFast) {
  Tree t;
  NodeId r = t.AddRoot("D");
  NodeId a = t.AddChild(r, "S", "alpha");
  NodeId b = t.AddChild(r, "S", "beta");
  t.Freeze();
  EXPECT_TRUE(t.Frozen());

  EXPECT_EQ(t.UpdateValue(a, "changed").code(), Code::kFailedPrecondition);
  EXPECT_EQ(t.DeleteLeaf(b).code(), Code::kFailedPrecondition);
  // The tree is untouched.
  EXPECT_EQ(t.value(a), "alpha");
  EXPECT_EQ(t.size(), 3u);
  EXPECT_TRUE(t.Validate().ok());
}

TEST(FrozenTreeTest, FreezeIsStickyAcrossMovesButNotCopies) {
  Tree t;
  NodeId r = t.AddRoot("D");
  t.AddChild(r, "S", "x");
  t.Freeze();

  // Copies and Clone()s start unfrozen: they are private snapshots (the
  // edit-script generator's working copy depends on this).
  Tree copy(t);
  EXPECT_FALSE(copy.Frozen());
  EXPECT_TRUE(copy.UpdateValue(copy.Leaves()[0], "edited").ok());
  Tree clone = t.Clone();
  EXPECT_FALSE(clone.Frozen());

  // Moves transfer the frozen contract with the storage.
  clone.Freeze();
  Tree moved(std::move(clone));
  EXPECT_TRUE(moved.Frozen());
  EXPECT_EQ(moved.UpdateValue(moved.Leaves()[0], "nope").code(),
            Code::kFailedPrecondition);
}

#if GTEST_HAS_DEATH_TEST
TEST(FrozenTreeDeathTest, StructuralConstructionAborts) {
  Tree t;
  NodeId r = t.AddRoot("D");
  t.Freeze();
  // AddChild has no Status channel; mutating a frozen (= possibly shared)
  // tree is a fail-fast abort, not a silent data race.
  EXPECT_DEATH(t.AddChild(r, "S", "boom"), "frozen");
}
#endif

TEST(TreeIdsTest, DeadSlotsRemainInIdBound) {
  Tree t;
  NodeId r = t.AddRoot("R");
  NodeId a = t.AddChild(r, "A", "1");
  ASSERT_TRUE(t.DeleteLeaf(a).ok());
  EXPECT_EQ(t.id_bound(), 2u);
  EXPECT_EQ(t.size(), 1u);
  // New node gets a fresh id; dead ids are never reused.
  NodeId b = t.AddChild(r, "A", "2");
  EXPECT_EQ(b, 2);
}

}  // namespace
}  // namespace treediff
