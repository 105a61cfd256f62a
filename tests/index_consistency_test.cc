// The TreeIndex invariant the pipeline leans on: after ANY sequence of Tree
// mutations — including a transactional ApplyTo that rolls back halfway — an
// attached, incrementally patched index is indistinguishable from an index
// built from scratch over the final tree.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/diff.h"
#include "core/edit_script.h"
#include "tree/builder.h"
#include "tree/tree.h"
#include "tree/tree_index.h"
#include "util/random.h"

namespace treediff {
namespace {

Tree Parse(const char* sexpr, std::shared_ptr<LabelTable> labels) {
  auto tree = ParseSexpr(sexpr, labels);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return std::move(*tree);
}

/// Asserts that `patched` (attached to `t`, mutated along with it) agrees
/// with a freshly built index on every tier and every node slot.
void ExpectMatchesFreshRebuild(const Tree& t, const TreeIndex& patched) {
  TreeIndex fresh(t);
  EXPECT_EQ(patched.PreOrder(), fresh.PreOrder());
  EXPECT_EQ(patched.PostOrder(), fresh.PostOrder());
  EXPECT_EQ(patched.BfsOrder(), fresh.BfsOrder());
  EXPECT_EQ(patched.Leaves(), fresh.Leaves());
  EXPECT_EQ(patched.LeafChains(), fresh.LeafChains());
  EXPECT_EQ(patched.InternalChains(), fresh.InternalChains());
  for (NodeId x = 0; x < static_cast<NodeId>(t.id_bound()); ++x) {
    EXPECT_EQ(patched.SubtreeSize(x), fresh.SubtreeSize(x)) << "size of " << x;
    EXPECT_EQ(patched.LeafCount(x), fresh.LeafCount(x)) << "leaves of " << x;
    EXPECT_EQ(patched.ChildIndex(x), fresh.ChildIndex(x)) << "pos of " << x;
    EXPECT_EQ(patched.ValueHash(x), fresh.ValueHash(x)) << "vhash of " << x;
    EXPECT_EQ(patched.SubtreeHash(x), fresh.SubtreeHash(x)) << "fp of " << x;
  }
  for (NodeId a : t.PreOrder()) {
    for (NodeId b : t.PreOrder()) {
      EXPECT_EQ(patched.Contains(a, b), fresh.Contains(a, b))
          << a << " vs " << b;
    }
  }
}

class IndexConsistencyTest : public ::testing::Test {
 protected:
  IndexConsistencyTest()
      : labels_(std::make_shared<LabelTable>()),
        t_(Parse("(D (P (S \"one two\") (S \"three\")) "
                 "(P (S \"four\") (F (S \"five six\") (S \"seven\"))) "
                 "(P (S \"eight\")))",
                 labels_)) {}

  std::shared_ptr<LabelTable> labels_;
  Tree t_;
};

TEST_F(IndexConsistencyTest, InsertLeaf) {
  TreeIndex index(t_);
  NodeId p = t_.children(t_.root())[1];
  ASSERT_TRUE(t_.InsertLeaf(t_.InternLabel("S"), "new leaf", p, 2).ok());
  ExpectMatchesFreshRebuild(t_, index);
  // Insert under a node that was a leaf (its leaf count flips 1 -> 1 via
  // child, exercising the path-up repair).
  NodeId leaf = t_.children(t_.children(t_.root())[0])[0];
  ASSERT_TRUE(t_.InsertLeaf(t_.InternLabel("S"), "nested", leaf, 1).ok());
  ExpectMatchesFreshRebuild(t_, index);
}

TEST_F(IndexConsistencyTest, DeleteAndReviveLeaf) {
  TreeIndex index(t_);
  NodeId p0 = t_.children(t_.root())[0];
  NodeId victim = t_.children(p0)[1];
  ASSERT_TRUE(t_.DeleteLeaf(victim).ok());
  ExpectMatchesFreshRebuild(t_, index);
  ASSERT_TRUE(t_.ReviveLeaf(victim, p0, 1).ok());
  ExpectMatchesFreshRebuild(t_, index);
}

TEST_F(IndexConsistencyTest, UpdateValueRefreshesHashesOnly) {
  TreeIndex index(t_);
  NodeId leaf = t_.children(t_.children(t_.root())[2])[0];
  ASSERT_TRUE(t_.UpdateValue(leaf, "eight revised").ok());
  EXPECT_EQ(index.ValueHash(leaf), HashValueBytes("eight revised"));
  ExpectMatchesFreshRebuild(t_, index);
}

TEST_F(IndexConsistencyTest, MoveSubtreeAcrossParents) {
  TreeIndex index(t_);
  NodeId from = t_.children(t_.root())[1];
  NodeId sub = t_.children(from)[1];  // The (F ...) subtree.
  NodeId to = t_.children(t_.root())[2];
  ASSERT_TRUE(t_.MoveSubtree(sub, to, 1).ok());
  ExpectMatchesFreshRebuild(t_, index);
}

TEST_F(IndexConsistencyTest, MoveSubtreeWithinParentReorders) {
  TreeIndex index(t_);
  NodeId p = t_.children(t_.root())[1];
  NodeId first = t_.children(p)[0];
  ASSERT_TRUE(t_.MoveSubtree(first, p, 2).ok());
  ExpectMatchesFreshRebuild(t_, index);
}

TEST_F(IndexConsistencyTest, MoveDeepensAndShallowsDepths) {
  TreeIndex index(t_);
  NodeId shallow = t_.children(t_.root())[2];            // depth 1
  NodeId deep_parent = t_.children(t_.children(t_.root())[1])[1];  // (F ...)
  ASSERT_TRUE(t_.MoveSubtree(shallow, deep_parent, 3).ok());
  ExpectMatchesFreshRebuild(t_, index);
  ASSERT_TRUE(t_.MoveSubtree(shallow, t_.root(), 1).ok());
  ExpectMatchesFreshRebuild(t_, index);
}

TEST_F(IndexConsistencyTest, TruncateDeadTail) {
  TreeIndex index(t_);
  const size_t bound = t_.id_bound();
  auto added = t_.InsertLeaf(t_.InternLabel("S"), "temp", t_.root(), 1);
  ASSERT_TRUE(added.ok());
  ASSERT_TRUE(t_.DeleteLeaf(*added).ok());
  ASSERT_TRUE(t_.TruncateDeadTail(bound).ok());
  EXPECT_EQ(t_.id_bound(), bound);
  ExpectMatchesFreshRebuild(t_, index);
}

TEST_F(IndexConsistencyTest, WrapRootIsABulkChange) {
  TreeIndex index(t_);
  t_.WrapRoot(t_.InternLabel("R"));
  ExpectMatchesFreshRebuild(t_, index);
}

TEST_F(IndexConsistencyTest, CopyAssignmentInvalidatesInPlace) {
  TreeIndex index(t_);
  Tree other = Parse("(D (P (S \"replacement\")))", labels_);
  t_ = other;
  EXPECT_EQ(t_.attached_index(), &index);  // Still attached...
  ExpectMatchesFreshRebuild(t_, index);    // ...and consistent.
}

TEST_F(IndexConsistencyTest, RootRevivalAfterDeletingDownToNothing) {
  Tree small = Parse("(S \"only\")", labels_);
  TreeIndex index(small);
  const NodeId r = small.root();
  ASSERT_TRUE(small.DeleteLeaf(r).ok());
  EXPECT_EQ(small.size(), 0u);
  ASSERT_TRUE(small.ReviveLeaf(r, kInvalidNode, 1).ok());
  ExpectMatchesFreshRebuild(small, index);
}

TEST_F(IndexConsistencyTest, FullEditScriptApplication) {
  Tree t2 = Parse("(D (P (S \"four\") (S \"three\")) "
                  "(P (F (S \"seven\") (S \"five six\") (S \"brand new\"))) "
                  "(Q (S \"eight\")) (P (S \"tail\")))",
                  labels_);
  auto diff = DiffTrees(t_, t2);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  Tree work = t_.Clone();
  TreeIndex index(work);
  ASSERT_TRUE(diff->script.ApplyTo(&work).ok());
  ASSERT_TRUE(Tree::Isomorphic(work, t2));
  ExpectMatchesFreshRebuild(work, index);
}

TEST_F(IndexConsistencyTest, RollbackOnMidScriptFailure) {
  Tree t2 = Parse("(D (P (S \"one two\")) (P (S \"four\") "
                  "(F (S \"seven\"))) (P (S \"eight\") (S \"nine\")))",
                  labels_);
  auto diff = DiffTrees(t_, t2);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  ASSERT_GT(diff->script.size(), 0u);

  // A real prefix followed by a doomed op: ApplyTo mutates the tree through
  // the prefix, hits the bad op, and must roll everything back through the
  // undo log — with the index tracking both directions.
  EditScript poisoned;
  for (const EditOp& op : diff->script.ops()) poisoned.Append(op);
  poisoned.Append(EditOp::Delete(static_cast<NodeId>(t_.id_bound()) + 512));

  Tree work = t_.Clone();
  TreeIndex index(work);
  const size_t bound_before = work.id_bound();
  EXPECT_FALSE(poisoned.ApplyTo(&work).ok());
  EXPECT_EQ(work.id_bound(), bound_before);
  ASSERT_TRUE(Tree::Isomorphic(work, t_));
  ExpectMatchesFreshRebuild(work, index);

  // The rolled-back tree still applies the clean script correctly.
  ASSERT_TRUE(diff->script.ApplyTo(&work).ok());
  ASSERT_TRUE(Tree::Isomorphic(work, t2));
  ExpectMatchesFreshRebuild(work, index);
}

TEST_F(IndexConsistencyTest, LongRandomishMutationSequence) {
  TreeIndex index(t_);
  const LabelId s = t_.InternLabel("S");
  // A deterministic mix of every mutation kind, checking consistency after
  // each step so a regression pinpoints the offending hook.
  for (int round = 0; round < 4; ++round) {
    NodeId p = t_.children(t_.root())[static_cast<size_t>(round) % 3];
    auto ins = t_.InsertLeaf(s, "r" + std::to_string(round), p, 1);
    ASSERT_TRUE(ins.ok());
    ExpectMatchesFreshRebuild(t_, index);
    ASSERT_TRUE(t_.UpdateValue(*ins, "r" + std::to_string(round) + "'").ok());
    ExpectMatchesFreshRebuild(t_, index);
    ASSERT_TRUE(
        t_.MoveSubtree(*ins, t_.root(),
                       static_cast<int>(t_.children(t_.root()).size()) + 1)
            .ok());
    ExpectMatchesFreshRebuild(t_, index);
    ASSERT_TRUE(t_.DeleteLeaf(*ins).ok());
    ExpectMatchesFreshRebuild(t_, index);
  }
}

TEST_F(IndexConsistencyTest, IndexCopiedOverACloneTracksSeededEdits) {
  // Edit-script generation indexes its working Clone() by copying the
  // source index's scalar tier. The copy must equal a fresh build on every
  // tier at once, and stay equal through any edit sequence. A dead slot in
  // the source exercises the copied per-id arrays beyond the live nodes.
  const LabelId s = t_.InternLabel("S");
  TreeIndex source(t_);
  ASSERT_TRUE(t_.DeleteLeaf(t_.children(t_.children(t_.root())[2])[0]).ok());
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Tree work = t_.Clone();
    TreeIndex copied(work, source);
    ExpectMatchesFreshRebuild(work, copied);
    Rng rng(seed);
    for (int step = 0; step < 12; ++step) {
      const std::vector<NodeId> live = work.PreOrder();
      const NodeId x = live[rng.Uniform(live.size())];
      switch (rng.Uniform(4)) {
        case 0: {  // Insert a leaf under x.
          const int k =
              1 + static_cast<int>(rng.Uniform(work.children(x).size() + 1));
          ASSERT_TRUE(work.InsertLeaf(s, "ins" + std::to_string(step), x, k)
                          .ok());
          break;
        }
        case 1:  // Delete x if it is a non-root leaf.
          if (x != work.root() && work.IsLeaf(x)) {
            ASSERT_TRUE(work.DeleteLeaf(x).ok());
          }
          break;
        case 2:
          ASSERT_TRUE(work.UpdateValue(x, "upd" + std::to_string(step)).ok());
          break;
        default: {  // Move x under a node outside its subtree.
          const NodeId p = live[rng.Uniform(live.size())];
          if (x == work.root() || work.IsAncestorOrSelf(x, p)) break;
          const size_t slots =
              work.children(p).size() + (work.parent(x) == p ? 0 : 1);
          const int k = 1 + static_cast<int>(rng.Uniform(slots));
          ASSERT_TRUE(work.MoveSubtree(x, p, k).ok());
          break;
        }
      }
      ExpectMatchesFreshRebuild(work, copied);
    }
  }
  // Edits to the clones never reach the source index.
  ExpectMatchesFreshRebuild(t_, source);
}

}  // namespace
}  // namespace treediff
