#include "core/edit_script_gen.h"

#include <gtest/gtest.h>

#include <memory>

#include "tree/builder.h"

namespace treediff {
namespace {

struct Fixture {
  std::shared_ptr<LabelTable> labels = std::make_shared<LabelTable>();

  Tree Parse(const std::string& s) { return *ParseSexpr(s, labels); }

  /// Matches nodes of t1/t2 pairwise by (label, value) uniqueness — a
  /// convenience for tests whose values are all distinct.
  Matching MatchByValue(const Tree& t1, const Tree& t2) {
    Matching m(t1.id_bound(), t2.id_bound());
    for (NodeId x : t1.PreOrder()) {
      for (NodeId y : t2.PreOrder()) {
        if (!m.HasT2(y) && t1.label(x) == t2.label(y) &&
            t1.value(x) == t2.value(y)) {
          m.Add(x, y);
          break;
        }
      }
    }
    return m;
  }
};

TEST(EditScriptGenTest, IdenticalTreesYieldEmptyScript) {
  Fixture f;
  Tree t1 = f.Parse("(D (P (S \"a\") (S \"b\")) (P (S \"c\")))");
  Tree t2 = f.Parse("(D (P (S \"a\") (S \"b\")) (P (S \"c\")))");
  auto result = GenerateEditScript(t1, t2, f.MatchByValue(t1, t2));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->script.empty());
  EXPECT_EQ(result->weighted_edit_distance, 0u);
  EXPECT_TRUE(Tree::Isomorphic(result->transformed, t2));
}

TEST(EditScriptGenTest, SingleUpdate) {
  Fixture f;
  Tree t1 = f.Parse("(D (S \"old\"))");
  Tree t2 = f.Parse("(D (S \"new\"))");
  Matching m(t1.id_bound(), t2.id_bound());
  m.Add(t1.root(), t2.root());
  m.Add(t1.children(t1.root())[0], t2.children(t2.root())[0]);
  auto result = GenerateEditScript(t1, t2, m);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->script.size(), 1u);
  EXPECT_EQ(result->script.ops()[0].kind, EditOpKind::kUpdate);
  EXPECT_EQ(result->script.ops()[0].value, "new");
  EXPECT_EQ(result->weighted_edit_distance, 0u);  // Updates weigh zero.
}

TEST(EditScriptGenTest, SingleInsertAtCorrectPosition) {
  Fixture f;
  Tree t1 = f.Parse("(D (S \"a\") (S \"c\"))");
  Tree t2 = f.Parse("(D (S \"a\") (S \"b\") (S \"c\"))");
  auto result = GenerateEditScript(t1, t2, f.MatchByValue(t1, t2));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->script.size(), 1u);
  const EditOp& op = result->script.ops()[0];
  EXPECT_EQ(op.kind, EditOpKind::kInsert);
  EXPECT_EQ(op.value, "b");
  EXPECT_EQ(op.position, 2);
  EXPECT_TRUE(Tree::Isomorphic(result->transformed, t2));
}

TEST(EditScriptGenTest, SingleDelete) {
  Fixture f;
  Tree t1 = f.Parse("(D (S \"a\") (S \"b\") (S \"c\"))");
  Tree t2 = f.Parse("(D (S \"a\") (S \"c\"))");
  auto result = GenerateEditScript(t1, t2, f.MatchByValue(t1, t2));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->script.size(), 1u);
  EXPECT_EQ(result->script.ops()[0].kind, EditOpKind::kDelete);
  EXPECT_TRUE(Tree::Isomorphic(result->transformed, t2));
}

TEST(EditScriptGenTest, DeletesAreBottomUp) {
  Fixture f;
  Tree t1 = f.Parse("(D (P (S \"a\") (S \"b\")) (S \"k\"))");
  Tree t2 = f.Parse("(D (S \"k\"))");
  auto result = GenerateEditScript(t1, t2, f.MatchByValue(t1, t2));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->script.num_deletes(), 3u);
  // Each delete must be a leaf at application time; ApplyTo re-verifies.
  Tree replay = t1.Clone();
  EXPECT_TRUE(result->script.ApplyTo(&replay).ok());
  EXPECT_TRUE(Tree::Isomorphic(replay, t2));
}

TEST(EditScriptGenTest, InterParentMove) {
  Fixture f;
  Tree t1 = f.Parse("(D (P (S \"x\") (S \"y\")) (P (S \"z\")))");
  Tree t2 = f.Parse("(D (P (S \"y\")) (P (S \"z\") (S \"x\")))");
  auto result = GenerateEditScript(t1, t2, f.MatchByValue(t1, t2));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->script.num_moves(), 1u);
  EXPECT_EQ(result->inter_parent_moves, 1u);
  EXPECT_EQ(result->intra_parent_moves, 0u);
  EXPECT_EQ(result->weighted_edit_distance, 1u);
  EXPECT_TRUE(Tree::Isomorphic(result->transformed, t2));
}

TEST(EditScriptGenTest, Figure7AlignmentUsesMinimumMoves) {
  // Figure 7: children 2,3,4,5,6 matched to 13,15,12,16,14 respectively —
  // T2 order 12,13,14,15,16 corresponds to T1 children 4,2,6,3,5.
  // LCS keeps 3 nodes fixed; exactly 2 intra-parent moves are needed.
  Fixture f;
  Tree t1 = f.Parse(
      "(D (S \"n2\") (S \"n3\") (S \"n4\") (S \"n5\") (S \"n6\"))");
  Tree t2 = f.Parse(
      "(D (S \"n4\") (S \"n2\") (S \"n6\") (S \"n3\") (S \"n5\"))");
  auto result = GenerateEditScript(t1, t2, f.MatchByValue(t1, t2));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->script.size(), result->script.num_moves());
  EXPECT_EQ(result->intra_parent_moves, 2u);
  EXPECT_TRUE(Tree::Isomorphic(result->transformed, t2));
}

TEST(EditScriptGenTest, ReversalNeedsNMinusOneMoves) {
  Fixture f;
  Tree t1 = f.Parse("(D (S \"1\") (S \"2\") (S \"3\") (S \"4\"))");
  Tree t2 = f.Parse("(D (S \"4\") (S \"3\") (S \"2\") (S \"1\"))");
  auto result = GenerateEditScript(t1, t2, f.MatchByValue(t1, t2));
  ASSERT_TRUE(result.ok());
  // LCS of a reversal has length 1: 3 moves.
  EXPECT_EQ(result->intra_parent_moves, 3u);
  EXPECT_TRUE(Tree::Isomorphic(result->transformed, t2));
}

TEST(EditScriptGenTest, MoveWeightIsSubtreeLeafCount) {
  Fixture f;
  Tree t1 = f.Parse(
      "(D (Sec (P (S \"a\") (S \"b\") (S \"c\"))) (Sec (S \"k\")))");
  Tree t2 = f.Parse(
      "(D (Sec) (Sec (S \"k\") (P (S \"a\") (S \"b\") (S \"c\"))))");
  auto result = GenerateEditScript(t1, t2, f.MatchByValue(t1, t2));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->script.num_moves(), 1u);
  EXPECT_EQ(result->weighted_edit_distance, 3u);  // Three leaves moved.
  EXPECT_EQ(result->script.size(), 1u);
  EXPECT_TRUE(Tree::Isomorphic(result->transformed, t2));
}

TEST(EditScriptGenTest, MixedScriptConformsToMatching) {
  Fixture f;
  Tree t1 = f.Parse(
      "(D (P (S \"keep\") (S \"gone\")) (P (S \"move me\")) (S \"upd\"))");
  Tree t2 = f.Parse(
      "(D (P (S \"keep\") (S \"move me\") (S \"fresh\")) (P) "
      "(S \"updated!\"))");
  Matching m(t1.id_bound(), t2.id_bound());
  m.Add(t1.root(), t2.root());
  NodeId p1a = t1.children(t1.root())[0];
  NodeId p1b = t1.children(t1.root())[1];
  NodeId p2a = t2.children(t2.root())[0];
  NodeId p2b = t2.children(t2.root())[1];
  m.Add(p1a, p2a);
  m.Add(p1b, p2b);
  m.Add(t1.children(p1a)[0], t2.children(p2a)[0]);  // keep.
  m.Add(t1.children(p1b)[0], t2.children(p2a)[1]);  // move me -> moved.
  m.Add(t1.children(t1.root())[2], t2.children(t2.root())[2]);  // upd.
  auto result = GenerateEditScript(t1, t2, m);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(Tree::Isomorphic(result->transformed, t2));
  EXPECT_EQ(result->script.num_inserts(), 1u);   // "fresh".
  EXPECT_EQ(result->script.num_deletes(), 1u);   // "gone".
  EXPECT_EQ(result->script.num_updates(), 1u);   // "upd" -> "updated!".
  EXPECT_EQ(result->script.num_moves(), 1u);     // "move me".
  // Conformance: matched nodes were never inserted or deleted.
  for (const EditOp& op : result->script.ops()) {
    if (op.kind == EditOpKind::kDelete) {
      EXPECT_FALSE(m.HasT1(op.node));
    }
  }
}

TEST(EditScriptGenTest, TheoremC2MinimalityCounts) {
  // Any conforming script contains exactly: one insert per unmatched T2
  // node, one delete per unmatched T1 node, one move per matched pair with
  // unmatched parents, plus minimal alignment moves.
  Fixture f;
  Tree t1 = f.Parse(
      "(D (P (S \"s1\") (S \"s2\")) (P (S \"s3\") (S \"s4\")))");
  Tree t2 = f.Parse(
      "(D (P (S \"s4\") (S \"s1\")) (P (S \"s3\") (S \"new1\") "
      "(S \"new2\")))");
  Matching m = f.MatchByValue(t1, t2);
  auto result = GenerateEditScript(t1, t2, m);
  ASSERT_TRUE(result.ok());

  size_t unmatched_t2 = 0;
  for (NodeId y : t2.PreOrder()) {
    if (!m.HasT2(y)) ++unmatched_t2;
  }
  size_t unmatched_t1 = 0;
  for (NodeId x : t1.PreOrder()) {
    if (!m.HasT1(x)) ++unmatched_t1;
  }
  size_t inter_moves = 0;
  for (auto [x, y] : m.Pairs()) {
    NodeId px = t1.parent(x), py = t2.parent(y);
    if (px == kInvalidNode || py == kInvalidNode) continue;
    if (m.PartnerOfT1(px) != py) ++inter_moves;
  }
  EXPECT_EQ(result->script.num_inserts(), unmatched_t2);
  EXPECT_EQ(result->script.num_deletes(), unmatched_t1);
  EXPECT_EQ(result->inter_parent_moves, inter_moves);
}

TEST(EditScriptGenTest, AutoMatchesRootsWithEqualLabels) {
  Fixture f;
  Tree t1 = f.Parse("(D (S \"a\"))");
  Tree t2 = f.Parse("(D (S \"b\"))");
  Matching empty(t1.id_bound(), t2.id_bound());
  auto result = GenerateEditScript(t1, t2, empty);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(Tree::Isomorphic(result->transformed, t2));
}

TEST(EditScriptGenTest, RejectsUnmatchableRoots) {
  Fixture f;
  Tree t1 = f.Parse("(A (S \"a\"))");
  Tree t2 = f.Parse("(B (S \"a\"))");
  Matching empty(t1.id_bound(), t2.id_bound());
  auto result = GenerateEditScript(t1, t2, empty);
  EXPECT_EQ(result.status().code(), Code::kFailedPrecondition);
}

TEST(EditScriptGenTest, WrapRootDeviceHandlesUnmatchableRoots) {
  Fixture f;
  Tree t1 = f.Parse("(A (S \"a\"))");
  Tree t2 = f.Parse("(B (S \"a\"))");
  LabelId dummy = f.labels->Intern("__root__");
  t1.WrapRoot(dummy);
  t2.WrapRoot(dummy);
  Matching m(t1.id_bound(), t2.id_bound());
  // Match the S leaves so they survive the re-rooting.
  m.Add(1, 1);
  auto result = GenerateEditScript(t1, t2, m);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(Tree::Isomorphic(result->transformed, t2));
  EXPECT_EQ(result->script.num_inserts(), 1u);  // New B root.
  EXPECT_EQ(result->script.num_deletes(), 1u);  // Old A root.
  EXPECT_EQ(result->script.num_moves(), 1u);    // S moved under B.
}

TEST(EditScriptGenTest, RejectsLabelMismatchedPairs) {
  Fixture f;
  Tree t1 = f.Parse("(D (A \"x\"))");
  Tree t2 = f.Parse("(D (B \"x\"))");
  Matching m(t1.id_bound(), t2.id_bound());
  m.Add(t1.root(), t2.root());
  m.Add(t1.children(t1.root())[0], t2.children(t2.root())[0]);
  auto result = GenerateEditScript(t1, t2, m);
  EXPECT_EQ(result.status().code(), Code::kFailedPrecondition);
}

TEST(EditScriptGenTest, RejectsEmptyTrees) {
  Fixture f;
  Tree t1 = f.Parse("(D)");
  Tree empty(f.labels);
  Matching m(1, 0);
  EXPECT_EQ(GenerateEditScript(t1, empty, m).status().code(),
            Code::kFailedPrecondition);
  EXPECT_EQ(GenerateEditScript(empty, t1, m).status().code(),
            Code::kFailedPrecondition);
}

TEST(EditScriptGenTest, UpdateCostUsesComparator) {
  Fixture f;
  Tree t1 = f.Parse("(D (S \"one two three four\"))");
  Tree t2 = f.Parse("(D (S \"one two three zzz\"))");
  Matching m = (Matching(t1.id_bound(), t2.id_bound()));
  m.Add(t1.root(), t2.root());
  m.Add(t1.children(t1.root())[0], t2.children(t2.root())[0]);
  WordLcsComparator cmp;
  auto result = GenerateEditScript(t1, t2, m, &cmp);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->script.size(), 1u);
  EXPECT_DOUBLE_EQ(result->script.ops()[0].cost, 0.5);
  EXPECT_DOUBLE_EQ(result->script.TotalCost(), 0.5);
}

TEST(EditScriptGenTest, ScriptReplaysOnFreshClone) {
  Fixture f;
  Tree t1 = f.Parse(
      "(D (P (S \"a\") (S \"b\") (S \"c\")) (P (S \"d\")) (P (S \"e\")))");
  Tree t2 = f.Parse(
      "(D (P (S \"d\") (S \"a2\")) (P (S \"c\") (S \"b\") (S \"x\")) "
      "(P (S \"e\")))");
  Matching m = f.MatchByValue(t1, t2);
  auto result = GenerateEditScript(t1, t2, m);
  ASSERT_TRUE(result.ok());
  Tree replay = t1.Clone();
  ASSERT_TRUE(result->script.ApplyTo(&replay).ok());
  EXPECT_TRUE(Tree::Isomorphic(replay, t2));
  EXPECT_TRUE(replay.Validate().ok());
}

}  // namespace
}  // namespace treediff
