// Additional EditScript-generation coverage for order-sensitive paths: a
// moved node whose destination parent is itself freshly inserted, chains of
// moves, deep restructurings, and interactions between aligned and inserted
// siblings.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/edit_script_gen.h"
#include "core/share_map.h"
#include "tree/builder.h"
#include "tree/tree_index.h"
#include "util/budget.h"

namespace treediff {
namespace {

struct Fixture {
  std::shared_ptr<LabelTable> labels = std::make_shared<LabelTable>();

  Tree Parse(const std::string& s) { return *ParseSexpr(s, labels); }

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

  void CheckTransform(const Tree& t1, const Tree& t2) {
    auto result = GenerateEditScript(t1, t2, MatchByValue(t1, t2));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(Tree::Isomorphic(result->transformed, t2))
        << "script:\n" << result->script.ToString(t1.labels());
    Tree replay = t1.Clone();
    ASSERT_TRUE(result->script.ApplyTo(&replay).ok());
    EXPECT_TRUE(Tree::Isomorphic(replay, t2));
  }
};

TEST(EditScriptGenMoreTest, MoveUnderInsertedParent) {
  // The new paragraph does not exist in T1; the existing sentences must be
  // moved under it *after* it is inserted (the paper's ordering caveat:
  // "an insert may need to precede a move, if the moved node becomes the
  // child of the inserted node").
  Fixture f;
  Tree t1 = f.Parse("(D (S \"a\") (S \"b\"))");
  Tree t2 = f.Parse("(D (P (S \"a\") (S \"b\")))");
  auto result = GenerateEditScript(t1, t2, f.MatchByValue(t1, t2));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->script.num_inserts(), 1u);  // The paragraph.
  EXPECT_EQ(result->script.num_moves(), 2u);    // Both sentences.
  // The insert must come before the moves in the script.
  bool seen_insert = false;
  for (const EditOp& op : result->script.ops()) {
    if (op.kind == EditOpKind::kInsert) seen_insert = true;
    if (op.kind == EditOpKind::kMove) {
      EXPECT_TRUE(seen_insert);
    }
  }
  EXPECT_TRUE(Tree::Isomorphic(result->transformed, t2));
}

TEST(EditScriptGenMoreTest, FlattenInteriorNode) {
  // The inverse: an interior node dissolves and its children climb up.
  Fixture f;
  Tree t1 = f.Parse("(D (P (S \"a\") (S \"b\")))");
  Tree t2 = f.Parse("(D (S \"a\") (S \"b\"))");
  auto result = GenerateEditScript(t1, t2, f.MatchByValue(t1, t2));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->script.num_moves(), 2u);
  EXPECT_EQ(result->script.num_deletes(), 1u);  // The emptied paragraph.
  EXPECT_TRUE(Tree::Isomorphic(result->transformed, t2));
}

TEST(EditScriptGenMoreTest, DeepReparentChain) {
  // A node hops down a freshly built spine of inserted ancestors.
  Fixture f;
  Tree t1 = f.Parse("(D (S \"payload\"))");
  Tree t2 = f.Parse("(D (A (B (C (S \"payload\")))))");
  f.CheckTransform(t1, t2);
}

TEST(EditScriptGenMoreTest, RotateThreeSubtrees) {
  Fixture f;
  Tree t1 = f.Parse(
      "(D (P (S \"a1\") (S \"a2\")) (Q (S \"b1\") (S \"b2\")) "
      "(R (S \"c1\") (S \"c2\")))");
  Tree t2 = f.Parse(
      "(D (R (S \"c1\") (S \"c2\")) (P (S \"a1\") (S \"a2\")) "
      "(Q (S \"b1\") (S \"b2\")))");
  auto result = GenerateEditScript(t1, t2, f.MatchByValue(t1, t2));
  ASSERT_TRUE(result.ok());
  // A rotation is a single intra-parent move (LCS keeps P and Q).
  EXPECT_EQ(result->script.size(), 1u);
  EXPECT_EQ(result->intra_parent_moves, 1u);
  EXPECT_TRUE(Tree::Isomorphic(result->transformed, t2));
}

TEST(EditScriptGenMoreTest, SwapChildrenBetweenParents) {
  Fixture f;
  Tree t1 = f.Parse("(D (P (S \"x\") (S \"p\")) (Q (S \"y\") (S \"q\")))");
  Tree t2 = f.Parse("(D (P (S \"y\") (S \"p\")) (Q (S \"x\") (S \"q\")))");
  auto result = GenerateEditScript(t1, t2, f.MatchByValue(t1, t2));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->script.num_moves(), 2u);
  EXPECT_EQ(result->inter_parent_moves, 2u);
  EXPECT_TRUE(Tree::Isomorphic(result->transformed, t2));
}

TEST(EditScriptGenMoreTest, InsertBetweenAlignedAndMovedSiblings) {
  Fixture f;
  Tree t1 = f.Parse("(D (S \"a\") (S \"c\") (S \"b\"))");
  // b moves before c AND a new node lands between them.
  Tree t2 = f.Parse("(D (S \"a\") (S \"b\") (S \"new\") (S \"c\"))");
  f.CheckTransform(t1, t2);
}

TEST(EditScriptGenMoreTest, EverythingChangesAtOnce) {
  Fixture f;
  Tree t1 = f.Parse(
      "(D (P (S \"k1\") (S \"gone1\")) (Q (S \"k2\") (S \"mv\")) "
      "(S \"gone2\"))");
  Tree t2 = f.Parse(
      "(D (Q (S \"k2\")) (P (S \"mv\") (S \"k1\") (S \"new1\")) "
      "(S \"new2\"))");
  f.CheckTransform(t1, t2);
}

TEST(EditScriptGenMoreTest, WorkingTreeIdsSurviveInterleavedOps) {
  // Ids in the script refer to the original tree even after moves shuffle
  // positions; verify by checking that every DEL's id carried the original
  // doomed value.
  Fixture f;
  Tree t1 = f.Parse(
      "(D (P (S \"keep1\") (S \"dead1\")) (P (S \"keep2\") (S \"dead2\")))");
  Tree t2 = f.Parse("(D (P (S \"keep2\")) (P (S \"keep1\")))");
  auto result = GenerateEditScript(t1, t2, f.MatchByValue(t1, t2));
  ASSERT_TRUE(result.ok());
  for (const EditOp& op : result->script.ops()) {
    if (op.kind == EditOpKind::kDelete && t1.IsLeaf(op.node)) {
      EXPECT_EQ(t1.value(op.node).substr(0, 4), "dead");
    }
  }
  EXPECT_TRUE(Tree::Isomorphic(result->transformed, t2));
}

/// First node labeled `name` in pre-order.
NodeId FirstLabeled(const Tree& t, const std::string& name) {
  for (NodeId x : t.PreOrder()) {
    if (t.label_name(x) == name) return x;
  }
  return kInvalidNode;
}

/// Generates with and without a settled list naming the (t1, t2) subtrees
/// labeled `settled_labels`, and requires identical results: a settled
/// root's children are never aligned, which must not change the script.
/// Runs once over bare trees and once with indexes attached, so the working
/// copy is indexed both from scratch and by copying T1's index.
void ExpectSettledSkipChangesNothing(
    Fixture& f, const Tree& t1, const Tree& t2,
    const std::vector<std::string>& settled_labels) {
  const Matching m = f.MatchByValue(t1, t2);
  std::vector<std::pair<NodeId, NodeId>> settled;
  for (const std::string& name : settled_labels) {
    settled.push_back({FirstLabeled(t1, name), FirstLabeled(t2, name)});
  }
  std::vector<std::pair<NodeId, NodeId>> intact = settled;
  FilterIntactSettled(t1, t2, m, &intact);
  ASSERT_EQ(intact, settled) << "the test's settled list breaks the contract";

  for (bool indexed : {false, true}) {
    std::optional<TreeIndex> i1, i2;
    if (indexed) {
      i1.emplace(t1);
      i2.emplace(t2);
    }
    auto plain = GenerateEditScript(t1, t2, m);
    auto pruned = GenerateEditScript(t1, t2, m, nullptr, true, nullptr,
                                     nullptr, &settled);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
    EXPECT_EQ(pruned->script.ToString(t1.labels()),
              plain->script.ToString(t1.labels()))
        << (indexed ? "indexed" : "bare");
    EXPECT_EQ(pruned->weighted_edit_distance, plain->weighted_edit_distance);
    EXPECT_EQ(pruned->intra_parent_moves, plain->intra_parent_moves);
    EXPECT_EQ(pruned->inter_parent_moves, plain->inter_parent_moves);
    EXPECT_TRUE(Tree::Isomorphic(pruned->transformed, t2));
    EXPECT_GT(plain->script.num_moves(), 0u);

    // Budget charging: the scan leaves settled interiors uncharged, while
    // the delete phase charges every working-tree node, settled or not. A
    // node cap one below the pruned run's total must trip; that total must
    // fit.
    size_t interior = 0;
    for (const auto& [a, b] : settled) {
      (void)a;
      std::vector<NodeId> stack(t2.children(b).begin(), t2.children(b).end());
      while (!stack.empty()) {
        const NodeId d = stack.back();
        stack.pop_back();
        ++interior;
        for (NodeId c : t2.children(d)) stack.push_back(c);
      }
    }
    Budget plain_budget, pruned_budget;
    ASSERT_TRUE(GenerateEditScript(t1, t2, m, nullptr, true, nullptr,
                                   &plain_budget)
                    .ok());
    ASSERT_TRUE(GenerateEditScript(t1, t2, m, nullptr, true, nullptr,
                                   &pruned_budget, &settled)
                    .ok());
    const size_t total = pruned_budget.nodes_visited();
    EXPECT_EQ(total + interior, plain_budget.nodes_visited());
    Budget tight;
    tight.set_node_cap(total - 1);
    auto tripped = GenerateEditScript(t1, t2, m, nullptr, true, nullptr,
                                      &tight, &settled);
    ASSERT_FALSE(tripped.ok());
    EXPECT_EQ(tripped.status().code(), Code::kResourceExhausted);
    Budget exact;
    exact.set_node_cap(total);
    EXPECT_TRUE(GenerateEditScript(t1, t2, m, nullptr, true, nullptr, &exact,
                                   &settled)
                    .ok());
  }
}

TEST(EditScriptGenMoreTest, SettledRootMovesWithinItsParent) {
  Fixture f;
  Tree t1 = f.Parse(
      "(D (P (S \"a1\") (S \"a2\")) (Q (S \"b1\") (S \"b2\")) "
      "(R (S \"c1\") (S \"c2\")))");
  Tree t2 = f.Parse(
      "(D (R (S \"c1\") (S \"c2\")) (Q (S \"b1\") (S \"b2\")) "
      "(P (S \"a1\") (S \"a2\")))");
  ExpectSettledSkipChangesNothing(f, t1, t2, {"P", "Q", "R"});
}

TEST(EditScriptGenMoreTest, SettledRootUnderAMovedParent) {
  // A moves under C and changes around B; the settled B moves with A and
  // is then realigned inside it.
  Fixture f;
  Tree t1 = f.Parse(
      "(D (A (B (S \"a\") (S \"b\")) (S \"x\")) (C (S \"y\")))");
  Tree t2 = f.Parse(
      "(D (C (S \"y\") (A (S \"x\") (S \"new\") "
      "(B (S \"a\") (S \"b\")))))");
  ExpectSettledSkipChangesNothing(f, t1, t2, {"B"});
}

TEST(EditScriptGenMoreTest, SettledRootUnderAnInsertedParent) {
  Fixture f;
  Tree t1 = f.Parse(
      "(D (P (S \"a\") (S \"b\")) (Q (S \"c\")) (S \"d\"))");
  Tree t2 = f.Parse(
      "(D (S \"d\") (N (Q (S \"c\")) (P (S \"a\") (S \"b\"))))");
  ExpectSettledSkipChangesNothing(f, t1, t2, {"P", "Q"});
}

}  // namespace
}  // namespace treediff
