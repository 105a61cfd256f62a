#include "core/cost_model.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/diff.h"
#include "core/edit_script_gen.h"
#include "tree/builder.h"

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
};

TEST(CostModelTest, UnitModelMatchesDefault) {
  Fixture f;
  Tree t1 = f.Parse("(D (S \"a\") (S \"b\"))");
  Tree t2 = f.Parse("(D (S \"a\") (S \"c\"))");
  Matching m = f.MatchByValue(t1, t2);
  UnitCostModel unit;
  auto with = GenerateEditScript(t1, t2, m, nullptr, true, &unit);
  auto without = GenerateEditScript(t1, t2, m, nullptr, true, nullptr);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_DOUBLE_EQ(with->script.TotalCost(), without->script.TotalCost());
}

TEST(CostModelTest, PerLabelCostsApplied) {
  Fixture f;
  // "b" (label S) deleted, "c" inserted, "m" subtree (label P) moved.
  Tree t1 = f.Parse(
      "(D (P (S \"m\")) (S \"anchor1\") (S \"anchor2\") (S \"b\"))");
  Tree t2 = f.Parse(
      "(D (S \"anchor1\") (S \"anchor2\") (S \"c\") (P (S \"m\")))");
  Matching m = f.MatchByValue(t1, t2);

  PerLabelCostModel model;
  model.SetCosts(f.labels->Intern("S"), {.insert = 3.0, .remove = 5.0,
                                         .move = 1.0});
  model.SetCosts(f.labels->Intern("P"), {.insert = 1.0, .remove = 1.0,
                                         .move = 7.0});
  auto result = GenerateEditScript(t1, t2, m, nullptr, true, &model);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->script.num_inserts(), 1u);
  ASSERT_EQ(result->script.num_deletes(), 1u);
  // With the paragraph's move priced at 7, the weighted alignment keeps the
  // paragraph put and moves the two cheap sentences instead.
  ASSERT_EQ(result->script.num_moves(), 2u);
  double ins = 0, del = 0, mov_total = 0;
  for (const EditOp& op : result->script.ops()) {
    switch (op.kind) {
      case EditOpKind::kInsert:
        ins = op.cost;
        break;
      case EditOpKind::kDelete:
        del = op.cost;
        break;
      case EditOpKind::kMove:
        mov_total += op.cost;
        EXPECT_DOUBLE_EQ(op.cost, 1.0);  // Sentence moves.
        break;
      default:
        break;
    }
  }
  EXPECT_DOUBLE_EQ(ins, 3.0);       // Inserted sentence.
  EXPECT_DOUBLE_EQ(del, 5.0);       // Deleted sentence.
  EXPECT_DOUBLE_EQ(mov_total, 2.0);  // Two sentence moves beat one 7.0 move.
  EXPECT_DOUBLE_EQ(result->script.TotalCost(), 10.0);
  EXPECT_TRUE(Tree::Isomorphic(result->transformed, t2));
}

TEST(CostModelTest, UnlistedLabelsUseDefault) {
  Fixture f;
  Tree t1 = f.Parse("(D (Q \"x\"))");
  Tree t2 = f.Parse("(D)");
  Matching m = f.MatchByValue(t1, t2);
  PerLabelCostModel model({.insert = 1.0, .remove = 2.5, .move = 1.0});
  auto result = GenerateEditScript(t1, t2, m, nullptr, true, &model);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->script.size(), 1u);
  EXPECT_DOUBLE_EQ(result->script.ops()[0].cost, 2.5);
}

TEST(CostModelTest, DiffOptionsPlumbing) {
  Fixture f;
  Tree t1 = f.Parse("(D (S \"keep me here\") (S \"doomed words gone\"))");
  Tree t2 = f.Parse("(D (S \"keep me here\"))");
  PerLabelCostModel model({.insert = 1.0, .remove = 10.0, .move = 1.0});
  DiffOptions options;
  options.cost_model = &model;
  auto diff = DiffTrees(t1, t2, options);
  ASSERT_TRUE(diff.ok());
  EXPECT_DOUBLE_EQ(diff->script.TotalCost(), 10.0);
}

TEST(CostModelTest, OperationsUnchangedOnlyPricesDiffer) {
  Fixture f;
  Tree t1 = f.Parse("(D (S \"a\") (S \"b\") (S \"c\"))");
  Tree t2 = f.Parse("(D (S \"c\") (S \"a\") (S \"b\"))");
  Matching m = f.MatchByValue(t1, t2);
  PerLabelCostModel pricey({.insert = 9.0, .remove = 9.0, .move = 9.0});
  auto cheap = GenerateEditScript(t1, t2, f.MatchByValue(t1, t2));
  auto costly = GenerateEditScript(t1, t2, m, nullptr, true, &pricey);
  ASSERT_TRUE(cheap.ok());
  ASSERT_TRUE(costly.ok());
  EXPECT_EQ(cheap->script.size(), costly->script.size());
  EXPECT_DOUBLE_EQ(costly->script.TotalCost(),
                   cheap->script.TotalCost() * 9.0);
}

TEST(CostModelTest, WeightedAlignmentKeepsHeavyChildPut) {
  // [H a b c] -> [a b c H]: the count-minimal alignment moves H once; with
  // H's move priced at 100, the cost-minimal alignment keeps H put and
  // moves a, b, c instead (heaviest-common-subsequence AlignChildren).
  Fixture f;
  Tree t1 = f.Parse("(D (H \"h\") (S \"a\") (S \"b\") (S \"c\"))");
  Tree t2 = f.Parse("(D (S \"a\") (S \"b\") (S \"c\") (H \"h\"))");
  Matching m = f.MatchByValue(t1, t2);

  auto unit = GenerateEditScript(t1, t2, m);
  ASSERT_TRUE(unit.ok());
  EXPECT_EQ(unit->intra_parent_moves, 1u);  // Lemma C.1 count minimum.

  PerLabelCostModel model;
  model.SetCosts(f.labels->Intern("H"),
                 {.insert = 1.0, .remove = 1.0, .move = 100.0});
  auto weighted = GenerateEditScript(t1, t2, m, nullptr, true, &model);
  ASSERT_TRUE(weighted.ok());
  EXPECT_EQ(weighted->intra_parent_moves, 3u);  // a, b, c move; H stays.
  EXPECT_DOUBLE_EQ(weighted->script.TotalCost(), 3.0);
  EXPECT_TRUE(Tree::Isomorphic(weighted->transformed, t2));
}

TEST(CostModelTest, WeightedAlignmentMatchesUnitWhenCostsUniform) {
  Fixture f;
  Tree t1 = f.Parse("(D (S \"1\") (S \"2\") (S \"3\") (S \"4\") (S \"5\"))");
  Tree t2 = f.Parse("(D (S \"4\") (S \"1\") (S \"5\") (S \"2\") (S \"3\"))");
  Matching m = f.MatchByValue(t1, t2);
  UnitCostModel unit_model;
  auto weighted = GenerateEditScript(t1, t2, m, nullptr, true, &unit_model);
  auto plain = GenerateEditScript(t1, t2, m);
  ASSERT_TRUE(weighted.ok());
  ASSERT_TRUE(plain.ok());
  // With uniform weights the heaviest subsequence is a longest one: same
  // move count (the specific kept set may differ among ties).
  EXPECT_EQ(weighted->intra_parent_moves, plain->intra_parent_moves);
  EXPECT_TRUE(Tree::Isomorphic(weighted->transformed, t2));
}

}  // namespace
}  // namespace treediff
