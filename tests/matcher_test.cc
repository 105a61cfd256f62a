#include "core/matcher.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "core/diff.h"
#include "core/fast_match.h"
#include "core/keyed_match.h"
#include "tree/builder.h"
#include "util/budget.h"

namespace treediff {
namespace {

Tree Parse(const char* sexpr, std::shared_ptr<LabelTable> labels) {
  auto tree = ParseSexpr(sexpr, labels);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return std::move(*tree);
}

class MatcherTest : public ::testing::Test {
 protected:
  MatcherTest()
      : labels_(std::make_shared<LabelTable>()),
        t1_(Parse("(D (P (S \"alpha beta\") (S \"gamma\")) "
                  "(P (S \"delta\") (S \"epsilon zeta\")))",
                  labels_)),
        t2_(Parse("(D (P (S \"alpha beta\") (S \"gamma prime\")) "
                  "(P (S \"epsilon zeta\") (S \"eta\")))",
                  labels_)) {}

  std::shared_ptr<LabelTable> labels_;
  Tree t1_;
  Tree t2_;
};

TEST_F(MatcherTest, RegistryCoversEveryRungWithMatchingIdentity) {
  for (DiffRung rung :
       {DiffRung::kOptimalZs, DiffRung::kFastMatch,
        DiffRung::kKeyedStructural, DiffRung::kTopLevelReplace}) {
    const Matcher& m = MatcherForRung(rung);
    EXPECT_EQ(m.rung(), rung);
    EXPECT_STREQ(m.name(), DiffRungName(rung));
    // Singletons: repeated lookups return the same instance.
    EXPECT_EQ(&MatcherForRung(rung), &m);
  }
}

TEST_F(MatcherTest, EveryRungProducesAMatchingUnbudgeted) {
  DiffOptions options;
  DiffContext ctx(t1_, t2_, options);
  for (DiffRung rung :
       {DiffRung::kOptimalZs, DiffRung::kFastMatch,
        DiffRung::kKeyedStructural, DiffRung::kTopLevelReplace}) {
    MatchResult result =
        MatcherForRung(rung).Run(ctx, Matching(t1_.id_bound(), t2_.id_bound()));
    ASSERT_TRUE(result.matching.has_value()) << DiffRungName(rung);
    // Every matcher's pairs are label-legal (the edit model never relabels).
    for (const auto& [x, y] : result.matching->Pairs()) {
      EXPECT_EQ(t1_.label(x), t2_.label(y));
    }
  }
}

TEST_F(MatcherTest, CriteriaMatcherAgreesWithDirectFastMatch) {
  DiffOptions options;
  DiffContext ctx(t1_, t2_, options);
  MatchResult via_registry = MatcherForRung(DiffRung::kFastMatch)
                                 .Run(ctx, Matching(t1_.id_bound(), t2_.id_bound()));
  ASSERT_TRUE(via_registry.matching.has_value());
  Matching direct = ComputeFastMatch(t1_, t2_, ctx.evaluator(),
                                     options.schema, options.fallback_limit_k);
  EXPECT_EQ(via_registry.matching->Pairs(), direct.Pairs());
}

TEST_F(MatcherTest, StructuralMatcherAgreesWithDirectCall) {
  DiffOptions options;
  DiffContext ctx(t1_, t2_, options);
  MatchResult via_registry =
      MatcherForRung(DiffRung::kKeyedStructural)
          .Run(ctx, Matching(t1_.id_bound(), t2_.id_bound()));
  ASSERT_TRUE(via_registry.matching.has_value());
  EXPECT_EQ(via_registry.matching->Pairs(),
            ComputeStructuralMatch(t1_, t2_).Pairs());
}

TEST_F(MatcherTest, ZsMatcherDeclinesWhenTheTableCannotFit) {
  Budget budget;
  budget.set_arena_cap_bytes(16);  // Far below the (n1+1)*(n2+1) DP table.
  DiffOptions options;
  options.budget = &budget;
  DiffContext ctx(t1_, t2_, options);
  MatchResult result = MatcherForRung(DiffRung::kOptimalZs)
                           .Run(ctx, Matching(t1_.id_bound(), t2_.id_bound()));
  EXPECT_FALSE(result.matching.has_value());
}

TEST_F(MatcherTest, CriteriaMatcherDeclinesOnExhaustedBudget) {
  Budget budget;
  budget.set_node_cap(1);
  DiffOptions options;
  options.budget = &budget;
  DiffContext ctx(t1_, t2_, options);
  // Exhaust the budget up front; the matcher must decline, not return a
  // partial matching.
  while (budget.ChargeNodes(1)) {
  }
  ASSERT_TRUE(budget.exhausted());
  MatchResult result = MatcherForRung(DiffRung::kFastMatch)
                           .Run(ctx, Matching(t1_.id_bound(), t2_.id_bound()));
  EXPECT_FALSE(result.matching.has_value());
}

TEST_F(MatcherTest, TopLevelMatcherPairsOnlyEqualLabeledRoots) {
  DiffOptions options;
  DiffContext ctx(t1_, t2_, options);
  MatchResult result =
      MatcherForRung(DiffRung::kTopLevelReplace)
          .Run(ctx, Matching(t1_.id_bound(), t2_.id_bound()));
  ASSERT_TRUE(result.matching.has_value());
  ASSERT_EQ(result.matching->Pairs().size(), 1u);
  EXPECT_EQ(result.matching->PartnerOfT2(t2_.root()), t1_.root());

  Tree other = Parse("(X (S \"alpha\"))", labels_);
  EXPECT_TRUE(RootOnlyMatching(t1_, other).Pairs().empty());
}

TEST_F(MatcherTest, DiffContextSharesOneIndexPerTree) {
  DiffOptions options;
  DiffContext ctx(t1_, t2_, options);
  // The context's indexes are attached to the trees, so every stage that
  // asks the tree for its index gets the shared one.
  EXPECT_EQ(t1_.attached_index(), &ctx.index1());
  EXPECT_EQ(t2_.attached_index(), &ctx.index2());
  EXPECT_EQ(&ctx.evaluator().index1(), &ctx.index1());
  EXPECT_EQ(&ctx.evaluator().index2(), &ctx.index2());
  EXPECT_EQ(ctx.index1().PreOrder(), t1_.PreOrder());
}

TEST_F(MatcherTest, LadderEndToEndMatchesSeedSemantics) {
  // Unbudgeted DiffTrees starting at kFastMatch lands on kFastMatch.
  auto plain = DiffTrees(t1_, t2_);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->report.rung, DiffRung::kFastMatch);
  EXPECT_FALSE(plain->report.degraded);

  // Starting at kOptimalZs with no budget runs ZS.
  DiffOptions zs;
  zs.start_rung = DiffRung::kOptimalZs;
  auto optimal = DiffTrees(t1_, t2_, zs);
  ASSERT_TRUE(optimal.ok());
  EXPECT_EQ(optimal->report.rung, DiffRung::kOptimalZs);

  // A hostile budget degrades below the requested rung but still succeeds.
  Budget budget;
  budget.set_comparison_cap(1);
  DiffOptions strangled;
  strangled.budget = &budget;
  auto degraded = DiffTrees(t1_, t2_, strangled);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded->report.degraded);
  EXPECT_GT(static_cast<int>(degraded->report.rung),
            static_cast<int>(DiffRung::kFastMatch));
}

}  // namespace
}  // namespace treediff
