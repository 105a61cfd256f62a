#include "util/budget.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/diff.h"
#include "gen/doc_gen.h"
#include "gen/edit_sim.h"
#include "tree/builder.h"
#include "tree/tree_index.h"

namespace treediff {
namespace {

// ---------------------------------------------------------------------------
// Budget unit tests.
// ---------------------------------------------------------------------------

TEST(BudgetTest, DefaultIsUnlimited) {
  Budget budget;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(budget.ChargeNodes());
    EXPECT_TRUE(budget.ChargeComparisons());
    EXPECT_TRUE(budget.Check());
  }
  EXPECT_FALSE(budget.exhausted());
  EXPECT_EQ(budget.nodes_visited(), 1000u);
  EXPECT_EQ(budget.comparisons(), 1000u);
}

TEST(BudgetTest, NodeCapTrips) {
  Budget budget;
  budget.set_node_cap(10);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(budget.ChargeNodes());
  EXPECT_FALSE(budget.ChargeNodes());
  EXPECT_TRUE(budget.exhausted());
  EXPECT_EQ(budget.exhaustion_code(), Code::kResourceExhausted);
  // Counters keep accumulating after the trip.
  EXPECT_EQ(budget.nodes_visited(), 11u);
}

TEST(BudgetTest, ComparisonCapTrips) {
  Budget budget;
  budget.set_comparison_cap(5);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(budget.ChargeComparisons());
  EXPECT_FALSE(budget.ChargeComparisons());
  EXPECT_TRUE(budget.exhausted());
  EXPECT_EQ(budget.exhaustion_code(), Code::kResourceExhausted);
  EXPECT_NE(budget.exhaustion_detail().find("comparison"), std::string::npos);
}

TEST(BudgetTest, ArenaCapTripsAndTracksPeak) {
  Budget budget;
  budget.set_arena_cap_bytes(1000);
  EXPECT_TRUE(budget.ChargeArena(600));
  budget.ReleaseArena(600);
  EXPECT_TRUE(budget.ChargeArena(900));
  EXPECT_EQ(budget.peak_arena_bytes(), 900u);
  EXPECT_FALSE(budget.ChargeArena(200));  // 900 + 200 > 1000.
  EXPECT_TRUE(budget.exhausted());
}

TEST(BudgetTest, DeadlineTrips) {
  Budget budget = Budget::Deadline(0.0);  // Already expired.
  EXPECT_FALSE(budget.CheckNow());
  EXPECT_TRUE(budget.exhausted());
  EXPECT_EQ(budget.exhaustion_code(), Code::kDeadlineExceeded);
}

TEST(BudgetTest, ExhaustionIsStickyUntilRearm) {
  Budget budget;
  budget.set_node_cap(1);
  EXPECT_TRUE(budget.ChargeNodes());
  EXPECT_FALSE(budget.ChargeNodes());
  EXPECT_FALSE(budget.Check());
  EXPECT_FALSE(budget.ChargeComparisons());  // Sticky across probe kinds.
  budget.Rearm();
  EXPECT_FALSE(budget.exhausted());
  EXPECT_TRUE(budget.Check());
}

TEST(BudgetTest, CouldAffordConsultsExplicitCaps) {
  Budget budget;
  budget.set_node_cap(100).set_arena_cap_bytes(1 << 20);
  EXPECT_TRUE(budget.CouldAfford(50, 0, 1 << 10));
  EXPECT_FALSE(budget.CouldAfford(200, 0, 0));
  EXPECT_FALSE(budget.CouldAfford(0, 0, 2 << 20));
}

TEST(BudgetTest, ToStatusNamesTrippedLimit) {
  Budget budget;
  budget.set_node_cap(3);
  while (budget.ChargeNodes()) {
  }
  Status st = budget.ToStatus();
  EXPECT_EQ(st.code(), Code::kResourceExhausted);
  EXPECT_NE(st.message().find("node"), std::string::npos);
}

TEST(BudgetTest, NullSafeHelpers) {
  EXPECT_TRUE(BudgetOk(nullptr));
  EXPECT_TRUE(BudgetCheck(nullptr));
  EXPECT_TRUE(BudgetCheckNow(nullptr));
  EXPECT_TRUE(BudgetChargeNodes(nullptr));
  EXPECT_TRUE(BudgetChargeComparisons(nullptr));
  EXPECT_TRUE(BudgetChargeArena(nullptr, 100));
  BudgetReleaseArena(nullptr, 100);  // Must not crash.
}

TEST(BudgetTest, IsExhaustionClassifiesCodes) {
  EXPECT_TRUE(IsExhaustion(Code::kResourceExhausted));
  EXPECT_TRUE(IsExhaustion(Code::kDeadlineExceeded));
  EXPECT_FALSE(IsExhaustion(Code::kOk));
  EXPECT_FALSE(IsExhaustion(Code::kInvalidArgument));
}

// ---------------------------------------------------------------------------
// Degradation-ladder tests.
// ---------------------------------------------------------------------------

struct LadderFixture {
  std::shared_ptr<LabelTable> labels = std::make_shared<LabelTable>();
  Vocabulary vocab{300, 1.0};

  Tree Parse(const std::string& s) { return *ParseSexpr(s, labels); }

  // A moderately sized document pair with known edits.
  std::pair<Tree, Tree> DocumentPair(int sections, int edits) {
    Rng rng(42);
    DocGenParams params;
    params.sections = sections;
    Tree t1 = GenerateDocument(params, vocab, &rng, labels);
    SimulatedVersion v = SimulateNewVersion(t1, edits, {}, vocab, &rng);
    return {std::move(t1), std::move(v.new_tree)};
  }
};

TEST(DiffLadderTest, NoBudgetStaysOnRequestedRung) {
  LadderFixture f;
  auto [t1, t2] = f.DocumentPair(4, 10);
  auto result = DiffTrees(t1, t2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->report.rung, DiffRung::kFastMatch);
  EXPECT_FALSE(result->report.degraded);
}

TEST(DiffLadderTest, AmpleBudgetDoesNotDegrade) {
  LadderFixture f;
  auto [t1, t2] = f.DocumentPair(4, 10);
  Budget budget;  // Unlimited, but counting.
  DiffOptions options;
  options.budget = &budget;
  auto result = DiffTrees(t1, t2, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->report.rung, DiffRung::kFastMatch);
  EXPECT_FALSE(result->report.degraded);
  EXPECT_EQ(budget.exhaustion_code(), Code::kOk);
  EXPECT_GT(budget.nodes_visited(), 0u);
  EXPECT_GT(budget.comparisons(), 0u);
  EXPECT_GE(budget.elapsed_seconds(), 0.0);
}

TEST(DiffLadderTest, OptimalZsRungHonoredWhenAffordable) {
  LadderFixture f;
  Tree t1 = f.Parse("(D (P (S \"alpha beta\") (S \"gamma delta\")))");
  Tree t2 = f.Parse("(D (P (S \"alpha beta\") (S \"gamma epsilon\")))");
  DiffOptions options;
  options.start_rung = DiffRung::kOptimalZs;
  auto result = DiffTrees(t1, t2, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->report.rung, DiffRung::kOptimalZs);
  EXPECT_FALSE(result->report.degraded);
  Tree replay = t1.Clone();
  ASSERT_TRUE(result->script.ApplyTo(&replay).ok());
  EXPECT_TRUE(Tree::Isomorphic(replay, t2));
}

TEST(DiffLadderTest, ZsPreflightSkipsToFastMatchWhenTableTooBig) {
  LadderFixture f;
  auto [t1, t2] = f.DocumentPair(4, 5);
  Budget budget;
  // Arena cap far below the (n1+1)*(n2+1)*8 ZS table: the pre-flight skips
  // the ZS rung without burning the budget, and FastMatch runs normally.
  budget.set_arena_cap_bytes(64);
  DiffOptions options;
  options.budget = &budget;
  options.start_rung = DiffRung::kOptimalZs;
  auto result = DiffTrees(t1, t2, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->report.rung, DiffRung::kFastMatch);
  EXPECT_TRUE(result->report.degraded);
  Tree replay = t1.Clone();
  ASSERT_TRUE(result->script.ApplyTo(&replay).ok());
  EXPECT_TRUE(Tree::Isomorphic(replay, t2));
}

TEST(DiffLadderTest, ExpiredDeadlineFallsToStructuralRung) {
  LadderFixture f;
  auto [t1, t2] = f.DocumentPair(6, 20);
  Budget budget = Budget::Deadline(0.0);  // Expired before we start.
  DiffOptions options;
  options.budget = &budget;
  auto result = DiffTrees(t1, t2, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->report.rung, DiffRung::kKeyedStructural);
  EXPECT_TRUE(result->report.degraded);
  EXPECT_EQ(budget.exhaustion_code(), Code::kDeadlineExceeded);
  EXPECT_FALSE(budget.exhaustion_detail().empty());
  // The degraded script still transforms t1 into t2.
  Tree replay = t1.Clone();
  ASSERT_TRUE(result->script.ApplyTo(&replay).ok());
  EXPECT_TRUE(Tree::Isomorphic(replay, t2));
}

TEST(DiffLadderTest, TinyComparisonCapFallsToStructuralRung) {
  LadderFixture f;
  auto [t1, t2] = f.DocumentPair(6, 20);
  Budget budget;
  budget.set_comparison_cap(3);
  DiffOptions options;
  options.budget = &budget;
  auto result = DiffTrees(t1, t2, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->report.rung, DiffRung::kKeyedStructural);
  EXPECT_TRUE(result->report.degraded);
  EXPECT_EQ(budget.exhaustion_code(), Code::kResourceExhausted);
  Tree replay = t1.Clone();
  ASSERT_TRUE(result->script.ApplyTo(&replay).ok());
  EXPECT_TRUE(Tree::Isomorphic(replay, t2));
}

TEST(DiffLadderTest, NodeCapTripsScriptGenFallsToTopLevelReplace) {
  LadderFixture f;
  auto [t1, t2] = f.DocumentPair(4, 10);
  // Matching charges ~2n node visits and generation ~2n more; a cap around
  // 3n lets matching finish but trips generation, which is the only path
  // down to the kTopLevelReplace rung.
  const size_t n = t1.size() + t2.size();
  Budget budget;
  budget.set_node_cap(n + n / 2);
  DiffOptions options;
  options.budget = &budget;
  auto result = DiffTrees(t1, t2, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->report.degraded);
  EXPECT_EQ(budget.exhaustion_code(), Code::kResourceExhausted);
  Tree replay = t1.Clone();
  ASSERT_TRUE(result->script.ApplyTo(&replay).ok());
  EXPECT_TRUE(Tree::Isomorphic(replay, t2));
  // The counters describe the returned bare replace, not the discarded
  // half-built script.
  EXPECT_EQ(result->report.rung, DiffRung::kTopLevelReplace);
  EXPECT_EQ(result->script.num_moves(), 0u);
  EXPECT_EQ(result->report.intra_parent_moves, 0u);
  EXPECT_EQ(result->report.inter_parent_moves, 0u);
  EXPECT_EQ(result->report.weighted_edit_distance, result->script.size());
}

TEST(DiffLadderTest, RequestedTopLevelReplaceIsBareReplace) {
  LadderFixture f;
  auto [t1, t2] = f.DocumentPair(3, 5);
  DiffOptions options;
  options.start_rung = DiffRung::kTopLevelReplace;
  auto result = DiffTrees(t1, t2, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->report.rung, DiffRung::kTopLevelReplace);
  EXPECT_FALSE(result->report.degraded);  // We asked for it.
  // Everything except the root is deleted and re-inserted.
  EXPECT_EQ(result->script.num_deletes(), t1.size() - 1);
  EXPECT_EQ(result->script.num_inserts(), t2.size() - 1);
  Tree replay = t1.Clone();
  ASSERT_TRUE(result->script.ApplyTo(&replay).ok());
  EXPECT_TRUE(Tree::Isomorphic(replay, t2));
}

TEST(DiffLadderTest, EveryRungNameIsPrintable) {
  EXPECT_STREQ(DiffRungName(DiffRung::kOptimalZs), "OptimalZs");
  EXPECT_STREQ(DiffRungName(DiffRung::kFastMatch), "FastMatch");
  EXPECT_STREQ(DiffRungName(DiffRung::kKeyedStructural), "KeyedStructural");
  EXPECT_STREQ(DiffRungName(DiffRung::kTopLevelReplace), "TopLevelReplace");
}

// The ISSUE acceptance scenario: a 1 ms deadline on a ~10k-node pair must
// come back OK, quickly, on a degraded rung, with an applying script.
TEST(DiffLadderTest, MillisecondDeadlineOnTenThousandNodePair) {
  LadderFixture f;
  Rng rng(7);
  DocGenParams params;
  params.sections = 60;  // ~5k nodes per tree.
  Tree t1 = GenerateDocument(params, f.vocab, &rng, f.labels);
  SimulatedVersion v = SimulateNewVersion(t1, 50, {}, f.vocab, &rng);
  Tree t2 = std::move(v.new_tree);

  Budget budget = Budget::Deadline(0.001);
  DiffOptions options;
  options.budget = &budget;
  auto result = DiffTrees(t1, t2, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->report.degraded);
  EXPECT_EQ(budget.exhaustion_code(), Code::kDeadlineExceeded);
  Tree replay = t1.Clone();
  ASSERT_TRUE(result->script.ApplyTo(&replay).ok());
  EXPECT_TRUE(Tree::Isomorphic(replay, t2));
}

// Duplicate fan-out: 64,000 identical sentences, one appended in the new
// version. The share-map pre-pass runs before the budget is consulted, so
// it must stay linear in duplicates (one cursor step per spent twin) for
// FastMatch to see the deadline intact; a pre-pass that rescans its
// candidates per lookup takes seconds here and degrades the request.
TEST(DiffLadderTest, DuplicateFanOutMeetsItsDeadlineOnFastMatch) {
  auto labels = std::make_shared<LabelTable>();
  Tree t1(labels);
  Tree t2(labels);
  const NodeId r1 = t1.AddRoot("D");
  const NodeId r2 = t2.AddRoot("D");
  constexpr int kLeaves = 64000;
  for (int i = 0; i < kLeaves; ++i) {
    t1.AddChild(r1, "S", "the same sentence again");
    t2.AddChild(r2, "S", "the same sentence again");
  }
  t2.AddChild(r2, "S", "the same sentence again");
  // Indexes built up front, as the service's tree cache holds them: the
  // deadline covers the diff, not the parse.
  TreeIndex i1(t1);
  TreeIndex i2(t2);
  i1.WarmAll();
  i2.WarmAll();

  Budget budget = Budget::Deadline(0.5);
  DiffOptions options;
  options.share_mode = ShareMode::kIndexed;
  options.index1 = &i1;
  options.index2 = &i2;
  options.budget = &budget;
  auto result = DiffTrees(t1, t2, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->report.rung, DiffRung::kFastMatch);
  EXPECT_FALSE(result->report.degraded);
  EXPECT_EQ(result->report.prune_settled_subtrees, size_t{kLeaves});
  ASSERT_EQ(result->script.size(), 1u);
  EXPECT_EQ(result->script.num_inserts(), 1u);
  Tree replay = t1.Clone();
  ASSERT_TRUE(result->script.ApplyTo(&replay).ok());
  EXPECT_TRUE(Tree::Isomorphic(replay, t2));
}

}  // namespace
}  // namespace treediff
