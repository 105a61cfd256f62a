#include "core/diff.h"

#include <gtest/gtest.h>

#include <memory>

#include "tree/builder.h"

namespace treediff {
namespace {

struct Fixture {
  std::shared_ptr<LabelTable> labels = std::make_shared<LabelTable>();

  Tree Parse(const std::string& s) { return *ParseSexpr(s, labels); }
};

TEST(DiffTreesTest, IdenticalTreesEmptyScript) {
  Fixture f;
  Tree t1 = f.Parse("(D (P (S \"hello world now\")))");
  Tree t2 = f.Parse("(D (P (S \"hello world now\")))");
  auto result = DiffTrees(t1, t2);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->script.empty());
  EXPECT_DOUBLE_EQ(result->script.TotalCost(), 0.0);
  EXPECT_EQ(result->script.size(), 0u);
  EXPECT_EQ(result->matching.size(), 3u);
}

TEST(DiffTreesTest, EndToEndMixedEdits) {
  Fixture f;
  Tree t1 = f.Parse(
      "(D (P (S \"the quick brown fox\") (S \"jumped over dogs\") "
      "(S \"stable line one\")) (P (S \"stable line two\") "
      "(S \"stable line three\")))");
  Tree t2 = f.Parse(
      "(D (P (S \"the quick brown wolf\") (S \"stable line one\")) "
      "(P (S \"stable line two\") (S \"stable line three\") "
      "(S \"totally fresh sentence\")))");
  auto result = DiffTrees(t1, t2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->script.num_updates(), 1u);  // fox -> wolf.
  EXPECT_EQ(result->script.num_deletes(), 1u);  // "jumped over dogs".
  EXPECT_EQ(result->script.num_inserts(), 1u);  // fresh sentence.
  // Verify by replay.
  Tree replay = t1.Clone();
  ASSERT_TRUE(result->script.ApplyTo(&replay).ok());
  EXPECT_TRUE(Tree::Isomorphic(replay, t2));
}

TEST(DiffTreesTest, StatsCountersPopulated) {
  Fixture f;
  Tree t1 = f.Parse("(D (P (S \"a b c\") (S \"d e f\")))");
  Tree t2 = f.Parse("(D (P (S \"a b c\") (S \"x y z\")))");
  auto result = DiffTrees(t1, t2);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->report.compare_calls, 0u);
  EXPECT_GT(result->report.partner_checks, 0u);
  EXPECT_GE(result->report.match_seconds, 0.0);
  EXPECT_GE(result->report.script_seconds, 0.0);
  EXPECT_EQ(result->script.num_inserts() + result->script.num_deletes() +
                result->script.num_updates() + result->script.num_moves(),
            result->script.size());
}

TEST(DiffTreesTest, MatchVsFastMatchProduceEquivalentScripts) {
  Fixture f;
  Tree t1 = f.Parse(
      "(D (P (S \"one one one\") (S \"two two two\")) "
      "(P (S \"three three three\")))");
  Tree t2 = f.Parse(
      "(D (P (S \"one one one\")) "
      "(P (S \"three three three\") (S \"two two two\")))");
  DiffOptions fast;
  fast.use_fast_match = true;
  DiffOptions slow;
  slow.use_fast_match = false;
  auto r1 = DiffTrees(t1, t2, fast);
  auto r2 = DiffTrees(t1, t2, slow);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_DOUBLE_EQ(r1->script.TotalCost(), r2->script.TotalCost());
}

TEST(DiffTreesTest, CustomComparatorIsUsed) {
  Fixture f;
  Tree t1 = f.Parse("(D (S \"abc\"))");
  Tree t2 = f.Parse("(D (S \"abd\"))");
  ExactComparator exact;
  DiffOptions options;
  options.comparator = &exact;
  auto result = DiffTrees(t1, t2, options);
  ASSERT_TRUE(result.ok());
  // Exact comparator: distance 2 > f, so the leaves cannot match; the
  // script deletes and re-inserts instead of updating.
  EXPECT_EQ(result->script.num_updates(), 0u);
  EXPECT_EQ(result->script.num_inserts(), 1u);
  EXPECT_EQ(result->script.num_deletes(), 1u);
  EXPECT_GT(result->report.compare_calls, 0u);
}

TEST(DiffTreesTest, CompareCallsCountOnlyThisDiff) {
  // r1 is counted per diff, not on the comparator: a comparator reused
  // across diffs reports each diff's own probes.
  Fixture f;
  Tree t1 = f.Parse("(D (P (S \"a b\") (S \"c d\")) (P (S \"e f\")))");
  Tree t2 = f.Parse("(D (P (S \"c d\") (S \"a x\")) (P (S \"g h\")))");
  ExactComparator shared;
  DiffOptions options;
  options.comparator = &shared;
  auto first = DiffTrees(t1, t2, options);
  auto second = DiffTrees(t1, t2, options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_GT(first->report.compare_calls, 0u);
  EXPECT_EQ(second->report.compare_calls, first->report.compare_calls);
}

TEST(DiffTreesTest, ThresholdValidation) {
  Fixture f;
  Tree t1 = f.Parse("(D (S \"a\"))");
  Tree t2 = f.Parse("(D (S \"a\"))");
  DiffOptions bad_f;
  bad_f.leaf_threshold_f = 1.5;
  EXPECT_EQ(DiffTrees(t1, t2, bad_f).status().code(),
            Code::kInvalidArgument);
  DiffOptions bad_t;
  bad_t.internal_threshold_t = 0.3;
  EXPECT_EQ(DiffTrees(t1, t2, bad_t).status().code(),
            Code::kInvalidArgument);
}

TEST(DiffTreesTest, RejectsEmptyAndMismatchedTables) {
  Fixture f;
  Tree t1 = f.Parse("(D (S \"a\"))");
  Tree empty(f.labels);
  EXPECT_EQ(DiffTrees(t1, empty).status().code(), Code::kInvalidArgument);
  Tree other = *ParseSexpr("(D (S \"a\"))");  // Own label table.
  EXPECT_EQ(DiffTrees(t1, other).status().code(), Code::kInvalidArgument);
}

TEST(DiffTreesTest, WeightedDistanceTracksSubtreeMoves) {
  Fixture f;
  // Each section keeps 4 of its leaves in place (ratio 4/6 > 0.6), so both
  // sections stay matched and the paragraph move is detected as one MOV of
  // a two-leaf subtree.
  Tree t1 = f.Parse(
      "(D (Sec (S \"a1 a1\") (S \"a2 a2\") (S \"a3 a3\") (S \"a4 a4\") "
      "(P (S \"m1 m1 m1\") (S \"m2 m2 m2\"))) "
      "(Sec (S \"b1 b1\") (S \"b2 b2\") (S \"b3 b3\") (S \"b4 b4\")))");
  Tree t2 = f.Parse(
      "(D (Sec (S \"a1 a1\") (S \"a2 a2\") (S \"a3 a3\") (S \"a4 a4\")) "
      "(Sec (S \"b1 b1\") (S \"b2 b2\") (S \"b3 b3\") (S \"b4 b4\") "
      "(P (S \"m1 m1 m1\") (S \"m2 m2 m2\"))))");
  auto result = DiffTrees(t1, t2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->script.num_moves(), 1u);
  EXPECT_EQ(result->report.weighted_edit_distance, 2u);
  EXPECT_EQ(result->script.size(), 1u);
}

TEST(DiffTreesTest, RootsForcedWhenCriteriaFail) {
  Fixture f;
  // Documents that share nothing: the criteria match no internal nodes, but
  // document roots are matched anyway so a script still exists.
  Tree t1 = f.Parse("(D (P (S \"aaa bbb ccc\")))");
  Tree t2 = f.Parse("(D (P (S \"xxx yyy zzz\")))");
  auto result = DiffTrees(t1, t2);
  ASSERT_TRUE(result.ok());
  Tree replay = t1.Clone();
  ASSERT_TRUE(result->script.ApplyTo(&replay).ok());
  EXPECT_TRUE(Tree::Isomorphic(replay, t2));
}

}  // namespace
}  // namespace treediff
