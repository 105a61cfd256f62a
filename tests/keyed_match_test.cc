#include "core/keyed_match.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>

#include "core/diff.h"
#include "core/edit_script_gen.h"
#include "tree/builder.h"
#include "tree/tree_index.h"

namespace treediff {
namespace {

struct Fixture {
  std::shared_ptr<LabelTable> labels = std::make_shared<LabelTable>();
  WordLcsComparator cmp;

  Tree Parse(const std::string& s) { return *ParseSexpr(s, labels); }
};

TEST(ValuePrefixKeyTest, ExtractsKeyToken) {
  Fixture f;
  Tree t = f.Parse(
      "(D (R \"key=778899 pillar at x=3 y=4\") (R \"no key here\") "
      "(R \"key=12\"))");
  auto kids = t.children(t.root());
  EXPECT_EQ(ValuePrefixKey(t, kids[0]), std::optional<std::string>("778899"));
  EXPECT_EQ(ValuePrefixKey(t, kids[1]), std::nullopt);
  EXPECT_EQ(ValuePrefixKey(t, kids[2]), std::optional<std::string>("12"));
  EXPECT_EQ(ValuePrefixKey(t, t.root()), std::nullopt);
}

TEST(KeyedMatchTest, MatchesByKeyAcrossPositionsAndValues) {
  Fixture f;
  // Records reordered AND updated: keys still pair them up directly.
  Tree t1 = f.Parse(
      "(D (R \"key=a height 10\") (R \"key=b height 20\") "
      "(R \"key=c height 30\"))");
  Tree t2 = f.Parse(
      "(D (R \"key=c height 31\") (R \"key=a height 10\") "
      "(R \"key=b height 99\"))");
  Matching m = ComputeKeyedMatch(t1, t2, ValuePrefixKey);
  EXPECT_EQ(m.size(), 3u);
  auto k1 = t1.children(t1.root());
  auto k2 = t2.children(t2.root());
  EXPECT_EQ(m.PartnerOfT1(k1[0]), k2[1]);  // key=a.
  EXPECT_EQ(m.PartnerOfT1(k1[1]), k2[2]);  // key=b.
  EXPECT_EQ(m.PartnerOfT1(k1[2]), k2[0]);  // key=c.
}

TEST(KeyedMatchTest, ZeroCompareCalls) {
  Fixture f;
  Tree t1 = f.Parse("(D (R \"key=a v1\") (R \"key=b v2\"))");
  Tree t2 = f.Parse("(D (R \"key=b v2x\") (R \"key=a v1\"))");
  CriteriaEvaluator eval(t1, t2, &f.cmp, {});
  Matching m = ComputeHybridMatch(t1, t2, ValuePrefixKey, eval);
  EXPECT_EQ(m.size(), 3u);  // Both records and the roots.
  EXPECT_EQ(eval.compare_calls(), 0u);  // The whole point of the fast path.
}

TEST(KeyedMatchTest, DuplicateKeysVoided) {
  Fixture f;
  Tree t1 = f.Parse("(D (R \"key=dup a\") (R \"key=dup b\"))");
  Tree t2 = f.Parse("(D (R \"key=dup a\"))");
  Matching m = ComputeKeyedMatch(t1, t2, ValuePrefixKey);
  EXPECT_EQ(m.size(), 0u);  // Uniqueness guarantee void on the T1 side.
}

TEST(KeyedMatchTest, LabelsPartitionKeySpaces) {
  Fixture f;
  // Same key under different labels: no cross-label match.
  Tree t1 = f.Parse("(D (A \"key=7 x\"))");
  Tree t2 = f.Parse("(D (B \"key=7 x\"))");
  Matching m = ComputeKeyedMatch(t1, t2, ValuePrefixKey);
  EXPECT_EQ(m.size(), 0u);
}

TEST(KeyedMatchTest, VanishedKeysStayUnmatched) {
  Fixture f;
  Tree t1 = f.Parse("(D (R \"key=gone old\"))");
  Tree t2 = f.Parse("(D (R \"key=new fresh\"))");
  Matching m = ComputeKeyedMatch(t1, t2, ValuePrefixKey);
  EXPECT_EQ(m.size(), 0u);
}

TEST(HybridMatchTest, KeyedPlusValueBasedRemainder) {
  Fixture f;
  // Keyed records plus keyless prose: the hybrid matches records by key
  // (even heavily updated ones the value criteria would reject) and prose
  // by value.
  Tree t1 = f.Parse(
      "(D (R \"key=p1 completely original content\") "
      "(P (S \"shared prose sentence\")))");
  Tree t2 = f.Parse(
      "(D (R \"key=p1 entirely different text now\") "
      "(P (S \"shared prose sentence\")))");
  CriteriaEvaluator eval(t1, t2, &f.cmp, {});
  Matching m = ComputeHybridMatch(t1, t2, ValuePrefixKey, eval);
  // R by key, S by value, P by common leaves, D by common leaves.
  EXPECT_EQ(m.size(), 4u);
  EXPECT_EQ(m.PartnerOfT1(t1.children(t1.root())[0]),
            t2.children(t2.root())[0]);
}

TEST(HybridMatchTest, FeedsEditScriptGeneration) {
  Fixture f;
  Tree t1 = f.Parse(
      "(D (R \"key=a alpha\") (R \"key=b beta\") (P (S \"x y z\")))");
  Tree t2 = f.Parse(
      "(D (R \"key=b BETA updated\") (P (S \"x y z\")) (R \"key=a alpha\"))");
  CriteriaEvaluator eval(t1, t2, &f.cmp, {});
  Matching m = ComputeHybridMatch(t1, t2, ValuePrefixKey, eval);
  auto result = GenerateEditScript(t1, t2, m, &f.cmp);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(Tree::Isomorphic(result->transformed, t2));
  // The keyed record's rewrite is an update, not delete+insert.
  EXPECT_EQ(result->script.num_updates(), 1u);
  EXPECT_EQ(result->script.num_deletes(), 0u);
}

TEST(HybridMatchTest, LeafInternalKindsRespected) {
  Fixture f;
  // A keyed internal node vs a keyed leaf with the same key: must not pair.
  Tree t1 = f.Parse("(D (R \"key=k\" (S \"child\")))");
  Tree t2 = f.Parse("(D (R \"key=k\"))");
  Matching m = ComputeKeyedMatch(t1, t2, ValuePrefixKey);
  EXPECT_EQ(m.size(), 0u);
}

TEST(StructuralMatchTest, DuplicateLeafDoesNotBreakALaterWholesalePair) {
  Fixture f;
  // The first "x" pairs with the "x" inside T2's first paragraph; the
  // second T1 paragraph is identical to that paragraph but may no longer
  // pair with it wholesale, since its "x" is taken.
  Tree t1 = f.Parse("(D (P (S \"a\") (S \"x\")) (P (S \"x\") (S \"y\")))");
  Tree t2 = f.Parse("(D (P (S \"x\") (S \"y\")) (P (S \"b\")))");
  Matching m = ComputeStructuralMatch(t1, t2);
  for (const auto& [x, y] : m.Pairs()) {
    EXPECT_EQ(m.PartnerOfT2(y), x) << "pair (" << x << ", " << y << ")";
  }
  auto script = GenerateEditScript(t1, t2, m);
  ASSERT_TRUE(script.ok()) << script.status().ToString();
}

// 64,000 identical sentences, one appended in T2: every T1 sentence has
// 64,001 fingerprint twins. Pass 1 keeps a cursor past the matched front
// of each share-map chain, so the run is linear (a few milliseconds in an
// optimized build); rescanning a chain from its head per lookup is
// quadratic and takes seconds. The bound sits far above the linear cost
// and far below the quadratic one, and holds under sanitizers.
TEST(StructuralMatchTest, IdenticalLeafFanOutTakesLinearTime) {
  Fixture f;
  Tree t1(f.labels);
  Tree t2(f.labels);
  const NodeId r1 = t1.AddRoot("D");
  const NodeId r2 = t2.AddRoot("D");
  constexpr int kLeaves = 64000;
  for (int i = 0; i < kLeaves; ++i) {
    t1.AddChild(r1, "S", "the same sentence again");
    t2.AddChild(r2, "S", "the same sentence again");
  }
  t2.AddChild(r2, "S", "the same sentence again");
  TreeIndex i1(t1);
  TreeIndex i2(t2);
  i1.WarmAll();
  i2.WarmAll();

  const auto start = std::chrono::steady_clock::now();
  Matching m = ComputeStructuralMatch(t1, t2);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  EXPECT_LT(ms, 400.0);
  // Greedy in document order: the i-th sentence pairs with the i-th.
  ASSERT_EQ(m.size(), size_t{kLeaves} + 1);
  EXPECT_EQ(m.PartnerOfT1(r1), r2);
  for (int i = 0; i < kLeaves; ++i) {
    const size_t k = static_cast<size_t>(i);
    ASSERT_EQ(m.PartnerOfT1(t1.children(r1)[k]), t2.children(r2)[k]) << i;
  }

  // The whole rung, as a budget trip or a caller request reaches it: one
  // inserted sentence.
  DiffOptions options;
  options.share_mode = ShareMode::kOff;
  options.start_rung = DiffRung::kKeyedStructural;
  options.index1 = &i1;
  options.index2 = &i2;
  auto result = DiffTrees(t1, t2, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->report.rung, DiffRung::kKeyedStructural);
  EXPECT_FALSE(result->report.degraded);
  EXPECT_EQ(result->script.size(), 1u);
  EXPECT_EQ(result->script.num_inserts(), 1u);
}

}  // namespace
}  // namespace treediff
