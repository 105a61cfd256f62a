#include "core/compare.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "testsupport/reference.h"
#include "tree/builder.h"
#include "util/random.h"

namespace treediff {
namespace {

class CompareTest : public ::testing::Test {
 protected:
  CompareTest() {
    auto labels = std::make_shared<LabelTable>();
    t1_ = *ParseSexpr(
        "(D (S \"the quick brown fox\") (S \"identical text\") (S \"\"))",
        labels);
    t2_ = *ParseSexpr(
        "(D (S \"the slow brown fox\") (S \"identical text\") (S \"\") "
        "(S \"completely different words here\"))",
        labels);
    a1_ = t1_.children(t1_.root())[0];
    b1_ = t1_.children(t1_.root())[1];
    e1_ = t1_.children(t1_.root())[2];
    a2_ = t2_.children(t2_.root())[0];
    b2_ = t2_.children(t2_.root())[1];
    e2_ = t2_.children(t2_.root())[2];
    d2_ = t2_.children(t2_.root())[3];
  }

  Tree t1_{nullptr}, t2_{nullptr};
  NodeId a1_, b1_, e1_, a2_, b2_, e2_, d2_;
};

TEST_F(CompareTest, ExactComparatorZeroOrTwo) {
  ExactComparator cmp;
  EXPECT_DOUBLE_EQ(cmp.Compare(t1_, b1_, t2_, b2_), 0.0);
  EXPECT_DOUBLE_EQ(cmp.Compare(t1_, a1_, t2_, a2_), 2.0);
}

TEST_F(CompareTest, WordLcsIdenticalIsZero) {
  WordLcsComparator cmp;
  EXPECT_DOUBLE_EQ(cmp.Compare(t1_, b1_, t2_, b2_), 0.0);
}

TEST_F(CompareTest, WordLcsOneWordChanged) {
  WordLcsComparator cmp;
  // 4 words each, LCS = 3: (4 + 4 - 6) / 4 = 0.5.
  EXPECT_DOUBLE_EQ(cmp.Compare(t1_, a1_, t2_, a2_), 0.5);
}

TEST_F(CompareTest, WordLcsDisjointIsTwo) {
  WordLcsComparator cmp;
  // "the quick brown fox" vs "completely different words here": LCS 0,
  // sizes 4 and 4: (8 - 0) / 4 = 2.
  EXPECT_DOUBLE_EQ(cmp.Compare(t1_, a1_, t2_, d2_), 2.0);
}

TEST_F(CompareTest, WordLcsEmptyValues) {
  WordLcsComparator cmp;
  EXPECT_DOUBLE_EQ(cmp.Compare(t1_, e1_, t2_, e2_), 0.0);
  // Empty vs non-empty: (0 + 4 - 0) / 4 = 1... wait, max(0, 4) = 4, so 1.0.
  EXPECT_DOUBLE_EQ(cmp.Compare(t1_, e1_, t2_, d2_), 1.0);
}

TEST_F(CompareTest, ResultIsSymmetricInValues) {
  WordLcsComparator cmp;
  EXPECT_DOUBLE_EQ(cmp.Compare(t1_, a1_, t2_, a2_),
                   WordLcsDistance(t1_.value(a1_), t2_.value(a2_)));
  EXPECT_DOUBLE_EQ(WordLcsDistance("a b c", "b c d"),
                   WordLcsDistance("b c d", "a b c"));
}

TEST_F(CompareTest, RangeIsAlwaysZeroToTwo) {
  const char* samples[] = {"", "a", "a b c d e", "x y", "a b x y",
                           "one two three four five six"};
  for (const char* a : samples) {
    for (const char* b : samples) {
      const double d = WordLcsDistance(a, b);
      EXPECT_GE(d, 0.0) << a << " vs " << b;
      EXPECT_LE(d, 2.0) << a << " vs " << b;
    }
  }
}

TEST(WordLcsComparatorTest, AgreesWithTheReferenceLcsOnRepeatedWords) {
  // The comparator computes the LCS by Hunt–Szymanski over each value's
  // sorted (word id, position) list; WordLcsDistance runs a plain LCS over
  // the word strings. A five-word vocabulary makes repeated words the
  // common case, where the position lists are longest.
  const char* words[] = {"a", "b", "c", "d", "e"};
  Rng rng(7);
  auto sentence = [&] {
    std::string s;
    const uint64_t n = rng.Uniform(12);
    for (uint64_t i = 0; i < n; ++i) {
      if (i > 0) s += ' ';
      s += words[rng.Uniform(5)];
    }
    return s;
  };
  auto labels = std::make_shared<LabelTable>();
  Tree t1(labels), t2(labels);
  const NodeId r1 = t1.AddRoot("D");
  const NodeId r2 = t2.AddRoot("D");
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 300; ++i) {
    pairs.push_back({t1.AddChild(r1, "S", sentence()),
                     t2.AddChild(r2, "S", sentence())});
  }
  WordLcsComparator cmp;
  for (const auto& [x, y] : pairs) {
    EXPECT_EQ(cmp.Compare(t1, x, t2, y),
              WordLcsDistance(t1.value(x), t2.value(y)))
        << "\"" << t1.value(x) << "\" vs \"" << t2.value(y) << "\"";
  }
}

TEST(WordLcsDistanceTest, NormalizationOption) {
  // Without normalization "The," != "the"; with it they match.
  EXPECT_GT(WordLcsDistance("The, end", "the end", false), 0.0);
  EXPECT_DOUBLE_EQ(WordLcsDistance("The, end", "the end", true), 0.0);
}

TEST(WordLcsDistanceTest, WordOrderMatters) {
  // LCS is order-sensitive: reversed word order scores poorly.
  EXPECT_GT(WordLcsDistance("a b c d", "d c b a"), 1.0);
}

TEST(WordLcsDistanceTest, MatchesPaperSentenceMetric) {
  // "computes the LCS of the words, then counts the number of words not in
  // the LCS": 5+5 words, 4 common -> (10-8)/5 = 0.4.
  EXPECT_DOUBLE_EQ(
      WordLcsDistance("one two three four five", "one two three four six"),
      0.4);
}

}  // namespace
}  // namespace treediff
