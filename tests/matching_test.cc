#include "core/matching.h"

#include <gtest/gtest.h>

namespace treediff {
namespace {

TEST(MatchingTest, EmptyMatching) {
  Matching m(5, 5);
  EXPECT_EQ(m.size(), 0u);
  EXPECT_FALSE(m.HasT1(0));
  EXPECT_FALSE(m.HasT2(4));
  EXPECT_EQ(m.PartnerOfT1(3), kInvalidNode);
  EXPECT_EQ(m.PartnerOfT2(3), kInvalidNode);
}

TEST(MatchingTest, AddAndLookupBothDirections) {
  Matching m(4, 4);
  m.Add(1, 2);
  m.Add(0, 3);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.PartnerOfT1(1), 2);
  EXPECT_EQ(m.PartnerOfT2(2), 1);
  EXPECT_EQ(m.PartnerOfT1(0), 3);
  EXPECT_EQ(m.PartnerOfT2(3), 0);
  EXPECT_TRUE(m.Contains(1, 2));
  EXPECT_FALSE(m.Contains(1, 3));
  EXPECT_FALSE(m.Contains(2, 2));
}

TEST(MatchingTest, RemoveRestoresUnmatchedState) {
  Matching m(3, 3);
  m.Add(1, 1);
  m.Remove(1, 1);
  EXPECT_EQ(m.size(), 0u);
  EXPECT_FALSE(m.HasT1(1));
  EXPECT_FALSE(m.HasT2(1));
  m.Add(1, 2);  // Re-adding after removal is legal.
  EXPECT_TRUE(m.Contains(1, 2));
}

TEST(MatchingTest, OutOfRangeLookupsAreInvalidNotFatal) {
  Matching m(2, 2);
  EXPECT_EQ(m.PartnerOfT1(-1), kInvalidNode);
  EXPECT_EQ(m.PartnerOfT1(99), kInvalidNode);
  EXPECT_EQ(m.PartnerOfT2(99), kInvalidNode);
}

TEST(MatchingTest, PairsAscendingByT1) {
  Matching m(6, 6);
  m.Add(4, 0);
  m.Add(1, 5);
  m.Add(2, 2);
  auto pairs = m.Pairs();
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0], (std::pair<NodeId, NodeId>{1, 5}));
  EXPECT_EQ(pairs[1], (std::pair<NodeId, NodeId>{2, 2}));
  EXPECT_EQ(pairs[2], (std::pair<NodeId, NodeId>{4, 0}));
}

}  // namespace
}  // namespace treediff
