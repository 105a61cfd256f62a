#include "tree/schema.h"

#include <gtest/gtest.h>

#include <memory>

#include "tree/builder.h"

namespace treediff {
namespace {

TEST(LabelSchemaTest, RankLookup) {
  LabelTable labels;
  LabelSchema schema;
  LabelId a = labels.Intern("a");
  schema.SetRank(a, 3);
  EXPECT_EQ(schema.Rank(a), 3);
  EXPECT_EQ(schema.Rank(labels.Intern("unknown")), -1);
}

TEST(LabelSchemaTest, DocumentTreeSatisfiesAcyclicity) {
  auto labels = std::make_shared<LabelTable>();
  LabelSchema schema = MakeDocumentSchema(labels.get());
  auto tree = ParseSexpr(
      "(document (section \"h\" (paragraph (sentence \"a.\")) "
      "(list (item (paragraph (sentence \"b.\"))))))",
      labels);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(schema.CheckAcyclic(*tree).ok());
}

TEST(LabelSchemaTest, DetectsRankViolation) {
  auto labels = std::make_shared<LabelTable>();
  LabelSchema schema = MakeDocumentSchema(labels.get());
  // A section under a paragraph inverts the ordering.
  auto tree =
      ParseSexpr("(document (paragraph (section \"h\")))", labels);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(schema.CheckAcyclic(*tree).code(), Code::kFailedPrecondition);
}

TEST(LabelSchemaTest, DetectsEqualRankEdge) {
  auto labels = std::make_shared<LabelTable>();
  LabelSchema schema = MakeDocumentSchema(labels.get());
  // list inside list: equal ranks violate the strict ordering; the paper
  // merges list kinds precisely so nesting is governed by item in between.
  auto tree = ParseSexpr("(document (section \"h\" (list (list))))", labels);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(schema.CheckAcyclic(*tree).code(), Code::kFailedPrecondition);
}

TEST(LabelSchemaTest, UnknownLabelFailsCheck) {
  auto labels = std::make_shared<LabelTable>();
  LabelSchema schema = MakeDocumentSchema(labels.get());
  auto tree = ParseSexpr("(document (mystery))", labels);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(schema.CheckAcyclic(*tree).code(), Code::kFailedPrecondition);
}

TEST(LabelSchemaTest, EmptyTreePasses) {
  LabelTable labels;
  LabelSchema schema = MakeDocumentSchema(&labels);
  Tree empty;
  EXPECT_TRUE(schema.CheckAcyclic(empty).ok());
}

}  // namespace
}  // namespace treediff
