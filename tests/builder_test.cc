#include "tree/builder.h"

#include <gtest/gtest.h>

#include <memory>

namespace treediff {
namespace {

TEST(ParseSexprTest, SingleNode) {
  auto tree = ParseSexpr("(D)");
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->size(), 1u);
  EXPECT_EQ(tree->label_name(tree->root()), "D");
  EXPECT_EQ(tree->value(tree->root()), "");
}

TEST(ParseSexprTest, NodeWithValue) {
  auto tree = ParseSexpr("(S \"hello world\")");
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->value(tree->root()), "hello world");
}

TEST(ParseSexprTest, EscapedQuotesAndBackslashes) {
  auto tree = ParseSexpr(R"((S "say \"hi\" and \\"))");
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->value(tree->root()), "say \"hi\" and \\");
}

TEST(ParseSexprTest, NestedStructureRoundTrips) {
  const std::string text = "(D (P (S \"a\") (S \"b\")) (P (S \"c\")))";
  auto tree = ParseSexpr(text);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->ToDebugString(), text);
  EXPECT_EQ(tree->size(), 6u);
  EXPECT_TRUE(tree->Validate().ok());
}

TEST(ParseSexprTest, WhitespaceIsFlexible) {
  auto tree = ParseSexpr("  ( D\n  (P   (S \"a\"))\t)  ");
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->ToDebugString(), "(D (P (S \"a\")))");
}

TEST(ParseSexprTest, InternalNodeWithValue) {
  auto tree = ParseSexpr("(section \"Intro\" (paragraph (sentence \"x.\")))");
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->value(tree->root()), "Intro");
  EXPECT_EQ(tree->children(tree->root()).size(), 1u);
}

TEST(ParseSexprTest, SharedLabelTable) {
  auto labels = std::make_shared<LabelTable>();
  auto t1 = ParseSexpr("(D (S \"a\"))", labels);
  auto t2 = ParseSexpr("(D (S \"b\"))", labels);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t1->label_table().get(), t2->label_table().get());
  EXPECT_EQ(t1->label(t1->root()), t2->label(t2->root()));
}

TEST(ParseSexprTest, ErrorOnMissingParen) {
  EXPECT_EQ(ParseSexpr("(D (P)").status().code(), Code::kParseError);
}

TEST(ParseSexprTest, ErrorOnTrailingGarbage) {
  EXPECT_EQ(ParseSexpr("(D) extra").status().code(), Code::kParseError);
}

TEST(ParseSexprTest, ErrorOnMissingLabel) {
  EXPECT_EQ(ParseSexpr("()").status().code(), Code::kParseError);
  EXPECT_EQ(ParseSexpr("(\"value-only\")").status().code(),
            Code::kParseError);
}

TEST(ParseSexprTest, ErrorOnEmptyInput) {
  EXPECT_EQ(ParseSexpr("").status().code(), Code::kParseError);
  EXPECT_EQ(ParseSexpr("   ").status().code(), Code::kParseError);
}

TEST(ParseSexprTest, ErrorOnUnterminatedString) {
  EXPECT_EQ(ParseSexpr("(S \"unterminated)").status().code(),
            Code::kParseError);
}

TEST(ParseSexprTest, DeepNesting) {
  std::string text;
  for (int i = 0; i < 50; ++i) text += "(N ";
  text += "(L \"x\")";
  for (int i = 0; i < 50; ++i) text += ")";
  auto tree = ParseSexpr(text);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->size(), 51u);
  int depth = 0;
  for (NodeId x = tree->root(); !tree->IsLeaf(x); x = tree->children(x)[0]) {
    ++depth;
  }
  EXPECT_EQ(depth, 50);
}

}  // namespace
}  // namespace treediff
