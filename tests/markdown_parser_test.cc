#include "doc/markdown_parser.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/diff.h"
#include "doc/markup.h"
#include "tree/schema.h"
#include "util/random.h"

namespace treediff {
namespace {

NodeId Child(const Tree& t, NodeId x, size_t i) { return t.children(x)[i]; }

TEST(MarkdownParserTest, HeadingsAndParagraphs) {
  auto tree = ParseMarkdown(
      "# Title\n\nFirst sentence. Second one.\n\n## Sub\n\nMore text here.");
  ASSERT_TRUE(tree.ok());
  NodeId doc = tree->root();
  ASSERT_EQ(tree->children(doc).size(), 1u);
  NodeId sec = Child(*tree, doc, 0);
  EXPECT_EQ(tree->label_name(sec), "section");
  EXPECT_EQ(tree->value(sec), "Title");
  ASSERT_EQ(tree->children(sec).size(), 2u);
  NodeId para = Child(*tree, sec, 0);
  EXPECT_EQ(tree->label_name(para), "paragraph");
  ASSERT_EQ(tree->children(para).size(), 2u);
  EXPECT_EQ(tree->value(Child(*tree, para, 0)), "First sentence.");
  NodeId sub = Child(*tree, sec, 1);
  EXPECT_EQ(tree->label_name(sub), "subsection");
  EXPECT_EQ(tree->value(sub), "Sub");
}

TEST(MarkdownParserTest, MultiLineParagraphJoins) {
  auto tree = ParseMarkdown("A sentence\nspread over lines. Second.");
  ASSERT_TRUE(tree.ok());
  NodeId para = Child(*tree, tree->root(), 0);
  ASSERT_EQ(tree->children(para).size(), 2u);
  EXPECT_EQ(tree->value(Child(*tree, para, 0)),
            "A sentence spread over lines.");
}

TEST(MarkdownParserTest, BulletKindsMergeIntoOneList) {
  auto tree = ParseMarkdown("- Alpha one.\n- Beta two.\n* Gamma three.");
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(tree->children(tree->root()).size(), 1u);
  NodeId list = Child(*tree, tree->root(), 0);
  EXPECT_EQ(tree->label_name(list), "list");
  EXPECT_EQ(tree->children(list).size(), 3u);
  NodeId item = Child(*tree, list, 0);
  EXPECT_EQ(tree->label_name(item), "item");
  NodeId para = Child(*tree, item, 0);
  EXPECT_EQ(tree->value(Child(*tree, para, 0)), "Alpha one.");
}

TEST(MarkdownParserTest, OrderedListItems) {
  auto tree = ParseMarkdown("1. First one.\n2. Second one.\n10. Tenth one.");
  ASSERT_TRUE(tree.ok());
  NodeId list = Child(*tree, tree->root(), 0);
  EXPECT_EQ(tree->children(list).size(), 3u);
}

TEST(MarkdownParserTest, BlankLineEndsList) {
  auto tree = ParseMarkdown("- Item one.\n\nPlain paragraph after.");
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(tree->children(tree->root()).size(), 2u);
  EXPECT_EQ(tree->label_name(Child(*tree, tree->root(), 0)), "list");
  EXPECT_EQ(tree->label_name(Child(*tree, tree->root(), 1)), "paragraph");
}

TEST(MarkdownParserTest, FencedCodeBlockIsOpaque) {
  auto tree = ParseMarkdown(
      "Before text.\n\n```\nint main() { return 0; }\n// Not. A. Sentence.\n"
      "```\n\nAfter text.");
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(tree->children(tree->root()).size(), 3u);
  NodeId code = Child(*tree, tree->root(), 1);
  EXPECT_EQ(tree->label_name(code), "codeblock");
  EXPECT_EQ(tree->value(code),
            "int main() { return 0; }\n// Not. A. Sentence.\n");
  EXPECT_TRUE(tree->IsLeaf(code));
}

TEST(MarkdownParserTest, UnterminatedFenceTolerated) {
  auto tree = ParseMarkdown("```\ncode without closing fence\n");
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(tree->children(tree->root()).size(), 1u);
  EXPECT_EQ(tree->label_name(Child(*tree, tree->root(), 0)), "codeblock");
}

TEST(MarkdownParserTest, BlockquotesDiffAsProse) {
  auto tree = ParseMarkdown("> Quoted sentence here.\n> And another one.");
  ASSERT_TRUE(tree.ok());
  NodeId para = Child(*tree, tree->root(), 0);
  EXPECT_EQ(tree->label_name(para), "paragraph");
  EXPECT_EQ(tree->children(para).size(), 2u);
  EXPECT_EQ(tree->value(Child(*tree, para, 0)), "Quoted sentence here.");
}

TEST(MarkdownParserTest, SchemaConformance) {
  auto labels = std::make_shared<LabelTable>();
  LabelSchema schema = MakeDocumentSchema(labels.get());
  auto tree = ParseMarkdown(
      "# A\n\nText one. Text two.\n\n- Item x.\n- Item y.\n\n```\ncode\n```\n",
      labels);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(schema.CheckAcyclic(*tree).ok());
  EXPECT_TRUE(tree->Validate().ok());
}

TEST(MarkdownDiffTest, EndToEndWithMarkdownMarkup) {
  auto labels = std::make_shared<LabelTable>();
  // The section keeps 4 of its 5 leaves (the code block's small edit stays
  // within the leaf threshold), so the heading renders unannotated.
  auto t1 = ParseMarkdown(
      "# Guide\n\nKeep this sentence. Drop this sentence.\n\n"
      "Also keep this one. And this other one.\n\n"
      "```\nsetup();\nconfigure();\nrun();\nold_code();\nteardown();\n```\n",
      labels);
  auto t2 = ParseMarkdown(
      "# Guide\n\nKeep this sentence. Add a brand new one.\n\n"
      "Also keep this one. And this other one.\n\n"
      "```\nsetup();\nconfigure();\nrun();\nnew_code();\nteardown();\n```\n",
      labels);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  auto diff = DiffTrees(*t1, *t2);
  ASSERT_TRUE(diff.ok());
  Tree replay = t1->Clone();
  ASSERT_TRUE(diff->script.ApplyTo(&replay).ok());
  EXPECT_TRUE(Tree::Isomorphic(replay, *t2));

  auto delta = BuildDeltaTree(*t1, *t2, *diff);
  ASSERT_TRUE(delta.ok());
  const std::string md =
      RenderMarkup(*delta, *labels, MarkupFormat::kMarkdown);
  EXPECT_NE(md.find("# Guide"), std::string::npos);
  EXPECT_NE(md.find("**Add a brand new one.**"), std::string::npos);
  EXPECT_NE(md.find("~~Drop this sentence.~~"), std::string::npos);
  EXPECT_NE(md.find("```"), std::string::npos);
}

TEST(MarkdownDiffTest, CodeChangeIsSingleUpdate) {
  auto labels = std::make_shared<LabelTable>();
  auto t1 = ParseMarkdown(
      "Intro sentence stays. Another stays too.\n\n"
      "```\nint x = 1;\nint y = 2;\n```\n",
      labels);
  auto t2 = ParseMarkdown(
      "Intro sentence stays. Another stays too.\n\n"
      "```\nint x = 1;\nint y = 3;\n```\n",
      labels);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  auto diff = DiffTrees(*t1, *t2);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->script.num_updates(), 1u);  // The whole block, as one unit.
  EXPECT_EQ(diff->script.num_inserts(), 0u);
  EXPECT_EQ(diff->script.num_deletes(), 0u);
}

TEST(MarkdownFuzzTest, SurvivesRandomInput) {
  Rng rng(131);
  static const char* kPieces[] = {"# H\n", "## S\n", "- item. ", "1. num. ",
                                  "text one. ", "\n\n", "```\n", "code\n",
                                  "> quote. ", "*", "#", "\n"};
  for (int iter = 0; iter < 80; ++iter) {
    std::string input;
    const size_t tokens = 2 + rng.Uniform(40);
    for (size_t i = 0; i < tokens; ++i) {
      input += kPieces[rng.Uniform(std::size(kPieces))];
    }
    auto tree = ParseMarkdown(input);
    ASSERT_TRUE(tree.ok());
    EXPECT_TRUE(tree->Validate().ok());
  }
}

}  // namespace
}  // namespace treediff
