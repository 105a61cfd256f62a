#include "doc/ladiff.h"

#include <gtest/gtest.h>

namespace treediff {
namespace {

TEST(LaDiffTest, EndToEndLatexPipeline) {
  const char* old_doc =
      "\\section{Intro}\n"
      "The system detects changes. It produces edit scripts.\n\n"
      "A second paragraph lives here. With two sentences.\n";
  const char* new_doc =
      "\\section{Intro}\n"
      "The system detects changes. It produces minimal edit scripts.\n\n"
      "A second paragraph lives here. With two sentences. And a third one.\n";
  auto result = DiffLatexDocuments(old_doc, new_doc);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->diff.script.num_updates(), 1u);
  EXPECT_EQ(result->diff.script.num_inserts(), 1u);
  EXPECT_EQ(result->diff.script.num_deletes(), 0u);
  EXPECT_FALSE(result->markup.empty());
  // The delta tree mirrors the new document plus tombstones.
  EXPECT_GT(result->delta.nodes().size(), result->new_tree.size() - 1);
}

TEST(LaDiffTest, ScriptTransformsOldIntoNew) {
  const char* old_doc = "Alpha beta gamma. Delta epsilon zeta.";
  const char* new_doc = "Delta epsilon zeta. Alpha beta gamma.";
  auto result = DiffLatexDocuments(old_doc, new_doc);
  ASSERT_TRUE(result.ok());
  Tree replay = result->old_tree.Clone();
  ASSERT_TRUE(result->diff.script.ApplyTo(&replay).ok());
  EXPECT_TRUE(Tree::Isomorphic(replay, result->new_tree));
  EXPECT_EQ(result->diff.script.num_moves(), 1u);  // One sentence reorder.
}

TEST(LaDiffTest, HtmlPipeline) {
  const char* old_doc =
      "<h1>Title</h1><p>Sentence one here. Sentence two here.</p>";
  const char* new_doc =
      "<h1>Title</h1><p>Sentence one here. Sentence two changed here.</p>";
  LaDiffOptions options;
  options.format = MarkupFormat::kHtml;
  auto result = DiffHtmlDocuments(old_doc, new_doc, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->diff.script.num_updates(), 1u);
  EXPECT_NE(result->markup.find("class=\"upd\""), std::string::npos);
}

TEST(LaDiffTest, IdenticalDocumentsNoOps) {
  const char* doc = "\\section{S}\nNothing changes in this text.";
  auto result = DiffLatexDocuments(doc, doc);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->diff.script.empty());
}

TEST(LaDiffTest, AllOutputFormatsRender) {
  const char* old_doc =
      "\\section{S}\nKeep this sentence here. Drop this other one. "
      "And keep this one too.";
  const char* new_doc =
      "\\section{S}\nKeep this sentence here. And keep this one too. "
      "Add a brand new line.";
  for (MarkupFormat format :
       {MarkupFormat::kLatex, MarkupFormat::kHtml, MarkupFormat::kText,
        MarkupFormat::kMarkdown}) {
    LaDiffOptions options;
    options.format = format;
    auto result = DiffLatexDocuments(old_doc, new_doc, options);
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->markup.empty());
    // Every format must surface the inserted sentence somehow.
    EXPECT_NE(result->markup.find("Add a brand new line."),
              std::string::npos);
  }
}

TEST(LaDiffTest, ParseErrorsPropagate) {
  auto result = DiffLatexDocuments("\\section{broken", "fine text.");
  EXPECT_EQ(result.status().code(), Code::kParseError);
  auto result2 = DiffLatexDocuments("fine text.", "\\section{broken");
  EXPECT_EQ(result2.status().code(), Code::kParseError);
}

TEST(LaDiffTest, ThresholdOptionsForwarded) {
  // With a tiny f, the slightly-changed sentence cannot match: it becomes
  // delete+insert instead of an update.
  const char* old_doc = "The quick brown fox jumps over the lazy dog today.";
  const char* new_doc = "The quick brown wolf jumps over the lazy dog today.";
  LaDiffOptions strict;
  strict.diff.leaf_threshold_f = 0.05;
  auto result = DiffLatexDocuments(old_doc, new_doc, strict);
  ASSERT_TRUE(result.ok());
  // The sentence cannot match, which also unmatches its paragraph: the
  // script re-inserts both instead of updating.
  EXPECT_EQ(result->diff.script.num_updates(), 0u);
  EXPECT_GE(result->diff.script.num_inserts(), 1u);
  EXPECT_GE(result->diff.script.num_deletes(), 1u);

  LaDiffOptions lenient;
  lenient.diff.leaf_threshold_f = 0.5;
  auto result2 = DiffLatexDocuments(old_doc, new_doc, lenient);
  ASSERT_TRUE(result2.ok());
  EXPECT_EQ(result2->diff.script.num_updates(), 1u);
}

}  // namespace
}  // namespace treediff
