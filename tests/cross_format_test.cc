// Cross-format equivalence: the LaTeX, HTML, and Markdown front ends map
// onto one document schema, so equivalent sources must parse to isomorphic
// trees — which also means documents can be diffed ACROSS formats (e.g., a
// LaTeX original against its HTML rendering).

#include <gtest/gtest.h>

#include <memory>

#include "core/diff.h"
#include "doc/html_parser.h"
#include "doc/latex_parser.h"
#include "doc/markdown_parser.h"

namespace treediff {
namespace {

constexpr const char* kLatexDoc =
    "\\section{Intro}\n"
    "First sentence here. Second sentence sits here.\n\n"
    "Another paragraph now.\n"
    "\\begin{itemize}\n"
    "\\item Alpha item text.\n"
    "\\item Beta item text.\n"
    "\\end{itemize}\n"
    "\\section{Outro}\n"
    "Closing sentence here.\n";

constexpr const char* kHtmlDoc =
    "<h1>Intro</h1>"
    "<p>First sentence here. Second sentence sits here.</p>"
    "<p>Another paragraph now.</p>"
    "<ul><li>Alpha item text.</li><li>Beta item text.</li></ul>"
    "<h1>Outro</h1>"
    "<p>Closing sentence here.</p>";

constexpr const char* kMarkdownDoc =
    "# Intro\n\n"
    "First sentence here. Second sentence sits here.\n\n"
    "Another paragraph now.\n\n"
    "- Alpha item text.\n"
    "- Beta item text.\n\n"
    "# Outro\n\n"
    "Closing sentence here.\n";

TEST(CrossFormatTest, ThreeFrontEndsProduceIsomorphicTrees) {
  auto labels = std::make_shared<LabelTable>();
  auto latex = ParseLatex(kLatexDoc, labels);
  auto html = ParseHtml(kHtmlDoc, labels);
  auto markdown = ParseMarkdown(kMarkdownDoc, labels);
  ASSERT_TRUE(latex.ok());
  ASSERT_TRUE(html.ok());
  ASSERT_TRUE(markdown.ok());
  EXPECT_TRUE(Tree::Isomorphic(*latex, *html))
      << "latex: " << latex->ToDebugString() << "\nhtml:  "
      << html->ToDebugString();
  EXPECT_TRUE(Tree::Isomorphic(*latex, *markdown))
      << "latex:    " << latex->ToDebugString() << "\nmarkdown: "
      << markdown->ToDebugString();
}

TEST(CrossFormatTest, CrossFormatDiffIsEmptyForEquivalentDocs) {
  auto labels = std::make_shared<LabelTable>();
  auto latex = ParseLatex(kLatexDoc, labels);
  auto html = ParseHtml(kHtmlDoc, labels);
  ASSERT_TRUE(latex.ok());
  ASSERT_TRUE(html.ok());
  auto diff = DiffTrees(*latex, *html);
  ASSERT_TRUE(diff.ok());
  EXPECT_TRUE(diff->script.empty())
      << diff->script.ToString(*labels);
}

TEST(CrossFormatTest, CrossFormatDiffFindsRealChanges) {
  // The HTML rendering drifted from the LaTeX source: one sentence edited,
  // one item added. Diffing across formats pinpoints exactly that.
  auto labels = std::make_shared<LabelTable>();
  auto latex = ParseLatex(kLatexDoc, labels);
  auto html = ParseHtml(
      "<h1>Intro</h1>"
      "<p>First sentence here. Second sentence sits CHANGED.</p>"
      "<p>Another paragraph now.</p>"
      "<ul><li>Alpha item text.</li><li>Beta item text.</li>"
      "<li>Gamma item text.</li></ul>"
      "<h1>Outro</h1>"
      "<p>Closing sentence here.</p>",
      labels);
  ASSERT_TRUE(latex.ok());
  ASSERT_TRUE(html.ok());
  auto diff = DiffTrees(*latex, *html);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->script.num_updates(), 1u);
  // The new item contributes its item + paragraph + sentence inserts.
  EXPECT_GE(diff->script.num_inserts(), 3u);
  EXPECT_EQ(diff->script.num_deletes(), 0u);
  Tree replay = latex->Clone();
  ASSERT_TRUE(diff->script.ApplyTo(&replay).ok());
  EXPECT_TRUE(Tree::Isomorphic(replay, *html));
}

}  // namespace
}  // namespace treediff
