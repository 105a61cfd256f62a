#include "doc/xml.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/diff.h"
#include "util/random.h"

namespace treediff {
namespace {

NodeId Child(const Tree& t, NodeId x, size_t i) { return t.children(x)[i]; }

TEST(XmlParseTest, SimpleElementTree) {
  auto tree = ParseXml("<a><b>hello</b><c/></a>");
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->label_name(tree->root()), "a");
  ASSERT_EQ(tree->children(tree->root()).size(), 2u);
  NodeId b = Child(*tree, tree->root(), 0);
  EXPECT_EQ(tree->label_name(b), "b");
  EXPECT_EQ(tree->label_name(Child(*tree, b, 0)), "#text");
  EXPECT_EQ(tree->value(Child(*tree, b, 0)), "hello");
  EXPECT_EQ(tree->label_name(Child(*tree, tree->root(), 1)), "c");
  EXPECT_TRUE(tree->Validate().ok());
}

TEST(XmlParseTest, AttributesBecomeLeaves) {
  auto tree = ParseXml("<item id=\"42\" class='x y'>text</item>");
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(tree->children(tree->root()).size(), 3u);
  NodeId id = Child(*tree, tree->root(), 0);
  EXPECT_EQ(tree->label_name(id), "@id");
  EXPECT_EQ(tree->value(id), "42");
  NodeId cls = Child(*tree, tree->root(), 1);
  EXPECT_EQ(tree->label_name(cls), "@class");
  EXPECT_EQ(tree->value(cls), "x y");
}

TEST(XmlParseTest, AttributesCanBeDropped) {
  XmlParseOptions options;
  options.keep_attributes = false;
  auto tree = ParseXml("<item id=\"42\">text</item>", nullptr, options);
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(tree->children(tree->root()).size(), 1u);
  EXPECT_EQ(tree->label_name(Child(*tree, tree->root(), 0)), "#text");
}

TEST(XmlParseTest, EntitiesDecoded) {
  auto tree = ParseXml("<t a=\"&quot;q&quot;\">&lt;tag&gt; &amp; &#65;</t>");
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->value(Child(*tree, tree->root(), 0)), "\"q\"");
  EXPECT_EQ(tree->value(Child(*tree, tree->root(), 1)), "<tag> & A");
}

TEST(XmlParseTest, HexCharRef) {
  auto tree = ParseXml("<t>&#x41;&#x42;</t>");
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->value(Child(*tree, tree->root(), 0)), "AB");
}

TEST(XmlParseTest, CommentsPiDoctypeSkipped) {
  auto tree = ParseXml(
      "<?xml version=\"1.0\"?><!DOCTYPE a><!-- c --><a><!-- inner -->x"
      "<?pi data?></a>");
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(tree->children(tree->root()).size(), 1u);
  EXPECT_EQ(tree->value(Child(*tree, tree->root(), 0)), "x");
}

TEST(XmlParseTest, CdataIsLiteralText) {
  auto tree = ParseXml("<t><![CDATA[a < b & c]]></t>");
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->value(Child(*tree, tree->root(), 0)), "a < b & c");
}

TEST(XmlParseTest, SentenceSplittingOption) {
  XmlParseOptions options;
  options.split_sentences = true;
  auto tree = ParseXml("<p>First one. Second one.</p>", nullptr, options);
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(tree->children(tree->root()).size(), 2u);
  EXPECT_EQ(tree->value(Child(*tree, tree->root(), 0)), "First one.");
  EXPECT_EQ(tree->value(Child(*tree, tree->root(), 1)), "Second one.");
}

TEST(XmlParseTest, WhitespaceOnlyTextDropped) {
  auto tree = ParseXml("<a>\n  <b/>\n  <c/>\n</a>");
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->children(tree->root()).size(), 2u);
}

TEST(XmlParseTest, Errors) {
  EXPECT_EQ(ParseXml("").status().code(), Code::kParseError);
  EXPECT_EQ(ParseXml("plain text").status().code(), Code::kParseError);
  EXPECT_EQ(ParseXml("<a>").status().code(), Code::kParseError);
  EXPECT_EQ(ParseXml("<a></b>").status().code(), Code::kParseError);
  EXPECT_EQ(ParseXml("<a><b></a></b>").status().code(), Code::kParseError);
  EXPECT_EQ(ParseXml("<a x=1/>").status().code(), Code::kParseError);
  EXPECT_EQ(ParseXml("<a x=\"1/>").status().code(), Code::kParseError);
  EXPECT_EQ(ParseXml("<a/><b/>").status().code(), Code::kParseError);
}

TEST(XmlParseTest, RoundTripThroughRenderXml) {
  const char* doc =
      "<library><book isbn=\"1\"><title>Tree Matching</title>"
      "<author>S. Chawathe</author></book>"
      "<book isbn=\"2\"><title>Edit Scripts</title></book></library>";
  auto tree = ParseXml(doc);
  ASSERT_TRUE(tree.ok());
  const std::string rendered = RenderXml(*tree);
  auto reparsed = ParseXml(rendered, tree->label_table());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_TRUE(Tree::Isomorphic(*tree, *reparsed));
}

TEST(XmlParseTest, RenderEscapesSpecials) {
  auto labels = std::make_shared<LabelTable>();
  Tree t(labels);
  NodeId r = t.AddRoot("e");
  t.AddChild(r, "@a", "x \"y\" & z");
  t.AddChild(r, "#text", "1 < 2 & 3 > 2");
  const std::string xml = RenderXml(t);
  EXPECT_NE(xml.find("a=\"x &quot;y&quot; &amp; z\""), std::string::npos);
  EXPECT_NE(xml.find("1 &lt; 2 &amp; 3 &gt; 2"), std::string::npos);
}

TEST(XmlDiffTest, EndToEndDetectsChanges) {
  auto labels = std::make_shared<LabelTable>();
  auto t1 = ParseXml(
      "<catalog><entry id=\"a\"><name>alpha item</name>"
      "<price>10</price></entry>"
      "<entry id=\"b\"><name>beta item</name><price>20</price></entry>"
      "</catalog>",
      labels);
  auto t2 = ParseXml(
      "<catalog><entry id=\"b\"><name>beta item</name><price>25</price>"
      "</entry>"
      "<entry id=\"a\"><name>alpha item</name><price>10</price></entry>"
      "</catalog>",
      labels);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  DiffOptions options;
  options.complete_context = true;
  options.internal_threshold_t = 0.5;
  auto diff = DiffTrees(*t1, *t2, options);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  Tree replay = t1->Clone();
  ASSERT_TRUE(diff->script.ApplyTo(&replay).ok());
  EXPECT_TRUE(Tree::Isomorphic(replay, *t2));
  // Reordered entries should be a move, the price change an update.
  EXPECT_GE(diff->script.num_moves(), 1u);
  EXPECT_GE(diff->script.num_updates(), 1u);
}

TEST(XmlDiffTest, MarkupAnnotatesStatus) {
  auto labels = std::make_shared<LabelTable>();
  // Context completion zips leftover opts in order; the t1-only <legacy>
  // element (a label with no counterpart) stays deleted, t2's surplus opt
  // stays inserted, and the threads value change becomes an update.
  auto t1 = ParseXml(
      "<cfg><opt name=\"threads\">4</opt><opt name=\"color\">red</opt>"
      "<opt name=\"debug\">off</opt><legacy>gone</legacy></cfg>",
      labels);
  auto t2 = ParseXml(
      "<cfg><opt name=\"threads\">8</opt><opt name=\"color\">red</opt>"
      "<opt name=\"debug\">off</opt><opt name=\"extra\">y</opt></cfg>",
      labels);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  DiffOptions options;
  options.complete_context = true;
  options.internal_threshold_t = 0.5;
  auto diff = DiffTrees(*t1, *t2, options);
  ASSERT_TRUE(diff.ok());
  auto delta = BuildDeltaTree(*t1, *t2, *diff);
  ASSERT_TRUE(delta.ok());
  const std::string xml = RenderXmlMarkup(*delta, *labels);
  EXPECT_NE(xml.find("td:status=\"updated\""), std::string::npos);
  EXPECT_NE(xml.find("td:status=\"inserted\""), std::string::npos);
  EXPECT_NE(xml.find("td:status=\"deleted\""), std::string::npos);
}

TEST(XmlFuzzTest, SurvivesRandomInput) {
  Rng rng(111);
  for (int iter = 0; iter < 80; ++iter) {
    std::string input;
    static const char* kPieces[] = {"<a>", "</a>", "<b x=\"1\">", "</b>",
                                    "<c/>", "text ", "&amp;", "&#x41;",
                                    "<!-- c -->", "<![CDATA[x]]>", "<",
                                    ">", "\"", "=", "plain"};
    const size_t tokens = 2 + rng.Uniform(40);
    for (size_t i = 0; i < tokens; ++i) {
      input += kPieces[rng.Uniform(std::size(kPieces))];
    }
    auto tree = ParseXml(input);
    if (tree.ok()) {
      EXPECT_TRUE(tree->Validate().ok());
    }
  }
}

}  // namespace
}  // namespace treediff
