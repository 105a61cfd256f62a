#include "tree/builder.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gen/doc_gen.h"
#include "gen/vocab.h"
#include "util/random.h"

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

std::string Nested(int depth) {
  std::string text;
  for (int i = 0; i < depth; ++i) text += "(a";
  text.append(static_cast<size_t>(depth), ')');
  return text;
}

TEST(ParseSexprTest, NestingUpToTheLimitParses) {
  auto tree = ParseSexpr(Nested(kSexprMaxDepth));
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->size(), static_cast<size_t>(kSexprMaxDepth));
  EXPECT_TRUE(tree->Validate().ok());
}

TEST(ParseSexprTest, NestingPastTheLimitIsResourceExhausted) {
  auto one_over = ParseSexpr(Nested(kSexprMaxDepth + 1));
  EXPECT_EQ(one_over.status().code(), Code::kResourceExhausted);
  EXPECT_EQ(one_over.status().message(),
            "s-expression nesting exceeds max_depth (256) at offset 512");
  // 40,000 levels used to overflow the recursive parser's stack.
  auto deep = ParseSexpr(Nested(40000));
  EXPECT_EQ(deep.status().code(), Code::kResourceExhausted);
  std::string unclosed;
  for (int i = 0; i < 40000; ++i) unclosed += "(a ";
  EXPECT_EQ(ParseSexpr(unclosed).status().code(), Code::kResourceExhausted);
}

// Status code and message of every rejection, pinned to what the recursive
// parser this one replaced returned for the same input.
TEST(ParseSexprTest, MalformedInputTable) {
  struct Case {
    std::string text;
    std::string message;
  };
  const std::vector<Case> cases = {
      {"", "expected '(' at offset 0"},
      {"   ", "expected '(' at offset 3"},
      {"D", "expected '(' at offset 0"},
      {")", "expected '(' at offset 0"},
      {"\x01(D)", "expected '(' at offset 0"},
      {"()", "expected label at offset 1"},
      {"( ", "expected label at offset 2"},
      {"(\"value-only\")", "expected label at offset 1"},
      {"(D (P)", "expected ')' at offset 6"},
      {"(D) extra", "trailing characters after tree at offset 4"},
      {"(D))", "trailing characters after tree at offset 3"},
      {"(D)(E)", "trailing characters after tree at offset 3"},
      {"(S \"unterminated)", "expected '\"' at offset 17"},
      {"(S \"abc\\", "expected '\"' at offset 8"},
      {"(D \"a\"", "expected ')' at offset 6"},
      {"(D \"a\" \"b\")", "expected ')' at offset 7"},
      {"(D (S \"a\") \"b\")", "expected ')' at offset 11"},
      {"(D x)", "expected ')' at offset 3"},
      {"(D (S \"a\" x))", "expected ')' at offset 10"},
      {"(D (", "expected label at offset 4"},
      {"(D (P (S", "expected ')' at offset 8"},
      {"(a(a", "expected ')' at offset 4"},
      {"(D (P) ) (", "trailing characters after tree at offset 9"},
      {"(D (S \"a\\\"))", "expected '\"' at offset 12"},
      {"(D\n(P\t\"v\" (S)) ()", "expected label at offset 16"},
  };
  for (const Case& c : cases) {
    auto tree = ParseSexpr(c.text);
    EXPECT_EQ(tree.status().code(), Code::kParseError) << c.text;
    EXPECT_EQ(tree.status().message(), c.message) << c.text;
  }
}

TEST(ParseSexprTest, WhitespaceIsTheCLocaleSet) {
  auto tree = ParseSexpr("\v\f(D\r(S\t\"x\"\n)\f)\v");
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->ToDebugString(), "(D (S \"x\"))");
  // A label ends only at whitespace, a parenthesis or a quote.
  auto quoted = ParseSexpr("(D\"x\"(a\\b))");
  ASSERT_TRUE(quoted.ok()) << quoted.status().ToString();
  EXPECT_EQ(quoted->value(quoted->root()), "x");
  EXPECT_EQ(quoted->label_name(quoted->children(quoted->root())[0]), "a\\b");
}

TEST(ParseSexprTest, EmptyNonAsciiAndEscapedValues) {
  auto tree = ParseSexpr(
      "(D (S \"\") (S \"h\xc3\xa9llo \xe2\x9c\x93 \xff\") "
      "(S \"\\\\\") (S \"\\\"\") (S \"a\\nb\") (S \"\\\"x\\\\y\\\"\"))");
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const auto& kids = tree->children(tree->root());
  ASSERT_EQ(kids.size(), 6u);
  EXPECT_EQ(tree->value(kids[0]), "");
  EXPECT_EQ(tree->value(kids[1]), "h\xc3\xa9llo \xe2\x9c\x93 \xff");
  EXPECT_EQ(tree->value(kids[2]), "\\");
  EXPECT_EQ(tree->value(kids[3]), "\"");
  EXPECT_EQ(tree->value(kids[4]), "anb");  // Any escaped byte is literal.
  EXPECT_EQ(tree->value(kids[5]), "\"x\\y\"");
}

TEST(ParseSexprTest, ToDebugStringEscapesQuotesAndBackslashes) {
  Tree tree;
  NodeId root = tree.AddRoot("D");
  tree.AddChild(root, "S", "say \"hi\" and \\");
  tree.AddChild(root, "S", "plain");
  const std::string text = tree.ToDebugString();
  EXPECT_EQ(text, R"((D (S "say \"hi\" and \\") (S "plain")))");
  EXPECT_EQ(tree.DebugStringSize(), text.size());
  auto parsed = ParseSexpr(text, tree.label_table());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(Tree::Isomorphic(tree, *parsed));
}

TEST(ParseSexprTest, ManyDistinctLabelsInternOnce) {
  auto labels = std::make_shared<LabelTable>();
  std::string text = "(root";
  for (int i = 0; i < 5000; ++i) {
    text += " (L" + std::to_string(i) + " (L" + std::to_string(i % 7) + "))";
  }
  text += ")";
  auto tree = ParseSexpr(text, labels);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(labels->size(), 5001u);
  for (NodeId x : tree->PreOrder()) {
    EXPECT_EQ(tree->label(x), labels->Find(tree->label_name(x)));
  }
}

/// Asserts that `parsed` is `expected` re-read: node i of `parsed` is the
/// ith node of `expected` in pre-order, with the same label id, value,
/// parent and child order.
void ExpectPreOrderArena(const Tree& expected, const Tree& parsed) {
  const std::vector<NodeId> order = expected.PreOrder();
  ASSERT_EQ(parsed.id_bound(), order.size());
  ASSERT_EQ(parsed.size(), order.size());
  ASSERT_EQ(parsed.root(), 0);
  std::vector<NodeId> id_of(expected.id_bound(), kInvalidNode);
  for (size_t i = 0; i < order.size(); ++i) {
    id_of[static_cast<size_t>(order[i])] = static_cast<NodeId>(i);
  }
  for (size_t i = 0; i < order.size(); ++i) {
    const NodeId x = order[i];
    const NodeId y = static_cast<NodeId>(i);
    ASSERT_EQ(parsed.label(y), expected.label(x)) << "node " << i;
    ASSERT_EQ(parsed.value(y), expected.value(x)) << "node " << i;
    const NodeId p = expected.parent(x);
    ASSERT_EQ(parsed.parent(y),
              p == kInvalidNode ? kInvalidNode : id_of[static_cast<size_t>(p)])
        << "node " << i;
    std::vector<NodeId> kids;
    for (NodeId c : expected.children(x)) {
      kids.push_back(id_of[static_cast<size_t>(c)]);
    }
    ASSERT_EQ(parsed.children(y), kids) << "node " << i;
  }
}

/// A generated document whose every seventh leaf holds a quote, a
/// backslash or non-ASCII bytes, so serialization has to escape.
Tree EscapeBearingDocument(int sections, uint64_t seed,
                           std::shared_ptr<LabelTable> labels) {
  static const Vocabulary vocab(500, 1.0);
  Rng rng(seed);
  DocGenParams params;
  params.sections = sections;
  params.duplicate_sentence_probability = 0.1;
  Tree tree = GenerateDocument(params, vocab, &rng, std::move(labels));
  const std::vector<NodeId> leaves = tree.Leaves();
  const char* const kOdd[] = {"\"", "\\", "\\\"", "\xc3\xa9", "\"\\\\\""};
  for (size_t i = 0; i < leaves.size(); i += 7) {
    EXPECT_TRUE(tree.UpdateValue(leaves[i],
                                 tree.value(leaves[i]) + kOdd[i % 5] + "end")
                    .ok());
  }
  return tree;
}

TEST(ParseSexprTest, GeneratedDocumentsParseToThePreOrderArena) {
  for (int sections : {4, 64}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      auto labels = std::make_shared<LabelTable>();
      const Tree doc = EscapeBearingDocument(sections, seed, labels);
      const std::string text = doc.ToDebugString();
      EXPECT_EQ(doc.DebugStringSize(), text.size());
      auto parsed = ParseSexpr(text, labels);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      ExpectPreOrderArena(doc, *parsed);
      EXPECT_EQ(parsed->ToDebugString(), text);
    }
  }
}

// Seeded corruption of a valid document: truncations, byte flips and
// inserted quotes, backslashes and parentheses. Every input either fails
// with a status or parses to a valid tree that survives a round trip.
TEST(ParseSexprTest, MutatedDocumentsFailCleanlyOrRoundTrip) {
  auto labels = std::make_shared<LabelTable>();
  const std::string base =
      EscapeBearingDocument(2, 7, labels).ToDebugString();
  Rng rng(2024);
  int parsed_ok = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string text = base;
    const int mutations = 1 + static_cast<int>(rng.Uniform(4));
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      const size_t at = rng.Uniform(text.size());
      switch (rng.Uniform(4)) {
        case 0:
          text.resize(at);
          break;
        case 1:
          text[at] = static_cast<char>(text[at] ^ (1 + rng.Uniform(255)));
          break;
        case 2: {
          static const char kInserts[] = {'"', '\\', '(', ')'};
          text.insert(at, 1, kInserts[rng.Uniform(4)]);
          break;
        }
        default:
          text.erase(at, 1);
          break;
      }
    }
    auto tree = ParseSexpr(text, labels);
    if (!tree.ok()) {
      EXPECT_EQ(tree.status().code(), Code::kParseError) << text;
      continue;
    }
    ++parsed_ok;
    ASSERT_TRUE(tree->Validate().ok()) << text;
    const std::string printed = tree->ToDebugString();
    EXPECT_EQ(tree->DebugStringSize(), printed.size());
    auto again = ParseSexpr(printed, labels);
    ASSERT_TRUE(again.ok()) << again.status().ToString() << "\n" << printed;
    ExpectPreOrderArena(*tree, *again);
  }
  // Some mutations (a flipped byte inside a value) keep the text valid.
  EXPECT_GT(parsed_ok, 0);
}

}  // namespace
}  // namespace treediff
