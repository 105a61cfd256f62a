#include "tree/tree_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "gen/vocab.h"
#include "service/tree_cache.h"
#include "tree/builder.h"
#include "tree/tree.h"
#include "util/random.h"

namespace treediff {
namespace {

Tree Parse(const char* sexpr,
           std::shared_ptr<LabelTable> labels = nullptr) {
  if (labels == nullptr) labels = std::make_shared<LabelTable>();
  auto tree = ParseSexpr(sexpr, labels);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return std::move(*tree);
}

constexpr const char* kDoc =
    "(D (P (S \"the quick fox\") (S \"jumps\")) (P (S \"over\") (F (S "
    "\"the\") (S \"lazy dog\"))) (E))";

TEST(TreeIndexTest, OrdersMatchTreeTraversals) {
  Tree t = Parse(kDoc);
  TreeIndex index(t);
  EXPECT_EQ(index.PreOrder(), t.PreOrder());
  EXPECT_EQ(index.PostOrder(), t.PostOrder());
  EXPECT_EQ(index.BfsOrder(), t.BfsOrder());
  EXPECT_EQ(index.Leaves(), t.Leaves());
}

TEST(TreeIndexTest, ScalarsMatchTreeDerivedStructure) {
  Tree t = Parse(kDoc);
  TreeIndex index(t);
  const std::vector<int> leaf_counts = t.LeafCounts();
  for (NodeId x = 0; x < static_cast<NodeId>(t.id_bound()); ++x) {
    EXPECT_EQ(index.LeafCount(x), leaf_counts[static_cast<size_t>(x)]) << x;
  }
  for (NodeId x : t.PreOrder()) {
    // SubtreeSize equals the number of preorder descendants (self included).
    int size = 0;
    for (NodeId y : t.PreOrder()) {
      if (t.IsAncestorOrSelf(x, y)) ++size;
    }
    EXPECT_EQ(index.SubtreeSize(x), size) << x;
    EXPECT_EQ(index.ValueHash(x), HashValueBytes(t.value(x))) << x;
    // ChildIndex agrees with a manual sibling scan.
    if (x == t.root()) {
      EXPECT_EQ(index.ChildIndex(x), -1);
    } else {
      const auto& sibs = t.children(t.parent(x));
      const auto it = std::find(sibs.begin(), sibs.end(), x);
      EXPECT_EQ(index.ChildIndex(x),
                static_cast<int>(std::distance(sibs.begin(), it)));
    }
  }
}

TEST(TreeIndexTest, ContainsMatchesIsAncestorOrSelf) {
  Tree t = Parse(kDoc);
  TreeIndex index(t);
  for (NodeId a : t.PreOrder()) {
    for (NodeId b : t.PreOrder()) {
      EXPECT_EQ(index.Contains(a, b), t.IsAncestorOrSelf(a, b))
          << a << " vs " << b;
    }
  }
}

TEST(TreeIndexTest, LeafRangesSliceTheLeafSequence) {
  Tree t = Parse(kDoc);
  TreeIndex index(t);
  const std::vector<NodeId>& leaves = index.Leaves();
  for (NodeId x : t.PreOrder()) {
    std::vector<NodeId> expected;
    for (NodeId w : t.Leaves()) {
      if (t.IsAncestorOrSelf(x, w)) expected.push_back(w);
    }
    const std::vector<NodeId> got(
        leaves.begin() + index.LeafRangeBegin(x),
        leaves.begin() + index.LeafRangeEnd(x));
    EXPECT_EQ(got, expected) << x;
  }
}

TEST(TreeIndexTest, ChainsAreDocumentOrderPerLabelAndKind) {
  Tree t = Parse(kDoc);
  TreeIndex index(t);
  std::map<LabelId, std::vector<NodeId>> leaf_chains, internal_chains;
  for (NodeId x : t.PreOrder()) {
    (t.IsLeaf(x) ? leaf_chains : internal_chains)[t.label(x)].push_back(x);
  }
  EXPECT_EQ(index.LeafChains(), leaf_chains);
  EXPECT_EQ(index.InternalChains(), internal_chains);
  // Missing labels yield empty chains.
  const LabelId unused = t.InternLabel("Zz");
  EXPECT_TRUE(index.LeafChain(unused).empty());
  EXPECT_TRUE(index.InternalChain(unused).empty());
}

TEST(TreeIndexTest, SubtreeHashesDistinguishContentAndAgreeOnTwins) {
  auto labels = std::make_shared<LabelTable>();
  Tree t = Parse("(D (P (S \"a\") (S \"b\")) (P (S \"a\") (S \"b\")) "
                 "(P (S \"a\") (S \"c\")))",
                 labels);
  TreeIndex index(t);
  const auto& kids = t.children(t.root());
  // Identical subtrees fingerprint identically; a one-leaf difference
  // changes the fingerprint all the way up.
  EXPECT_EQ(index.SubtreeHash(kids[0]), index.SubtreeHash(kids[1]));
  EXPECT_NE(index.SubtreeHash(kids[0]), index.SubtreeHash(kids[2]));
  // Fingerprints are cross-tree comparable (deterministic hash).
  Tree u = Parse("(P (S \"a\") (S \"b\"))", labels);
  TreeIndex uindex(u);
  EXPECT_EQ(uindex.SubtreeHash(u.root()), index.SubtreeHash(kids[0]));
}

TEST(TreeIndexTest, NodeValueHashWithAndWithoutIndex) {
  Tree t = Parse("(S \"some value\")");
  const uint64_t bare = NodeValueHash(t, t.root());
  {
    TreeIndex index(t);
    EXPECT_EQ(t.attached_index(), &index);
    EXPECT_EQ(NodeValueHash(t, t.root()), bare);
  }
  EXPECT_EQ(t.attached_index(), nullptr);
  EXPECT_EQ(NodeValueHash(t, t.root()), HashValueBytes("some value"));
}

TEST(HashValueBytesTest, MatchesPublishedXxh64Vectors) {
  EXPECT_EQ(HashValueBytes(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(HashValueBytes("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(HashValueBytes("abc"), 0x44BC2CF5AD770999ULL);
  // 39 bytes: one 32-byte stripe, then the 4-byte and 1-byte tail steps.
  EXPECT_EQ(HashValueBytes("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ULL);
}

TEST(HashValueBytesTest, EverySingleByteFlipChangesTheHash) {
  // Lengths 0..100 cover the short path, one to three stripes, and every
  // mix of 8-, 4- and 1-byte tail steps.
  for (size_t len = 0; len <= 100; ++len) {
    std::string bytes(len, '\0');
    for (size_t i = 0; i < len; ++i) {
      bytes[i] = static_cast<char>('a' + (i * 7) % 26);
    }
    const uint64_t base = HashValueBytes(bytes);
    for (size_t i = 0; i < len; ++i) {
      for (const unsigned char flip : {0x01, 0x80, 0xFF}) {
        std::string changed = bytes;
        changed[i] = static_cast<char>(changed[i] ^ flip);
        EXPECT_NE(HashValueBytes(changed), base)
            << "len " << len << " byte " << i << " flip " << int{flip};
      }
    }
    // A length change alone changes the hash too.
    EXPECT_NE(HashValueBytes(bytes + '\0'), base) << "len " << len;
  }
}

TEST(HashValueBytesTest, EqualBytesHashEqualAtEveryAlignment) {
  const std::string text =
      "the quick brown fox jumps over the lazy dog, twice over, 0123456789";
  for (size_t len : {0u, 3u, 7u, 8u, 12u, 31u, 32u, 33u, 64u}) {
    const std::string_view want(text.data(), len);
    const uint64_t expected = HashValueBytes(std::string(want));
    for (size_t offset = 0; offset < 8; ++offset) {
      std::string buffer(offset, '#');
      buffer += want;
      buffer += "#######";
      EXPECT_EQ(HashValueBytes(std::string_view(buffer).substr(offset, len)),
                expected)
          << "len " << len << " offset " << offset;
    }
  }
}

TEST(HashValueBytesTest, NoCollisionsAcrossAGeneratedCorpus) {
  Vocabulary vocab(5000, 1.0);
  Rng rng(20261019);
  std::unordered_set<std::string> values;
  while (values.size() < 100000) values.insert(vocab.MakeSentence(&rng, 1, 24));
  std::unordered_set<uint64_t> hashes;
  hashes.reserve(values.size());
  for (const std::string& v : values) hashes.insert(HashValueBytes(v));
  EXPECT_EQ(hashes.size(), values.size());
}

TEST(HashValueBytesTest, FingerprintTextSeparatesFormatTags) {
  const std::string text = "(D (P (S \"alpha\")))";
  EXPECT_NE(TreeCache::FingerprintText("sexpr", text),
            TreeCache::FingerprintText("xml", text));
  EXPECT_EQ(TreeCache::FingerprintText("sexpr", text),
            TreeCache::FingerprintText("sexpr", std::string(text)));
  EXPECT_NE(TreeCache::FingerprintText("sexpr", text),
            TreeCache::FingerprintText("sexpr", text + " "));
}

TEST(TreeIndexTest, TreeChildIndexUsesAttachedIndex) {
  Tree t = Parse(kDoc);
  std::vector<int> bare;
  for (NodeId x : t.PreOrder()) bare.push_back(t.ChildIndex(x));
  TreeIndex index(t);
  std::vector<int> indexed;
  for (NodeId x : t.PreOrder()) indexed.push_back(t.ChildIndex(x));
  EXPECT_EQ(indexed, bare);
}

TEST(TreeIndexTest, DetachesWhenTreeIsMovedFrom) {
  Tree t = Parse(kDoc);
  TreeIndex index(t);
  ASSERT_TRUE(index.attached());
  Tree stolen = std::move(t);
  EXPECT_FALSE(index.attached());
  EXPECT_EQ(stolen.attached_index(), nullptr);
}

TEST(TreeIndexTest, CopiesDoNotCarryTheIndex) {
  Tree t = Parse(kDoc);
  TreeIndex index(t);
  Tree copy = t;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(copy.attached_index(), nullptr);
  EXPECT_EQ(t.attached_index(), &index);
}

TEST(TreeIndexTest, SingleNodeTree) {
  Tree t = Parse("(S \"x\")");
  TreeIndex index(t);
  EXPECT_EQ(index.SubtreeSize(t.root()), 1);
  EXPECT_EQ(index.LeafCount(t.root()), 1);
  EXPECT_EQ(index.ChildIndex(t.root()), -1);
  EXPECT_EQ(index.PreOrder(), std::vector<NodeId>{t.root()});
  EXPECT_EQ(index.BfsOrder(), std::vector<NodeId>{t.root()});
  EXPECT_EQ(index.Leaves(), std::vector<NodeId>{t.root()});
  EXPECT_TRUE(index.Contains(t.root(), t.root()));
}

}  // namespace
}  // namespace treediff
