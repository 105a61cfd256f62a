#include "store/codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "gen/doc_gen.h"
#include "tree/builder.h"

namespace treediff {
namespace {

// ---------------------------------------------------------------------------
// Coding primitives

TEST(CodecPrimitivesTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeefu);
  PutFixed64(&buf, 0x0123456789abcdefull);
  ASSERT_EQ(buf.size(), 12u);
  EXPECT_EQ(DecodeFixed32(buf.data()), 0xdeadbeefu);
  EXPECT_EQ(DecodeFixed64(buf.data() + 4), 0x0123456789abcdefull);
  // Little-endian on the wire.
  EXPECT_EQ(static_cast<uint8_t>(buf[0]), 0xefu);
}

TEST(CodecPrimitivesTest, VarintRoundTrip) {
  const uint64_t cases[] = {0,     1,          127,        128,
                            300,   16383,      16384,      (1ull << 32) - 1,
                            1ull << 32, ~0ull};
  for (uint64_t v : cases) {
    std::string buf;
    PutVarint64(&buf, v);
    std::string_view in = buf;
    uint64_t out = 0;
    ASSERT_TRUE(GetVarint64(&in, &out)) << v;
    EXPECT_EQ(out, v);
    EXPECT_TRUE(in.empty());
  }
}

TEST(CodecPrimitivesTest, VarintRejectsTruncation) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    std::string_view in(buf.data(), cut);
    uint64_t out = 0;
    EXPECT_FALSE(GetVarint64(&in, &out)) << "cut at " << cut;
  }
}

TEST(CodecPrimitivesTest, VarintRejectsOverlongEncoding) {
  // Eleven continuation bytes can never terminate within 64 bits.
  std::string buf(11, '\x80');
  std::string_view in = buf;
  uint64_t out = 0;
  EXPECT_FALSE(GetVarint64(&in, &out));
}

TEST(CodecPrimitivesTest, LengthPrefixedRoundTripAndTruncation) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  std::string_view in = buf;
  std::string_view s;
  ASSERT_TRUE(GetLengthPrefixed(&in, &s));
  EXPECT_EQ(s, "hello");
  ASSERT_TRUE(GetLengthPrefixed(&in, &s));
  EXPECT_EQ(s, "");
  EXPECT_TRUE(in.empty());

  // A length that claims more bytes than remain is rejected.
  std::string bad;
  PutVarint64(&bad, 100);
  bad += "short";
  std::string_view bin = bad;
  EXPECT_FALSE(GetLengthPrefixed(&bin, &s));
}

// ---------------------------------------------------------------------------
// Tree codec

TEST(TreeCodecTest, RoundTripIsArenaExact) {
  auto labels = std::make_shared<LabelTable>();
  Tree tree = *ParseSexpr(
      "(D (P (S \"alpha beta\") (S \"gamma\")) (P (S \"delta\")))", labels);
  // Mutate so the arena has a dead slot and a hole in the id sequence:
  // arena-exactness is about exactly this state surviving the round trip.
  auto inserted = tree.InsertLeaf(tree.InternLabel("S"), "temp",
                                  tree.children(tree.root())[0], 1);
  ASSERT_TRUE(inserted.ok());
  ASSERT_TRUE(tree.DeleteLeaf(*inserted).ok());

  std::string encoded = EncodeTree(tree);
  auto decoded = DecodeTree(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

  ASSERT_EQ(decoded->id_bound(), tree.id_bound());
  EXPECT_EQ(decoded->size(), tree.size());
  EXPECT_EQ(decoded->root(), tree.root());
  for (NodeId x = 0; x < static_cast<NodeId>(tree.id_bound()); ++x) {
    EXPECT_EQ(decoded->Alive(x), tree.Alive(x)) << "node " << x;
    EXPECT_EQ(decoded->value(x), tree.value(x)) << "node " << x;
    EXPECT_EQ(decoded->label_name(x), tree.label_name(x)) << "node " << x;
    EXPECT_EQ(decoded->parent(x), tree.parent(x)) << "node " << x;
    if (tree.Alive(x)) {
      const std::span<const NodeId> got = decoded->children(x);
      const std::span<const NodeId> want = tree.children(x);
      EXPECT_EQ(std::vector<NodeId>(got.begin(), got.end()),
                std::vector<NodeId>(want.begin(), want.end()))
          << "node " << x;
    }
  }
  EXPECT_TRUE(Tree::Isomorphic(*decoded, tree));
}

TEST(TreeCodecTest, RoundTripSharedLabelTable) {
  auto labels = std::make_shared<LabelTable>();
  Tree tree = *ParseSexpr("(D (S \"x\"))", labels);
  std::string encoded = EncodeTree(tree);
  // Decoding into the *same* table must reuse label ids, so node-level label
  // ids stay comparable.
  auto decoded = DecodeTree(encoded, labels);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->label(decoded->root()), tree.label(tree.root()));
}

TEST(TreeCodecTest, RoundTripGeneratedDocument) {
  auto labels = std::make_shared<LabelTable>();
  Vocabulary vocab(300, 1.0);
  Rng rng(7);
  DocGenParams params;
  params.sections = 3;
  Tree doc = GenerateDocument(params, vocab, &rng, labels);
  auto decoded = DecodeTree(EncodeTree(doc));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(Tree::Isomorphic(*decoded, doc));
  EXPECT_TRUE(decoded->Validate().ok());
}

TEST(TreeCodecTest, RejectsEmptyAndBadVersion) {
  EXPECT_EQ(DecodeTree("").status().code(), Code::kParseError);
  std::string bad = EncodeTree(*ParseSexpr("(D (S \"x\"))"));
  bad[0] = 99;  // Unknown codec version.
  EXPECT_EQ(DecodeTree(bad).status().code(), Code::kParseError);
}

TEST(TreeCodecTest, RejectsEveryTruncation) {
  Tree tree = *ParseSexpr("(D (P (S \"one two\") (S \"three\")))");
  std::string encoded = EncodeTree(tree);
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    auto decoded = DecodeTree(std::string_view(encoded.data(), cut));
    EXPECT_FALSE(decoded.ok()) << "truncated at " << cut;
  }
}

TEST(TreeCodecTest, SingleByteCorruptionNeverCrashesOrInvalidates) {
  Tree tree = *ParseSexpr("(D (P (S \"one two\") (S \"three four\")))");
  std::string encoded = EncodeTree(tree);
  for (size_t byte = 0; byte < encoded.size(); ++byte) {
    for (uint8_t mask : {0x01, 0x10, 0x80}) {
      std::string mutated = encoded;
      mutated[byte] = static_cast<char>(mutated[byte] ^ mask);
      auto decoded = DecodeTree(mutated);
      // Some flips decode to a different but well-formed tree (e.g. a value
      // byte); what must never happen is a crash or an invalid Tree.
      if (decoded.ok()) {
        EXPECT_TRUE(decoded->Validate().ok())
            << "byte " << byte << " mask " << int(mask);
      }
    }
  }
}

TEST(TreeCodecTest, RejectsStructuralCorruption) {
  // Hand-built encodings that pass field-level checks but violate tree
  // invariants must be rejected by validation, not installed.
  auto encode_two_node_cycle = [] {
    std::string out;
    out.push_back(1);        // codec version
    std::string body;
    PutVarint64(&body, 2);   // id bound
    PutVarint64(&body, 1);   // root = node 0
    PutVarint64(&body, 1);   // one label
    PutLengthPrefixed(&body, "L");
    // Node 0: alive, label 1, parent = node 1 (cycle), child = 1.
    body.push_back(1);
    PutVarint64(&body, 1);
    PutLengthPrefixed(&body, "");
    PutVarint64(&body, 2);
    PutVarint64(&body, 1);
    PutVarint64(&body, 1);
    // Node 1: alive, label 1, parent = node 0, child = 0.
    body.push_back(1);
    PutVarint64(&body, 1);
    PutLengthPrefixed(&body, "");
    PutVarint64(&body, 1);
    PutVarint64(&body, 1);
    PutVarint64(&body, 0);
    return out + body;
  };
  EXPECT_EQ(DecodeTree(encode_two_node_cycle()).status().code(),
            Code::kParseError);
}

}  // namespace
}  // namespace treediff
