// The token memo (core/compare.h): the shared, bounded store of tokenized
// values that a DiffService lends to every request and commit. It may only
// ever save work. A memo hit is confirmed by the value's bytes, each memo
// tokenizes in its own word mode, a full generation rolls over without
// mixing two dictionaries inside one diff, and every answer equals the one
// a diff with a private memo computes.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/compare.h"
#include "core/diff.h"
#include "core/script_io.h"
#include "gen/doc_gen.h"
#include "gen/edit_sim.h"
#include "gen/vocab.h"
#include "service/diff_service.h"
#include "store/version_store.h"
#include "tree/builder.h"

namespace treediff {
namespace {

constexpr int kSeeds = 32;

TEST(TokenMemoTest, ForgedHashCollisionIsTokenizedAfresh) {
  TokenMemo memo(1u << 20);
  std::shared_ptr<TokenMemo::Generation> gen = memo.Pin();
  std::unique_ptr<TokenEntry> unpublished;
  const TokenEntry* cat = gen->Tokens(42, "the cat sat", &unpublished);
  ASSERT_EQ(unpublished, nullptr);  // Published.
  EXPECT_EQ(cat->value, "the cat sat");

  // Same hash, other bytes: never served the published entry.
  const TokenEntry* dog = gen->Tokens(42, "a dog ran far", &unpublished);
  ASSERT_NE(unpublished, nullptr);
  EXPECT_EQ(dog, unpublished.get());
  EXPECT_EQ(dog->value, "a dog ran far");
  EXPECT_EQ(dog->ids.size(), 4u);
  for (int32_t id : dog->ids) {
    EXPECT_EQ(std::count(cat->ids.begin(), cat->ids.end(), id), 0);
  }

  // The published entry still answers for its own bytes.
  std::unique_ptr<TokenEntry> none;
  EXPECT_EQ(gen->Tokens(42, "the cat sat", &none), cat);
  EXPECT_EQ(none, nullptr);

  const TokenMemo::Stats stats = memo.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.collisions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(TokenMemoTest, WordModeIsTheMemos) {
  // One value, two memos: each tokenizes in its own mode.
  TokenMemo normalized_memo(1u << 20, /*normalize_words=*/true);
  TokenMemo raw_memo(1u << 20);
  std::unique_ptr<TokenEntry> unpublished;
  const TokenEntry* normalized =
      normalized_memo.Pin()->Tokens(7, "The, Cat the cat", &unpublished);
  const TokenEntry* raw =
      raw_memo.Pin()->Tokens(7, "The, Cat the cat", &unpublished);
  ASSERT_EQ(unpublished, nullptr);
  // Normalized, "The," and "the" are one word; raw, all four differ.
  EXPECT_EQ(normalized->ids, (std::vector<int32_t>{0, 1, 0, 1}));
  EXPECT_EQ(raw->ids, (std::vector<int32_t>{0, 1, 2, 3}));

  // Comparators lent the two memos give the two modes' distances.
  auto labels = std::make_shared<LabelTable>();
  StatusOr<Tree> t = ParseSexpr("(D (S \"The, cat\") (S \"the cat\"))", labels);
  ASSERT_TRUE(t.ok());
  const NodeId a = t->children(t->root())[0];
  const NodeId b = t->children(t->root())[1];
  WordLcsComparator lenient(&normalized_memo);
  WordLcsComparator strict(&raw_memo);
  EXPECT_DOUBLE_EQ(lenient.Compare(*t, a, *t, b), 0.0);
  EXPECT_DOUBLE_EQ(strict.Compare(*t, a, *t, b), 1.0);
}

TEST(TokenMemoTest, RollsOverToAFreshGenerationAtTheCap) {
  TokenMemo memo(4096);
  std::shared_ptr<TokenMemo::Generation> first = memo.Pin();
  EXPECT_EQ(memo.Pin(), first);  // Not full: the same generation.
  std::vector<const TokenEntry*> published;
  std::unique_ptr<TokenEntry> unpublished;
  uint64_t hash = 0;
  // Fill it. The last value's new words may be what fills it, and then
  // that value is not published either.
  while (!first->full()) {
    const std::string value = "value number " + std::to_string(hash);
    const TokenEntry* entry = first->Tokens(hash++, value, &unpublished);
    if (unpublished == nullptr) published.push_back(entry);
    ASSERT_LT(hash, 1000u) << "the generation never filled";
  }
  EXPECT_GE(published.size(), 2u);
  EXPECT_GE(memo.stats().bytes, 4096u);
  EXPECT_EQ(memo.stats().entries, published.size());

  // A full generation publishes nothing more...
  unpublished.reset();
  first->Tokens(hash, "one more value", &unpublished);
  EXPECT_NE(unpublished, nullptr);
  EXPECT_EQ(memo.stats().entries, published.size());

  // ...and the next pin starts a fresh one, with an empty dictionary.
  std::shared_ptr<TokenMemo::Generation> second = memo.Pin();
  EXPECT_NE(second, first);
  EXPECT_EQ(memo.Pin(), second);
  EXPECT_EQ(memo.stats().generations, 2u);
  EXPECT_EQ(memo.stats().entries, 0u);
  std::unique_ptr<TokenEntry> fresh;
  const TokenEntry* again = second->Tokens(0, "value number 0", &fresh);
  EXPECT_EQ(fresh, nullptr);
  EXPECT_NE(again, published[0]);

  // The retired generation stays whole while it is pinned.
  EXPECT_EQ(published[0]->value, "value number 0");
  EXPECT_EQ(first->Tokens(0, "value number 0", &fresh), published[0]);
}

TEST(TokenMemoTest, ComparatorPinsOneGenerationAcrossARollover) {
  // The first value fills a 1-byte generation, so the second is tokenized
  // after the rollover point. Both must share the first dictionary:
  // "x y" against "y x" has an LCS of one word, distance 1.
  auto labels = std::make_shared<LabelTable>();
  StatusOr<Tree> t = ParseSexpr("(D (S \"x y\") (S \"y x\"))", labels);
  ASSERT_TRUE(t.ok());
  const NodeId a = t->children(t->root())[0];
  const NodeId b = t->children(t->root())[1];
  TokenMemo memo(1);
  WordLcsComparator lent(&memo);
  WordLcsComparator private_memo;
  EXPECT_DOUBLE_EQ(private_memo.Compare(*t, a, *t, b), 1.0);
  EXPECT_DOUBLE_EQ(lent.Compare(*t, a, *t, b), 1.0);
  EXPECT_EQ(memo.stats().generations, 1u);

  // A comparator made after the rollover starts on the fresh generation.
  WordLcsComparator later(&memo);
  EXPECT_DOUBLE_EQ(later.Compare(*t, b, *t, a), 1.0);
  EXPECT_EQ(memo.stats().generations, 2u);
}

struct Pair {
  std::string old_doc, new_doc;
};

Pair MakePair(uint64_t seed) {
  auto labels = std::make_shared<LabelTable>();
  Vocabulary vocab(600, 1.0);
  Rng rng(seed);
  DocGenParams params;
  params.sections = 3;
  params.duplicate_sentence_probability = 0.1;
  Tree base = GenerateDocument(params, vocab, &rng, labels);
  SimulatedVersion next = SimulateNewVersion(base, 8, EditMix{}, vocab, &rng);
  return {base.ToDebugString(), next.new_tree.ToDebugString()};
}

/// The script and r1 count of one diff of `pair`, with `memo` lent (or a
/// private memo when null).
std::string DiffText(const Pair& pair, TokenMemo* memo, size_t* compares) {
  auto labels = std::make_shared<LabelTable>();
  StatusOr<Tree> t1 = ParseSexpr(pair.old_doc, labels);
  StatusOr<Tree> t2 = ParseSexpr(pair.new_doc, labels);
  EXPECT_TRUE(t1.ok() && t2.ok());
  DiffOptions options;
  options.share_mode = ShareMode::kIndexed;
  options.token_memo = memo;
  StatusOr<DiffResult> result = DiffTrees(*t1, *t2, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  *compares = result->report.compare_calls;
  return FormatEditScript(result->script, *labels);
}

TEST(TokenMemoTest, LentSmallMemoMatchesPrivateMemoDiffs) {
  // 16 KiB holds a few dozen sentences, so the lent memo rolls over inside
  // diffs again and again; each pair also runs twice, the second time
  // mostly from memo hits.
  TokenMemo memo(16u << 10);
  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Pair pair = MakePair(static_cast<uint64_t>(seed) + 1);
    size_t expected_compares = 0;
    const std::string expected = DiffText(pair, nullptr, &expected_compares);
    for (int round = 0; round < 2; ++round) {
      size_t compares = 0;
      EXPECT_EQ(DiffText(pair, &memo, &compares), expected);
      EXPECT_EQ(compares, expected_compares);
    }
  }
  const TokenMemo::Stats stats = memo.stats();
  EXPECT_GT(stats.generations, 2u);
  EXPECT_GT(stats.hits, 0u);
}

std::vector<std::string> MakeChainTexts(uint64_t seed, int versions) {
  auto labels = std::make_shared<LabelTable>();
  Vocabulary vocab(3000, 1.0);
  Rng rng(seed);
  DocGenParams params;
  params.sections = 64;
  params.min_paragraphs_per_section = 4;
  params.max_paragraphs_per_section = 8;
  params.duplicate_sentence_probability = 0.1;
  Tree tree = GenerateDocument(params, vocab, &rng, labels);
  const int edits = std::max(
      1, static_cast<int>(0.01 * static_cast<double>(tree.Leaves().size())));
  std::vector<std::string> texts = {tree.ToDebugString()};
  for (int v = 1; v <= versions; ++v) {
    tree = SimulateNewVersion(tree, edits, EditMix{}, vocab, &rng).new_tree;
    texts.push_back(tree.ToDebugString());
  }
  return texts;
}

TEST(TokenMemoServiceTest, AnswersMatchMemoLessDiffs) {
  // One service serves 32 documents through one memo. Every answer —
  // inline, stored read, and commit-log delta (whose commit diffed through
  // the memo) — must equal a memo-less DiffTrees of the same trees, which
  // a mirror store (committing with a private memo per diff) reproduces.
  constexpr int kVersions = 3;
  DiffServiceOptions options;
  options.num_threads = 2;
  DiffService service(options);
  DiffOptions read;
  read.share_mode = ShareMode::kIndexed;
  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<std::string> texts =
        MakeChainTexts(static_cast<uint64_t>(seed) + 100, kVersions);
    const std::string doc_id = "doc" + std::to_string(seed);
    ASSERT_TRUE(service.CreateStore(doc_id, texts[0]).ok());
    auto labels = std::make_shared<LabelTable>();
    StatusOr<Tree> base = ParseSexpr(texts[0], labels);
    ASSERT_TRUE(base.ok());
    VersionStore mirror(std::move(*base), DiffOptions{});
    for (int v = 1; v <= kVersions; ++v) {
      StatusOr<int> committed = service.CommitVersion(doc_id, texts[v]);
      ASSERT_TRUE(committed.ok()) << committed.status().ToString();
      ASSERT_EQ(*committed, v);
      StatusOr<Tree> next = ParseSexpr(texts[v], labels);
      ASSERT_TRUE(next.ok());
      ASSERT_TRUE(mirror.Commit(*next).ok());
    }
    // The commits alone already tokenized through the service's memo.
    if (seed == 0) {
      EXPECT_GT(service.token_memo_stats().misses, 0u);
    }

    for (int from = 0; from < kVersions; ++from) {
      for (int to = from + 1; to <= kVersions; ++to) {
        DiffRequest request;
        request.doc_id = doc_id;
        request.from_version = from;
        request.to_version = to;
        const DiffResponse answer = service.SubmitSync(request);
        ASSERT_TRUE(answer.status.ok()) << answer.status.ToString();
        EXPECT_EQ(answer.chain_log_hit, to == from + 1);
        StatusOr<Tree> t1 = mirror.Materialize(from);
        StatusOr<Tree> t2 = mirror.Materialize(to);
        ASSERT_TRUE(t1.ok() && t2.ok());
        StatusOr<DiffResult> expected = DiffTrees(*t1, *t2, read);
        ASSERT_TRUE(expected.ok());
        EXPECT_EQ(answer.script, FormatEditScript(expected->script, *labels))
            << from << " -> " << to;
      }
    }

    DiffRequest inline_request;
    inline_request.old_doc = texts[0];
    inline_request.new_doc = texts[kVersions];
    const DiffResponse answer = service.SubmitSync(inline_request);
    ASSERT_TRUE(answer.status.ok()) << answer.status.ToString();
    StatusOr<Tree> t1 = ParseSexpr(texts[0], labels);
    StatusOr<Tree> t2 = ParseSexpr(texts[kVersions], labels);
    ASSERT_TRUE(t1.ok() && t2.ok());
    StatusOr<DiffResult> expected = DiffTrees(*t1, *t2, read);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(answer.script, FormatEditScript(expected->script, *labels));
  }
  const TokenMemo::Stats stats = service.token_memo_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.entries, 0u);
}

}  // namespace
}  // namespace treediff
