// The pruned-matching byte-identity discipline (ISSUE 7): the share-map
// pre-pass (ShareMode::kIndexed) and its index-free reference twin
// (ShareMode::kReference) must settle the exact same pairs and produce
// byte-identical edit scripts — kIndexed additionally skips settled
// interiors during generation, so identity here pins down the share-map
// candidate search AND the generator's interior-skipping at once. Seeded
// randomized workloads are adversarial on purpose: duplicate sentences
// (near-collision labels/values) and move-heavy edit mixes.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/compare.h"
#include "core/diff.h"
#include "core/script_io.h"
#include "core/share_map.h"
#include "gen/doc_gen.h"
#include "gen/edit_sim.h"
#include "tree/builder.h"
#include "tree/tree_index.h"

namespace treediff {
namespace {

Tree Parse(const char* sexpr, std::shared_ptr<LabelTable> labels) {
  auto tree = ParseSexpr(sexpr, labels);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return std::move(*tree);
}

StatusOr<DiffResult> DiffWith(const Tree& t1, const Tree& t2,
                              ShareMode mode) {
  DiffOptions options;
  options.share_mode = mode;
  return DiffTrees(t1, t2, options);
}

/// A move-heavy mix: half the edits relocate subtrees, which is where the
/// settled-region bookkeeping can go wrong (moved twins, re-ordered
/// siblings, settled subtrees moving as a unit).
EditMix MoveHeavyMix() {
  EditMix mix;
  mix.update_sentence = 0.25;
  mix.insert_sentence = 0.10;
  mix.delete_sentence = 0.10;
  mix.move_sentence = 0.25;
  mix.move_paragraph = 0.15;
  mix.insert_paragraph = 0.05;
  mix.delete_paragraph = 0.05;
  mix.move_section = 0.05;
  return mix;
}

TEST(PruneIdentityTest, IndexedAndReferenceAgreeAcrossSixtyFourSeeds) {
  Vocabulary vocab(300, 1.0);
  size_t seeds_with_pruning = 0;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed);
    DocGenParams params;
    params.sections = 3 + static_cast<int>(seed % 3);
    // Duplicate sentences make distinct subtrees agree on label, size, leaf
    // count, and often root value — the near-collision workload the
    // verification step exists for.
    params.duplicate_sentence_probability = 0.3;
    auto labels = std::make_shared<LabelTable>();
    Tree t1 = GenerateDocument(params, vocab, &rng, labels);
    SimulatedVersion v = SimulateNewVersion(
        t1, 1 + static_cast<int>(seed % 8), MoveHeavyMix(), vocab, &rng);
    const Tree& t2 = v.new_tree;

    auto reference = DiffWith(t1, t2, ShareMode::kReference);
    auto indexed = DiffWith(t1, t2, ShareMode::kIndexed);
    ASSERT_TRUE(reference.ok())
        << "seed " << seed << ": " << reference.status().ToString();
    ASSERT_TRUE(indexed.ok())
        << "seed " << seed << ": " << indexed.status().ToString();

    // Same settled pairs, same final matching, byte-identical script.
    EXPECT_EQ(reference->report.prune_settled_subtrees,
              indexed->report.prune_settled_subtrees)
        << "seed " << seed;
    EXPECT_EQ(reference->report.prune_settled_nodes,
              indexed->report.prune_settled_nodes)
        << "seed " << seed;
    EXPECT_EQ(reference->matching.Pairs(), indexed->matching.Pairs())
        << "seed " << seed;
    const std::string ref_script =
        FormatEditScript(reference->script, t1.labels());
    const std::string idx_script =
        FormatEditScript(indexed->script, t1.labels());
    EXPECT_EQ(ref_script, idx_script) << "seed " << seed;

    // Both paths still produce a correct transformation.
    Tree replay = t1.Clone();
    const Status applied = indexed->script.ApplyTo(&replay);
    ASSERT_TRUE(applied.ok()) << "seed " << seed << ": " << applied.ToString();
    EXPECT_TRUE(Tree::Isomorphic(replay, t2)) << "seed " << seed;

    if (indexed->report.prune_settled_subtrees > 0) ++seeds_with_pruning;
  }
  // The sweep must actually exercise the pre-pass, not vacuously pass.
  EXPECT_GT(seeds_with_pruning, 32u);
}

TEST(PruneIdentityTest, IndexedAndReferenceAgreeOnEveryPairOfDuplicateChains) {
  // Stored-version workloads at scale: every (older, newer) pair of two
  // 12-version chains of 64-section documents in which half the sentences
  // repeat an earlier one. Long runs of equal fingerprints move the
  // share-map cursors far, and unique subtrees exhaust theirs, so a slot
  // whose exhausted cursor ended other fingerprints' probe sequences would
  // settle fewer pairs here.
  Vocabulary vocab(3000, 1.0);
  size_t pairs = 0;
  size_t settled = 0;
  for (uint64_t seed : {11u, 12u}) {
    Rng rng(seed);
    DocGenParams params;
    params.sections = 64;
    params.min_paragraphs_per_section = 4;
    params.max_paragraphs_per_section = 8;
    params.duplicate_sentence_probability = 0.5;
    auto labels = std::make_shared<LabelTable>();
    std::vector<Tree> versions;
    versions.push_back(GenerateDocument(params, vocab, &rng, labels));
    const int edits =
        static_cast<int>(versions.front().Leaves().size() / 100) + 1;
    while (versions.size() < 12) {
      SimulatedVersion next = SimulateNewVersion(versions.back(), edits,
                                                 MoveHeavyMix(), vocab, &rng);
      versions.push_back(std::move(next.new_tree));
    }
    for (size_t i = 0; i < versions.size(); ++i) {
      for (size_t j = i + 1; j < versions.size(); ++j) {
        const Tree& t1 = versions[i];
        const Tree& t2 = versions[j];
        auto reference = DiffWith(t1, t2, ShareMode::kReference);
        auto indexed = DiffWith(t1, t2, ShareMode::kIndexed);
        ASSERT_TRUE(reference.ok()) << reference.status().ToString();
        ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
        const std::string where = "seed " + std::to_string(seed) + " v" +
                                  std::to_string(i) + "->v" +
                                  std::to_string(j);
        EXPECT_EQ(reference->report.prune_settled_subtrees,
                  indexed->report.prune_settled_subtrees)
            << where;
        EXPECT_EQ(reference->report.prune_settled_nodes,
                  indexed->report.prune_settled_nodes)
            << where;
        EXPECT_EQ(reference->matching.Pairs(), indexed->matching.Pairs())
            << where;
        EXPECT_EQ(FormatEditScript(reference->script, t1.labels()),
                  FormatEditScript(indexed->script, t1.labels()))
            << where;
        settled += indexed->report.prune_settled_subtrees;
        ++pairs;
      }
    }
  }
  EXPECT_EQ(pairs, 132u);
  EXPECT_GT(settled, 132u * 100);  // The pre-pass does the bulk of the work.
}

TEST(PruneIdentityTest, OffModeStillProducesCorrectScripts) {
  // kOff is the legacy pipeline; the pruned modes make no byte-identity
  // claim against it (FastMatch may pair interchangeable duplicates
  // differently), but all three must transform correctly and agree on the
  // script's *cost-relevant* outcome for edit-free inputs: zero operations.
  Vocabulary vocab(200, 1.0);
  Rng rng(99);
  DocGenParams params;
  params.sections = 3;
  auto labels = std::make_shared<LabelTable>();
  Tree t1 = GenerateDocument(params, vocab, &rng, labels);
  Tree t2 = RebuildFresh(t1);
  for (ShareMode mode :
       {ShareMode::kOff, ShareMode::kReference, ShareMode::kIndexed}) {
    auto result = DiffWith(t1, t2, mode);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->script.size(), 0u)
        << "mode " << static_cast<int>(mode);
  }
}

TEST(PruneIdentityTest, PrunedRunsReportTheirCounters) {
  auto labels = std::make_shared<LabelTable>();
  Tree t1 = Parse("(D (P (S \"alpha beta\") (S \"gamma\")) "
                  "(P (S \"delta\") (S \"epsilon\")))",
                  labels);
  Tree t2 = Parse("(D (P (S \"alpha beta\") (S \"gamma\")) "
                  "(P (S \"delta\") (S \"CHANGED\")))",
                  labels);
  auto off = DiffWith(t1, t2, ShareMode::kOff);
  auto indexed = DiffWith(t1, t2, ShareMode::kIndexed);
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE(indexed.ok());
  // kOff never runs the pre-pass.
  EXPECT_EQ(off->report.prune_settled_subtrees, 0u);
  // The identical first paragraph is settled wholesale.
  EXPECT_GE(indexed->report.prune_settled_subtrees, 1u);
  EXPECT_GE(indexed->report.prune_settled_nodes, 3u);
  // And the scripts agree here too (a single updated leaf is unambiguous).
  EXPECT_EQ(FormatEditScript(off->script, t1.labels()),
            FormatEditScript(indexed->script, t1.labels()));
}

TEST(ShareMapTest, VerificationRejectsPlantedCollisions) {
  auto labels = std::make_shared<LabelTable>();
  Tree t1 = Parse("(D (P (S \"aa\")) (P (S \"bb\")))", labels);
  Tree t2 = Parse("(D (P (S \"aa\")) (P (S \"cc\")))", labels);
  TreeIndex i1(t1);
  TreeIndex i2(t2);
  ShareMap map = ShareMap::Build(i2);
  SubtreePairWalker walk;
  auto never_spent = [](NodeId) { return false; };

  // t1's second paragraph (P (S "bb")) has no twin in t2. Plant t2's
  // (P (S "cc")) into its fingerprint chain — a deliberate collision — and
  // verify the byte-wise comparison rejects it, which is the invariant that
  // makes fingerprint collisions harmless.
  const NodeId pb = t1.children(t1.root())[1];
  const NodeId pc = t2.children(t2.root())[1];
  const uint64_t fp = i1.SubtreeHash(pb);
  ASSERT_EQ(map.Find(fp), ShareMap::kNoSlot);  // No honest candidate exists.
  map.AddForTest(fp, pc);
  const int planted = map.Find(fp);
  ASSERT_NE(planted, ShareMap::kNoSlot);
  const NodeId candidate = map.SkipSpent(planted, never_spent);
  ASSERT_EQ(candidate, pc);
  EXPECT_EQ(map.Next(candidate), kInvalidNode);  // The only candidate.
  EXPECT_FALSE(walk.Identical(t1, pb, t2, candidate));

  // The honest candidate for the first paragraph verifies.
  const NodeId pa1 = t1.children(t1.root())[0];
  const NodeId pa2 = t2.children(t2.root())[0];
  const int honest = map.Find(i1.SubtreeHash(pa1));
  ASSERT_NE(honest, ShareMap::kNoSlot);
  ASSERT_EQ(map.SkipSpent(honest, never_spent), pa2);
  EXPECT_TRUE(walk.Identical(t1, pa1, t2, pa2));
}

TEST(ShareMapTest, StructuralAndLiteralHashesSplitCleanly) {
  auto labels = std::make_shared<LabelTable>();
  // Same shape and labels, different values: structural hashes agree,
  // literal (and hence combined) hashes differ.
  Tree a = Parse("(D (P (S \"one\")))", labels);
  Tree b = Parse("(D (P (S \"two\")))", labels);
  TreeIndex ia(a);
  TreeIndex ib(b);
  EXPECT_EQ(ia.StructuralHash(a.root()), ib.StructuralHash(b.root()));
  EXPECT_NE(ia.LiteralHash(a.root()), ib.LiteralHash(b.root()));
  EXPECT_NE(ia.SubtreeHash(a.root()), ib.SubtreeHash(b.root()));
  // Identical documents agree on all three.
  Tree c = Parse("(D (P (S \"one\")))", labels);
  TreeIndex ic(c);
  EXPECT_EQ(ia.StructuralHash(a.root()), ic.StructuralHash(c.root()));
  EXPECT_EQ(ia.LiteralHash(a.root()), ic.LiteralHash(c.root()));
  EXPECT_EQ(ia.SubtreeHash(a.root()), ic.SubtreeHash(c.root()));
}

TEST(ReuseMatchingTest, ReusedMatchingSkipsPhaseOneAndMatchesByteForByte) {
  auto labels = std::make_shared<LabelTable>();
  Tree t1 = Parse("(D (P (S \"alpha beta\") (S \"gamma\")) "
                  "(P (S \"delta\")))",
                  labels);
  Tree t2 = Parse("(D (P (S \"alpha beta\") (S \"gamma prime\")) "
                  "(P (S \"delta\") (S \"new\")))",
                  labels);
  auto fresh = DiffTrees(t1, t2, {});
  ASSERT_TRUE(fresh.ok());

  DiffOptions reuse;
  reuse.reuse_matching = &fresh->matching;
  auto replay = DiffTrees(t1, t2, reuse);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->matching.Pairs(), fresh->matching.Pairs());
  EXPECT_EQ(FormatEditScript(replay->script, t1.labels()),
            FormatEditScript(fresh->script, t1.labels()));
}

TEST(ReuseMatchingTest, ReusedMatchingReproducesTheFreshRunAcrossSeeds) {
  // A reused matching settles no region, so generation scans every node;
  // across a move-heavy sweep it must still emit the fresh run's script
  // byte for byte: skipping settled interiors changes cost, never the
  // script. The reuse also reports the fresh run's e and moves by kind,
  // which the script cannot count itself.
  Vocabulary vocab(300, 1.0);
  size_t seeds_with_settled = 0;
  size_t seeds_with_moves = 0;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    Rng rng(seed);
    DocGenParams params;
    params.sections = 3 + static_cast<int>(seed % 3);
    params.duplicate_sentence_probability = 0.3;
    auto labels = std::make_shared<LabelTable>();
    Tree t1 = GenerateDocument(params, vocab, &rng, labels);
    SimulatedVersion v = SimulateNewVersion(
        t1, 1 + static_cast<int>(seed % 8), MoveHeavyMix(), vocab, &rng);
    const Tree& t2 = v.new_tree;

    auto fresh = DiffWith(t1, t2, ShareMode::kIndexed);
    ASSERT_TRUE(fresh.ok()) << "seed " << seed;
    const std::string fresh_script =
        FormatEditScript(fresh->script, t1.labels());
    if (fresh->report.prune_settled_subtrees > 0) ++seeds_with_settled;
    if (fresh->script.num_moves() > 0) ++seeds_with_moves;

    DiffOptions reuse;
    reuse.share_mode = ShareMode::kIndexed;
    reuse.reuse_matching = &fresh->matching;
    auto hit = DiffTrees(t1, t2, reuse);
    ASSERT_TRUE(hit.ok()) << "seed " << seed;
    EXPECT_EQ(FormatEditScript(hit->script, t1.labels()), fresh_script)
        << "seed " << seed;
    EXPECT_EQ(hit->report.weighted_edit_distance,
              fresh->report.weighted_edit_distance)
        << "seed " << seed;
    EXPECT_EQ(hit->report.intra_parent_moves, fresh->report.intra_parent_moves)
        << "seed " << seed;
    EXPECT_EQ(hit->report.inter_parent_moves, fresh->report.inter_parent_moves)
        << "seed " << seed;
  }
  EXPECT_GT(seeds_with_settled, 16u);
  EXPECT_GT(seeds_with_moves, 0u);
}

}  // namespace
}  // namespace treediff
