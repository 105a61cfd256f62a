// Property tests for the end-to-end pipeline (FastMatch + EditScript) on
// randomized document workloads: the generated script must transform the old
// tree into a tree isomorphic to the new one, conform to the matching, and
// contain exactly the inserts/deletes/inter-parent moves the matching
// determines (Theorem C.2).

#include <gtest/gtest.h>

#include <tuple>

#include "core/diff.h"
#include "core/edit_script_gen.h"
#include "core/fast_match.h"
#include "gen/doc_gen.h"
#include "gen/edit_sim.h"

namespace treediff {
namespace {

class PipelinePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, uint64_t>> {};

TEST_P(PipelinePropertyTest, ScriptTransformsConformsAndIsMinimal) {
  const auto [sections, edits, seed] = GetParam();
  Vocabulary vocab(400, 1.0);
  Rng rng(seed);
  DocGenParams params;
  params.sections = sections;
  auto labels = std::make_shared<LabelTable>();
  Tree t1 = GenerateDocument(params, vocab, &rng, labels);
  SimulatedVersion v = SimulateNewVersion(t1, edits, {}, vocab, &rng);
  const Tree& t2 = v.new_tree;

  WordLcsComparator cmp;
  CriteriaEvaluator eval(t1, t2, &cmp, {});
  Matching m = ComputeFastMatch(t1, t2, eval);
  // Roots of documents always correspond.
  if (m.PartnerOfT2(t2.root()) != t1.root()) {
    if (m.HasT1(t1.root())) m.Remove(t1.root(), m.PartnerOfT1(t1.root()));
    if (m.HasT2(t2.root())) m.Remove(m.PartnerOfT2(t2.root()), t2.root());
    m.Add(t1.root(), t2.root());
  }

  auto result = GenerateEditScript(t1, t2, m, &cmp);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // 1. Transformation: the working tree is isomorphic to T2.
  EXPECT_TRUE(Tree::Isomorphic(result->transformed, t2));
  EXPECT_TRUE(result->transformed.Validate().ok());

  // 2. Replay: the script applies cleanly to a fresh clone.
  Tree replay = t1.Clone();
  ASSERT_TRUE(result->script.ApplyTo(&replay).ok());
  EXPECT_TRUE(Tree::Isomorphic(replay, t2));

  // 3. Conformance: no matched node is deleted; no insert claims a matched
  // T2 node.
  for (const EditOp& op : result->script.ops()) {
    if (op.kind == EditOpKind::kDelete) {
      EXPECT_FALSE(m.HasT1(op.node)) << "deleted a matched node";
    }
  }

  // 4. Determined op counts (Theorem C.2).
  size_t unmatched_t1 = 0, unmatched_t2 = 0, inter = 0;
  for (NodeId x : t1.PreOrder()) {
    if (!m.HasT1(x)) ++unmatched_t1;
  }
  for (NodeId y : t2.PreOrder()) {
    if (!m.HasT2(y)) ++unmatched_t2;
  }
  for (auto [x, y] : m.Pairs()) {
    const NodeId px = t1.parent(x), py = t2.parent(y);
    if (px == kInvalidNode || py == kInvalidNode) continue;
    if (m.PartnerOfT1(px) != py) ++inter;
  }
  EXPECT_EQ(result->script.num_inserts(), unmatched_t2);
  EXPECT_EQ(result->script.num_deletes(), unmatched_t1);
  EXPECT_EQ(result->inter_parent_moves, inter);

  // 5. Updates only where values differ, and the update count is exactly
  // the number of matched pairs with differing values.
  size_t value_diffs = 0;
  for (auto [x, y] : m.Pairs()) {
    if (t1.value(x) != t2.value(y)) ++value_diffs;
  }
  EXPECT_EQ(result->script.num_updates(), value_diffs);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelinePropertyTest,
    ::testing::Values(std::make_tuple(2, 1, 1ull), std::make_tuple(2, 4, 2ull),
                      std::make_tuple(3, 8, 3ull),
                      std::make_tuple(4, 12, 4ull),
                      std::make_tuple(5, 20, 5ull),
                      std::make_tuple(6, 30, 6ull),
                      std::make_tuple(3, 0, 7ull),
                      std::make_tuple(8, 15, 8ull),
                      std::make_tuple(4, 40, 9ull),
                      std::make_tuple(6, 25, 10ull)));

TEST(PipelineStressTest, ManySmallRandomCases) {
  Vocabulary vocab(150, 1.0);
  for (uint64_t seed = 100; seed < 130; ++seed) {
    Rng rng(seed);
    DocGenParams params;
    params.sections = 2;
    params.min_paragraphs_per_section = 1;
    params.max_paragraphs_per_section = 3;
    params.min_sentences_per_paragraph = 1;
    params.max_sentences_per_paragraph = 3;
    auto labels = std::make_shared<LabelTable>();
    Tree t1 = GenerateDocument(params, vocab, &rng, labels);
    SimulatedVersion v = SimulateNewVersion(
        t1, static_cast<int>(rng.Uniform(6)), {}, vocab, &rng);

    DiffOptions options;
    auto result = DiffTrees(t1, v.new_tree, options);
    ASSERT_TRUE(result.ok()) << "seed " << seed << ": "
                             << result.status().ToString();
    Tree replay = t1.Clone();
    ASSERT_TRUE(result->script.ApplyTo(&replay).ok()) << "seed " << seed;
    EXPECT_TRUE(Tree::Isomorphic(replay, v.new_tree)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace treediff
