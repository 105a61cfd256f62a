// Additional facade coverage: threshold grids, context completion on
// documents, cross-format consistency, and error paths.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "core/diff.h"
#include "gen/doc_gen.h"
#include "gen/edit_sim.h"
#include "tree/builder.h"

namespace treediff {
namespace {

/// The pipeline's correctness invariants must hold for every legal
/// (f, t) threshold combination — thresholds shape the matching quality,
/// never the script's validity.
class ThresholdGridTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ThresholdGridTest, CorrectAcrossThresholds) {
  const auto [f_param, t_param] = GetParam();
  Vocabulary vocab(400, 1.0);
  Rng rng(901);
  DocGenParams params;
  params.sections = 3;
  auto labels = std::make_shared<LabelTable>();
  Tree t1 = GenerateDocument(params, vocab, &rng, labels);
  SimulatedVersion v = SimulateNewVersion(t1, 12, {}, vocab, &rng);

  DiffOptions options;
  options.leaf_threshold_f = f_param;
  options.internal_threshold_t = t_param;
  auto diff = DiffTrees(t1, v.new_tree, options);
  ASSERT_TRUE(diff.ok()) << "f=" << f_param << " t=" << t_param << ": "
                         << diff.status().ToString();
  Tree replay = t1.Clone();
  ASSERT_TRUE(diff->script.ApplyTo(&replay).ok());
  EXPECT_TRUE(Tree::Isomorphic(replay, v.new_tree))
      << "f=" << f_param << " t=" << t_param;

  auto delta = BuildDeltaTree(t1, v.new_tree, *diff);
  ASSERT_TRUE(delta.ok());
  auto old_again = ReconstructOldVersion(*delta, labels);
  ASSERT_TRUE(old_again.ok());
  EXPECT_TRUE(Tree::Isomorphic(*old_again, t1))
      << "f=" << f_param << " t=" << t_param;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ThresholdGridTest,
    ::testing::Combine(::testing::Values(0.0, 0.2, 0.5, 0.8, 1.0),
                       ::testing::Values(0.5, 0.6, 0.8, 1.0)));

TEST(DiffMoreTest, LooserLeafThresholdNeverRaisesCost) {
  // A larger f admits more leaf matches; by Lemma 5.1 the script should not
  // get costlier (deterministic workload, so this is a fixed check).
  Vocabulary vocab(400, 1.0);
  Rng rng(902);
  DocGenParams params;
  params.sections = 3;
  auto labels = std::make_shared<LabelTable>();
  Tree t1 = GenerateDocument(params, vocab, &rng, labels);
  EditMix mix;
  mix.update_word_churn = 0.3;  // Updates near the threshold boundary.
  SimulatedVersion v = SimulateNewVersion(t1, 15, mix, vocab, &rng);

  double prev = 1e100;
  for (double f_param : {0.1, 0.3, 0.5, 0.8}) {
    DiffOptions options;
    options.leaf_threshold_f = f_param;
    options.post_process = false;
    auto diff = DiffTrees(t1, v.new_tree, options);
    ASSERT_TRUE(diff.ok());
    EXPECT_LE(diff->script.TotalCost(), prev + 1e-9) << "f=" << f_param;
    prev = diff->script.TotalCost();
  }
}

TEST(DiffMoreTest, ContextCompletionIsNoopOnCleanDocuments) {
  // When everything already matches under the criteria, the completion pass
  // must not change the outcome.
  Vocabulary vocab(600, 0.8);
  Rng rng(903);
  DocGenParams params;
  params.sections = 3;
  auto labels = std::make_shared<LabelTable>();
  Tree t1 = GenerateDocument(params, vocab, &rng, labels);
  SimulatedVersion v = SimulateNewVersion(t1, 5, {}, vocab, &rng);

  DiffOptions with;
  with.complete_context = true;
  DiffOptions without;
  without.complete_context = false;
  auto a = DiffTrees(t1, v.new_tree, with);
  auto b = DiffTrees(t1, v.new_tree, without);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Completion can only add pairs; on this workload it should add few and
  // never increase the cost.
  EXPECT_LE(a->script.TotalCost(), b->script.TotalCost() + 1e-9);
}

TEST(DiffMoreTest, ContextCompletionRescuesShortValues) {
  auto labels = std::make_shared<LabelTable>();
  Tree t1 = *ParseSexpr(
      "(db (row (cell \"1\") (cell \"2\")) (row (cell \"3\") (cell \"4\")))",
      labels);
  Tree t2 = *ParseSexpr(
      "(db (row (cell \"1\") (cell \"9\")) (row (cell \"3\") (cell \"4\")))",
      labels);
  DiffOptions options;
  options.complete_context = true;
  options.internal_threshold_t = 0.5;
  auto diff = DiffTrees(t1, t2, options);
  ASSERT_TRUE(diff.ok());
  // "2" -> "9" has compare distance 2 (single disjoint tokens); without
  // completion this is delete+insert, with it a single update.
  EXPECT_EQ(diff->script.num_updates(), 1u);
  EXPECT_EQ(diff->script.num_inserts(), 0u);
  EXPECT_EQ(diff->script.num_deletes(), 0u);
  EXPECT_GT(diff->report.context_completed, 0u);
}

TEST(DiffMoreTest, StatsContextCountZeroWhenDisabled) {
  auto labels = std::make_shared<LabelTable>();
  Tree t1 = *ParseSexpr("(db (cell \"1\"))", labels);
  Tree t2 = *ParseSexpr("(db (cell \"2\"))", labels);
  auto diff = DiffTrees(t1, t2);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->report.context_completed, 0u);
}

TEST(DiffMoreTest, RootLabelMismatchReportsCleanError) {
  auto labels = std::make_shared<LabelTable>();
  Tree t1 = *ParseSexpr("(alpha (S \"x\"))", labels);
  Tree t2 = *ParseSexpr("(beta (S \"x\"))", labels);
  auto diff = DiffTrees(t1, t2);
  ASSERT_FALSE(diff.ok());
  EXPECT_EQ(diff.status().code(), Code::kFailedPrecondition);
  EXPECT_NE(diff.status().message().find("WrapRoot"), std::string::npos);
}

TEST(DiffMoreTest, WrapRootWorkflowEndToEnd) {
  // The documented recipe for unmatchable roots: wrap both, then diff.
  auto labels = std::make_shared<LabelTable>();
  Tree t1 = *ParseSexpr("(alpha (S \"shared text here\"))", labels);
  Tree t2 = *ParseSexpr("(beta (S \"shared text here\"))", labels);
  LabelId wrapper = labels->Intern("__root__");
  t1.WrapRoot(wrapper);
  t2.WrapRoot(wrapper);
  auto diff = DiffTrees(t1, t2);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  Tree replay = t1.Clone();
  ASSERT_TRUE(diff->script.ApplyTo(&replay).ok());
  EXPECT_TRUE(Tree::Isomorphic(replay, t2));
  // The shared sentence survives as a move, not delete+insert.
  EXPECT_EQ(diff->script.num_moves(), 1u);
}

TEST(DiffMoreTest, FullyDeterministicAcrossRuns) {
  // Same inputs must give byte-identical scripts and delta trees (no
  // unordered-container iteration order may leak into results).
  Vocabulary vocab(500, 1.0);
  Rng rng(904);
  DocGenParams params;
  params.sections = 4;
  params.duplicate_sentence_probability = 0.05;  // Exercise the repair path.
  auto labels = std::make_shared<LabelTable>();
  Tree t1 = GenerateDocument(params, vocab, &rng, labels);
  SimulatedVersion v = SimulateNewVersion(t1, 15, {}, vocab, &rng);

  DiffOptions options;
  options.complete_context = true;
  auto a = DiffTrees(t1, v.new_tree, options);
  auto b = DiffTrees(t1, v.new_tree, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->script.ToString(*labels), b->script.ToString(*labels));
  EXPECT_EQ(a->matching.Pairs(), b->matching.Pairs());
  auto da = BuildDeltaTree(t1, v.new_tree, *a);
  auto db = BuildDeltaTree(t1, v.new_tree, *b);
  ASSERT_TRUE(da.ok());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(da->ToDebugString(*labels), db->ToDebugString(*labels));
}

}  // namespace
}  // namespace treediff
