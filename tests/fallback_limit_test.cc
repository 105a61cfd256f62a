// The A(k) optimality/efficiency knob (the paper's Section 9 future-work
// item): bounding the fallback scan must cap comparisons, never break
// correctness, and degrade matching quality gracefully.

#include <gtest/gtest.h>

#include <memory>

#include "core/diff.h"
#include "core/fast_match.h"
#include "gen/doc_gen.h"
#include "gen/edit_sim.h"
#include "tree/builder.h"

namespace treediff {
namespace {

struct Fixture {
  std::shared_ptr<LabelTable> labels = std::make_shared<LabelTable>();
  WordLcsComparator cmp;

  Tree Parse(const std::string& s) { return *ParseSexpr(s, labels); }
};

TEST(FallbackLimitTest, UnlimitedEqualsDefault) {
  Fixture f;
  Tree t1 = f.Parse(
      "(D (P (S \"s one one\") (S \"s two two\") (S \"s three three\")))");
  Tree t2 = f.Parse(
      "(D (P (S \"s three three\") (S \"s one one\") (S \"s two two\")))");
  CriteriaEvaluator e1(t1, t2, &f.cmp, {});
  Matching unlimited = ComputeFastMatch(t1, t2, e1, nullptr, 0);
  CriteriaEvaluator e2(t1, t2, &f.cmp, {});
  Matching defaulted = ComputeFastMatch(t1, t2, e2);
  EXPECT_EQ(unlimited.Pairs(), defaulted.Pairs());
}

TEST(FallbackLimitTest, SmallKMissesFarMatches) {
  Fixture f;
  // "mover" is out of LCS order (the a/b/c run wins), so it falls to the
  // fallback scan — where two inserted decoys precede it among the
  // unmatched T2 candidates. With k = 1 the scan gives up at the first
  // decoy; unlimited reaches it.
  Tree t1 = f.Parse(
      "(D (S \"mover aaa bbb\") (S \"a a\") (S \"b b\") (S \"c c\"))");
  Tree t2 = f.Parse(
      "(D (S \"a a\") (S \"new1 one\") (S \"new2 two\") (S \"b b\") "
      "(S \"c c\") (S \"mover aaa bbb\"))");
  CriteriaEvaluator e_full(t1, t2, &f.cmp, {});
  Matching full = ComputeFastMatch(t1, t2, e_full, nullptr, 0);
  NodeId mover = t1.children(t1.root())[0];
  EXPECT_TRUE(full.HasT1(mover));

  CriteriaEvaluator e_k1(t1, t2, &f.cmp, {});
  Matching limited = ComputeFastMatch(t1, t2, e_k1, nullptr, 1);
  EXPECT_FALSE(limited.HasT1(mover));
  EXPECT_LE(limited.size(), full.size());
}

TEST(FallbackLimitTest, CorrectScriptEitherWay) {
  Fixture f;
  Vocabulary vocab(300, 1.0);
  Rng rng(61);
  DocGenParams params;
  params.sections = 3;
  Tree t1 = GenerateDocument(params, vocab, &rng, f.labels);
  SimulatedVersion v = SimulateNewVersion(t1, 15, {}, vocab, &rng);

  for (int k : {0, 1, 2, 8}) {
    DiffOptions options;
    options.fallback_limit_k = k;
    auto diff = DiffTrees(t1, v.new_tree, options);
    ASSERT_TRUE(diff.ok()) << "k=" << k;
    Tree replay = t1.Clone();
    ASSERT_TRUE(diff->script.ApplyTo(&replay).ok()) << "k=" << k;
    EXPECT_TRUE(Tree::Isomorphic(replay, v.new_tree)) << "k=" << k;
  }
}

TEST(FallbackLimitTest, CostDecreasesMonotonicallyInK) {
  // A larger window can only find more matches, so the script cost is
  // non-increasing in k (comparisons are non-decreasing).
  Fixture f;
  Vocabulary vocab(300, 1.0);
  Rng rng(62);
  DocGenParams params;
  params.sections = 4;
  Tree t1 = GenerateDocument(params, vocab, &rng, f.labels);
  EditMix shuffly;
  shuffly.update_sentence = 0.2;
  shuffly.move_sentence = 0.5;
  shuffly.insert_sentence = 0.15;
  shuffly.delete_sentence = 0.15;
  shuffly.move_paragraph = shuffly.insert_paragraph = 0.0;
  shuffly.delete_paragraph = shuffly.move_section = 0.0;
  SimulatedVersion v = SimulateNewVersion(t1, 20, shuffly, vocab, &rng);

  double prev_cost = 1e100;
  size_t prev_cmp = 0;
  for (int k : {1, 4, 16, 0}) {  // 0 = unlimited comes last.
    DiffOptions options;
    options.fallback_limit_k = k;
    options.post_process = false;  // Isolate the fallback effect.
    auto diff = DiffTrees(t1, v.new_tree, options);
    ASSERT_TRUE(diff.ok());
    EXPECT_LE(diff->script.TotalCost(), prev_cost + 1e-9) << "k=" << k;
    EXPECT_GE(diff->report.compare_calls, prev_cmp) << "k=" << k;
    prev_cost = diff->script.TotalCost();
    prev_cmp = diff->report.compare_calls;
  }
}

}  // namespace
}  // namespace treediff
