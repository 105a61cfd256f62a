// FastMatch's word-bag bound (LeafChainBound) must change no decision and
// no count. The property test checks each bounded probe against the plain
// compare(x, y) <= f; the identity gate runs whole diffs through the bound
// and through a comparator that implements only Compare (so FastMatch has
// no bound) and requires the same matching, r1, r2, script bytes and, under
// a comparison cap, the same trip point.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/compare.h"
#include "core/criteria.h"
#include "core/diff.h"
#include "core/fast_match.h"
#include "core/script_io.h"
#include "gen/doc_gen.h"
#include "gen/edit_sim.h"
#include "gen/vocab.h"
#include "tree/tree_index.h"
#include "util/budget.h"
#include "util/random.h"

namespace treediff {
namespace {

/// The LaDiff metric with no WordBag: FastMatch runs Compare on every
/// probe, as it did before the bound existed.
class CompareOnlyComparator : public ValueComparator {
 public:
  explicit CompareOnlyComparator(bool normalize_words = false)
      : inner_(normalize_words) {}

 protected:
  double CompareImpl(const Tree& t1, NodeId x, const Tree& t2,
                     NodeId y) const override {
    return inner_.Compare(t1, x, t2, y);
  }

 private:
  WordLcsComparator inner_;
};

/// A sentence over a tiny vocabulary, so pairs share words often and
/// repeat them: empty and one-word values, case and punctuation variants
/// (which normalize_words folds) and non-ASCII bytes.
std::string RandomSentence(Rng* rng) {
  static const char* const kWords[] = {
      "the",    "The,", "fox",       "fox.", "caf\xc3\xa9", "\xe6\x97\xa5",
      "\xff",   "a",    "brown",     "(a)",  "jumps",       "over",
      "\x80\x81", "dog", "DOG!",     "the"};
  const size_t kinds = sizeof(kWords) / sizeof(kWords[0]);
  const int length = static_cast<int>(rng->Uniform(9));  // 0..8 words.
  std::string sentence;
  for (int w = 0; w < length; ++w) {
    if (w > 0) sentence += rng->Bernoulli(0.2) ? "  " : " ";
    sentence += kWords[rng->Uniform(kinds)];
  }
  return sentence;
}

Tree SentenceChain(const std::vector<std::string>& values,
                   const std::shared_ptr<LabelTable>& labels) {
  Tree tree(labels);
  const NodeId root = tree.AddRoot("D");
  for (const std::string& value : values) tree.AddChild(root, "S", value);
  return tree;
}

TEST(LeafChainBoundTest, BoundedDecisionEqualsCompareAtEveryThreshold) {
  Rng rng(2024);
  size_t rejected = 0;
  for (int round = 0; round < 24; ++round) {
    auto labels = std::make_shared<LabelTable>();
    std::vector<std::string> v1, v2;
    for (int k = 0; k < 20; ++k) v1.push_back(RandomSentence(&rng));
    for (int k = 0; k < 20; ++k) v2.push_back(RandomSentence(&rng));
    // Some exact copies, so equal values meet unfilled and filled rows.
    v2[3] = v1[5];
    v2[11] = v1[0];
    Tree t1 = SentenceChain(v1, labels);
    Tree t2 = SentenceChain(v2, labels);
    TreeIndex index1(t1);
    TreeIndex index2(t2);
    const LabelId s = labels->Find("S");
    const std::vector<NodeId>& s1 = index1.LeafChain(s);
    const std::vector<NodeId>& s2 = index2.LeafChain(s);
    // Probe pairs in a scrambled order so rows fill lazily at random.
    std::vector<std::pair<size_t, size_t>> probes;
    for (size_t i = 0; i < s1.size(); ++i) {
      for (size_t j = 0; j < s2.size(); ++j) probes.emplace_back(i, j);
    }
    rng.Shuffle(&probes);
    for (bool normalize : {false, true}) {
      for (double f : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        WordLcsComparator cmp(normalize);
        WordLcsComparator reference(normalize);
        CriteriaEvaluator eval(index1, index2, &cmp, MatchOptions{f, 0.6});
        LeafChainBound bound(eval, s1, s2);
        for (const auto& [i, j] : probes) {
          const bool expected =
              reference.Compare(t1, s1[i], t2, s2[j]) <= f;
          const bool may_pass = bound.MayPass(i, j);
          if (!may_pass) ++rejected;
          const size_t before = eval.compare_calls();
          EXPECT_EQ(eval.LeafEqual(s1[i], s2[j], may_pass), expected)
              << "f=" << f << " normalize=" << normalize << " \"" << v1[i]
              << "\" vs \"" << v2[j] << "\"";
          EXPECT_EQ(eval.compare_calls(), before + 1);
        }
      }
    }
  }
  // The bound must actually reject pairs, or this test checks nothing.
  EXPECT_GT(rejected, 0u);
}

TEST(LeafChainBoundTest, ComparatorWithoutBagsLetsEveryPairPass) {
  auto labels = std::make_shared<LabelTable>();
  Tree t1 = SentenceChain({"a b c", "d e f"}, labels);
  Tree t2 = SentenceChain({"x y z", "a b c"}, labels);
  TreeIndex index1(t1);
  TreeIndex index2(t2);
  const LabelId s = labels->Find("S");
  CompareOnlyComparator cmp;
  CriteriaEvaluator eval(index1, index2, &cmp, {});
  LeafChainBound bound(eval, index1.LeafChain(s), index2.LeafChain(s));
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 2; ++j) EXPECT_TRUE(bound.MayPass(i, j));
  }
}

/// One 64-section document with duplicate sentences and an edited version
/// of it, as the stored-chain benchmark generates them.
struct VersionPair {
  Tree t1;
  Tree t2;
};

VersionPair MakePair(uint64_t seed) {
  static const Vocabulary vocab(3000, 1.0);
  Rng rng(seed);
  DocGenParams params;
  params.sections = 64;
  params.min_paragraphs_per_section = 4;
  params.max_paragraphs_per_section = 8;
  params.duplicate_sentence_probability = 0.1;
  auto labels = std::make_shared<LabelTable>();
  Tree t1 = GenerateDocument(params, vocab, &rng, labels);
  EditMix mix;
  mix.update_sentence = 0.32;
  mix.insert_sentence = 0.13;
  mix.delete_sentence = 0.13;
  mix.move_sentence = 0.08;
  mix.move_paragraph = 0.14;
  mix.insert_paragraph = 0.04;
  mix.delete_paragraph = 0.04;
  mix.move_section = 0.12;
  SimulatedVersion v =
      SimulateNewVersion(t1, 4 + static_cast<int>(seed % 16), mix, vocab, &rng);
  return {std::move(t1), std::move(v.new_tree)};
}

StatusOr<DiffResult> Diff(const VersionPair& pair, ShareMode mode,
                          const ValueComparator* comparator,
                          const Budget* budget = nullptr) {
  DiffOptions options;
  options.share_mode = mode;
  options.comparator = comparator;
  options.budget = budget;
  return DiffTrees(pair.t1, pair.t2, options);
}

void ExpectSameDiff(const DiffResult& bounded, const DiffResult& plain,
                    const LabelTable& labels, const std::string& where) {
  EXPECT_EQ(bounded.matching.Pairs(), plain.matching.Pairs()) << where;
  EXPECT_EQ(bounded.report.compare_calls, plain.report.compare_calls)
      << where;
  EXPECT_EQ(bounded.report.partner_checks, plain.report.partner_checks)
      << where;
  EXPECT_EQ(bounded.report.rung, plain.report.rung) << where;
  EXPECT_EQ(FormatEditScript(bounded.script, labels),
            FormatEditScript(plain.script, labels))
      << where;
}

TEST(LeafChainBoundTest, DiffsThroughTheBoundAreIdenticalAcrossSeeds) {
  int runs_with_probes = 0;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    const VersionPair pair = MakePair(seed);
    const LabelTable& labels = *pair.t1.label_table();
    for (ShareMode mode : {ShareMode::kIndexed, ShareMode::kOff}) {
      const std::string where =
          "seed " + std::to_string(seed) +
          (mode == ShareMode::kOff ? " unseeded" : " seeded");
      WordLcsComparator bounded_cmp;
      CompareOnlyComparator plain_cmp;
      auto bounded = Diff(pair, mode, &bounded_cmp);
      auto plain = Diff(pair, mode, &plain_cmp);
      ASSERT_TRUE(bounded.ok()) << where;
      ASSERT_TRUE(plain.ok()) << where;
      if (plain->report.compare_calls > 0) ++runs_with_probes;
      ExpectSameDiff(*bounded, *plain, labels, where);

      // Half the comparisons the uncapped run made: the cap trips during
      // phase 1, and both runs must trip at the same probe and degrade
      // alike.
      const size_t cap =
          (plain->report.compare_calls + plain->report.partner_checks) / 2 +
          1;
      Budget bounded_budget;
      Budget plain_budget;
      bounded_budget.set_comparison_cap(cap);
      plain_budget.set_comparison_cap(cap);
      WordLcsComparator capped_bounded_cmp;
      CompareOnlyComparator capped_plain_cmp;
      auto capped_bounded =
          Diff(pair, mode, &capped_bounded_cmp, &bounded_budget);
      auto capped_plain = Diff(pair, mode, &capped_plain_cmp, &plain_budget);
      ASSERT_TRUE(capped_bounded.ok()) << where;
      ASSERT_TRUE(capped_plain.ok()) << where;
      if (plain->report.compare_calls > 0) {
        EXPECT_TRUE(plain_budget.exhausted()) << where;
      }
      EXPECT_EQ(bounded_budget.exhausted(), plain_budget.exhausted())
          << where;
      EXPECT_EQ(bounded_budget.exhaustion_detail(),
                plain_budget.exhaustion_detail())
          << where;
      EXPECT_EQ(bounded_budget.comparisons(), plain_budget.comparisons())
          << where;
      EXPECT_EQ(bounded_budget.nodes_visited(), plain_budget.nodes_visited())
          << where;
      ExpectSameDiff(*capped_bounded, *capped_plain, labels,
                     where + " capped");
    }
  }
  // A seeded diff whose edits were all settled wholesale probes nothing;
  // most of the 64 runs must probe, or the gate compares nothing.
  EXPECT_GE(runs_with_probes, 48);
}

}  // namespace
}  // namespace treediff
