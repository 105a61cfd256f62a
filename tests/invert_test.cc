// InvertScript: applying a script and then its inverse must restore the
// original tree EXACTLY — same node identities, labels, values, and child
// orders (deleted nodes are revived in their dead slots).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>

#include "core/diff.h"
#include "core/edit_script.h"
#include "gen/doc_gen.h"
#include "gen/edit_sim.h"
#include "tree/builder.h"

namespace treediff {
namespace {

/// Exact equality including node identities (stronger than Isomorphic).
bool ExactlyEqual(const Tree& a, const Tree& b) {
  if (a.size() != b.size() || a.root() != b.root()) return false;
  for (NodeId x : a.PreOrder()) {
    if (!b.Alive(x)) return false;
    if (a.label(x) != b.label(x) || a.value(x) != b.value(x)) return false;
    if (a.parent(x) != b.parent(x)) return false;
    if (!std::ranges::equal(a.children(x), b.children(x))) return false;
  }
  return true;
}

struct Fixture {
  std::shared_ptr<LabelTable> labels = std::make_shared<LabelTable>();

  Tree Parse(const std::string& s) { return *ParseSexpr(s, labels); }

  void CheckRoundTrip(const Tree& t1, const Tree& t2) {
    auto diff = DiffTrees(t1, t2);
    ASSERT_TRUE(diff.ok()) << diff.status().ToString();
    auto inverse = InvertScript(diff->script, t1);
    ASSERT_TRUE(inverse.ok()) << inverse.status().ToString();

    Tree work = t1.Clone();
    ASSERT_TRUE(diff->script.ApplyTo(&work).ok());
    EXPECT_TRUE(Tree::Isomorphic(work, t2));
    ASSERT_TRUE(inverse->ApplyTo(&work).ok())
        << "inverse:\n" << inverse->ToString(*labels);
    EXPECT_TRUE(ExactlyEqual(work, t1))
        << "forward:\n" << diff->script.ToString(*labels)
        << "inverse:\n" << inverse->ToString(*labels);
    EXPECT_TRUE(work.Validate().ok());
  }
};

TEST(InvertTest, EmptyScript) {
  Fixture f;
  Tree t = f.Parse("(D (S \"a\"))");
  EditScript empty;
  auto inverse = InvertScript(empty, t);
  ASSERT_TRUE(inverse.ok());
  EXPECT_TRUE(inverse->empty());
}

TEST(InvertTest, SingleOps) {
  Fixture f;
  // Update.
  f.CheckRoundTrip(f.Parse("(D (S \"old text here\"))"),
                   f.Parse("(D (S \"new text here\"))"));
  // Insert.
  f.CheckRoundTrip(f.Parse("(D (S \"a b c\"))"),
                   f.Parse("(D (S \"a b c\") (S \"fresh one two\"))"));
  // Delete.
  f.CheckRoundTrip(f.Parse("(D (S \"a b c\") (S \"doomed x y\"))"),
                   f.Parse("(D (S \"a b c\"))"));
  // Intra-parent move.
  f.CheckRoundTrip(f.Parse("(D (S \"a a\") (S \"b b\") (S \"c c\"))"),
                   f.Parse("(D (S \"c c\") (S \"a a\") (S \"b b\"))"));
}

TEST(InvertTest, InverseOfInverseIsForward) {
  Fixture f;
  Tree t1 = f.Parse("(D (S \"a b c\") (S \"d e f\"))");
  Tree t2 = f.Parse("(D (S \"d e f\") (S \"a b x\"))");
  auto diff = DiffTrees(t1, t2);
  ASSERT_TRUE(diff.ok());
  auto inverse = InvertScript(diff->script, t1);
  ASSERT_TRUE(inverse.ok());
  Tree after = t1.Clone();
  ASSERT_TRUE(diff->script.ApplyTo(&after).ok());
  auto forward_again = InvertScript(*inverse, after);
  ASSERT_TRUE(forward_again.ok());
  // Applying the double inverse to t1 lands on t2 again.
  Tree work = t1.Clone();
  ASSERT_TRUE(forward_again->ApplyTo(&work).ok());
  EXPECT_TRUE(Tree::Isomorphic(work, t2));
}

TEST(InvertTest, FailsOnInapplicableScript) {
  Fixture f;
  Tree t = f.Parse("(D (S \"a\"))");
  EditScript bogus;
  bogus.Append(EditOp::Delete(99));
  EXPECT_FALSE(InvertScript(bogus, t).ok());
}

class InvertPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, uint64_t>> {};

TEST_P(InvertPropertyTest, RandomWorkloadsRoundTripExactly) {
  const auto [sections, edits, seed] = GetParam();
  Vocabulary vocab(400, 1.0);
  Rng rng(seed);
  DocGenParams params;
  params.sections = sections;
  Fixture f;
  Tree t1 = GenerateDocument(params, vocab, &rng, f.labels);
  SimulatedVersion v = SimulateNewVersion(t1, edits, {}, vocab, &rng);
  f.CheckRoundTrip(t1, v.new_tree);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InvertPropertyTest,
    ::testing::Values(std::make_tuple(2, 3, 601ull),
                      std::make_tuple(3, 8, 602ull),
                      std::make_tuple(4, 15, 603ull),
                      std::make_tuple(5, 25, 604ull),
                      std::make_tuple(6, 40, 605ull),
                      std::make_tuple(3, 0, 606ull)));

TEST(InvertTest, RollbackThroughVersionChain) {
  // Undo an entire editing session by inverting each delta in reverse.
  Fixture f;
  Vocabulary vocab(300, 1.0);
  Rng rng(607);
  DocGenParams params;
  params.sections = 3;
  Tree original = GenerateDocument(params, vocab, &rng, f.labels);

  Tree current = original.Clone();
  std::vector<EditScript> inverses;
  for (int round = 0; round < 5; ++round) {
    SimulatedVersion v = SimulateNewVersion(current, 6, {}, vocab, &rng);
    auto diff = DiffTrees(current, v.new_tree);
    ASSERT_TRUE(diff.ok());
    auto inverse = InvertScript(diff->script, current);
    ASSERT_TRUE(inverse.ok());
    inverses.push_back(std::move(*inverse));
    ASSERT_TRUE(diff->script.ApplyTo(&current).ok());
  }
  // Roll everything back.
  for (auto it = inverses.rbegin(); it != inverses.rend(); ++it) {
    ASSERT_TRUE(it->ApplyTo(&current).ok());
  }
  EXPECT_TRUE(ExactlyEqual(current, original));
}

}  // namespace
}  // namespace treediff
