// Scale and stress tests: large trees, long random edit sessions, deep
// chains — the invariants (Validate, traversal sizes, Euler consistency)
// must hold throughout.

#include <gtest/gtest.h>

#include <memory>

#include "core/diff.h"
#include "gen/doc_gen.h"
#include "gen/edit_sim.h"
#include "tree/tree.h"
#include "tree/tree_index.h"
#include "util/random.h"

namespace treediff {
namespace {

TEST(TreeStressTest, LargeWideTree) {
  auto labels = std::make_shared<LabelTable>();
  Tree t(labels);
  NodeId root = t.AddRoot("root");
  const LabelId mid_label = labels->Intern("mid");
  const LabelId leaf_label = labels->Intern("leaf");
  for (int i = 0; i < 200; ++i) {
    NodeId mid = t.AddChild(root, mid_label, "");
    for (int j = 0; j < 100; ++j) {
      t.AddChild(mid, leaf_label, "v" + std::to_string(i * 100 + j));
    }
  }
  EXPECT_EQ(t.size(), 1u + 200u + 20000u);
  EXPECT_EQ(t.BfsOrder().size(), t.size());
  EXPECT_EQ(t.PostOrder().size(), t.size());
  EXPECT_EQ(t.PreOrder().size(), t.size());
  EXPECT_EQ(t.Leaves().size(), 20000u);
  EXPECT_EQ(t.LeafCounts()[static_cast<size_t>(root)], 20000);
  EXPECT_TRUE(t.Validate().ok());
}

TEST(TreeStressTest, DeepChain) {
  // Traversals are iterative; a 20000-deep chain must not overflow.
  auto labels = std::make_shared<LabelTable>();
  Tree t(labels);
  const LabelId label = labels->Intern("n");
  NodeId cur = t.AddRoot(label, "");
  for (int i = 0; i < 20000; ++i) cur = t.AddChild(cur, label, "");
  EXPECT_EQ(t.PostOrder().size(), 20001u);
  const TreeIndex index(t);
  EXPECT_EQ(index.BfsOrder().size(), 20001u);
  EXPECT_EQ(index.BfsOrder().back(), cur);
  EXPECT_TRUE(index.Contains(t.root(), cur));
  EXPECT_FALSE(index.Contains(cur, t.root()));
  EXPECT_TRUE(t.Validate().ok());
}

TEST(TreeStressTest, RandomEditSessionKeepsInvariants) {
  auto labels = std::make_shared<LabelTable>();
  Rng rng(1234);
  Tree t(labels);
  const LabelId label = labels->Intern("n");
  NodeId root = t.AddRoot(label, "root");
  std::vector<NodeId> live = {root};

  int inserts = 0, deletes = 0, moves = 0, updates = 0;
  for (int step = 0; step < 4000; ++step) {
    const uint64_t action = rng.Uniform(10);
    if (action < 5 || live.size() < 3) {
      // Insert under a random live node.
      NodeId parent = live[rng.Uniform(live.size())];
      const int k = static_cast<int>(rng.UniformInRange(
          1, static_cast<int64_t>(t.children(parent).size()) + 1));
      auto id = t.InsertLeaf(label, "v" + std::to_string(step), parent, k);
      ASSERT_TRUE(id.ok());
      live.push_back(*id);
      ++inserts;
    } else if (action < 7) {
      // Delete a random leaf (not the root).
      NodeId victim = live[rng.Uniform(live.size())];
      if (victim != root && t.IsLeaf(victim)) {
        ASSERT_TRUE(t.DeleteLeaf(victim).ok());
        live.erase(std::find(live.begin(), live.end(), victim));
        ++deletes;
      }
    } else if (action < 9) {
      // Move a random subtree somewhere legal.
      NodeId x = live[rng.Uniform(live.size())];
      NodeId target = live[rng.Uniform(live.size())];
      if (x != root && !t.IsAncestorOrSelf(x, target)) {
        const size_t base = t.children(target).size();
        const int k = static_cast<int>(rng.UniformInRange(
            1, static_cast<int64_t>(base) +
                   (t.parent(x) == target ? 0 : 1)));
        ASSERT_TRUE(t.MoveSubtree(x, target, std::max(1, k)).ok());
        ++moves;
      }
    } else {
      NodeId x = live[rng.Uniform(live.size())];
      ASSERT_TRUE(t.UpdateValue(x, "u" + std::to_string(step)).ok());
      ++updates;
    }
    if (step % 500 == 0) {
      ASSERT_TRUE(t.Validate().ok()) << "step " << step;
    }
  }
  EXPECT_TRUE(t.Validate().ok());
  EXPECT_EQ(t.size(), live.size());
  EXPECT_GT(inserts, 0);
  EXPECT_GT(deletes, 0);
  EXPECT_GT(moves, 0);
  EXPECT_GT(updates, 0);
}

TEST(TreeStressTest, DiffOnLargeDocuments) {
  // End-to-end on >12k-node documents: correct and comfortably fast.
  auto labels = std::make_shared<LabelTable>();
  Vocabulary vocab(10000, 0.7);
  Rng rng(555);
  DocGenParams params;
  params.sections = 300;
  params.min_paragraphs_per_section = 6;
  params.max_paragraphs_per_section = 10;
  Tree t1 = GenerateDocument(params, vocab, &rng, labels);
  ASSERT_GT(t1.size(), 12000u);
  SimulatedVersion v = SimulateNewVersion(t1, 30, {}, vocab, &rng);

  auto diff = DiffTrees(t1, v.new_tree);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  Tree replay = t1.Clone();
  ASSERT_TRUE(diff->script.ApplyTo(&replay).ok());
  EXPECT_TRUE(Tree::Isomorphic(replay, v.new_tree));

  auto delta = BuildDeltaTree(t1, v.new_tree, *diff);
  ASSERT_TRUE(delta.ok());
  auto old_again = ReconstructOldVersion(*delta, labels);
  ASSERT_TRUE(old_again.ok());
  EXPECT_TRUE(Tree::Isomorphic(*old_again, t1));
}

TEST(TreeStressTest, ManySmallDiffsNoStateLeak) {
  // Repeated diffs over one label table must not interfere.
  auto labels = std::make_shared<LabelTable>();
  Vocabulary vocab(300, 1.0);
  Rng rng(777);
  DocGenParams params;
  params.sections = 2;
  for (int round = 0; round < 25; ++round) {
    Tree t1 = GenerateDocument(params, vocab, &rng, labels);
    SimulatedVersion v = SimulateNewVersion(t1, 5, {}, vocab, &rng);
    auto diff = DiffTrees(t1, v.new_tree);
    ASSERT_TRUE(diff.ok()) << "round " << round;
    Tree replay = t1.Clone();
    ASSERT_TRUE(diff->script.ApplyTo(&replay).ok()) << "round " << round;
    EXPECT_TRUE(Tree::Isomorphic(replay, v.new_tree)) << "round " << round;
  }
}

}  // namespace
}  // namespace treediff
