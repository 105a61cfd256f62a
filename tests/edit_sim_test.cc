#include "gen/edit_sim.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "gen/doc_gen.h"
#include "tree/schema.h"

namespace treediff {
namespace {

class EditSimTest : public ::testing::Test {
 protected:
  EditSimTest() : vocab_(300, 1.0) {}

  Tree MakeDoc(uint64_t seed, int sections = 4) {
    Rng rng(seed);
    DocGenParams params;
    params.sections = sections;
    labels_ = std::make_shared<LabelTable>();
    return GenerateDocument(params, vocab_, &rng, labels_);
  }

  Vocabulary vocab_;
  std::shared_ptr<LabelTable> labels_;
};

TEST_F(EditSimTest, ZeroEditsIsIdentity) {
  Tree doc = MakeDoc(1);
  Rng rng(10);
  SimulatedVersion v = SimulateNewVersion(doc, 0, {}, vocab_, &rng);
  EXPECT_TRUE(Tree::Isomorphic(doc, v.new_tree));
  EXPECT_EQ(v.intended_ops, 0u);
  EXPECT_EQ(v.intended_weighted, 0u);
}

TEST_F(EditSimTest, OriginalIsUntouched) {
  Tree doc = MakeDoc(2);
  const std::string before = doc.ToDebugString();
  Rng rng(11);
  SimulateNewVersion(doc, 20, {}, vocab_, &rng);
  EXPECT_EQ(doc.ToDebugString(), before);
}

TEST_F(EditSimTest, NewTreeIsValidSchemaConforming) {
  Tree doc = MakeDoc(3);
  LabelSchema schema = MakeDocumentSchema(labels_.get());
  Rng rng(12);
  SimulatedVersion v = SimulateNewVersion(doc, 25, {}, vocab_, &rng);
  EXPECT_TRUE(v.new_tree.Validate().ok());
  EXPECT_TRUE(schema.CheckAcyclic(v.new_tree).ok());
  // Fresh dense ids, unrelated to the original's.
  EXPECT_EQ(v.new_tree.id_bound(), v.new_tree.size());
}

TEST_F(EditSimTest, GroundTruthAccounting) {
  Tree doc = MakeDoc(4);
  Rng rng(13);
  SimulatedVersion v = SimulateNewVersion(doc, 15, {}, vocab_, &rng);
  EXPECT_GT(v.intended_ops, 0u);
  // Every op except an update contributes weight >= 1, so e + updates >= d.
  EXPECT_GE(v.intended_weighted + v.sentence_updates, v.intended_ops);
  // Category counters sum to the requested edit count (each edit maps to
  // one category).
  const size_t edits = v.sentence_updates + v.sentence_inserts +
                       v.sentence_deletes + v.sentence_moves +
                       v.paragraph_moves + v.paragraph_inserts +
                       v.paragraph_deletes;
  EXPECT_EQ(edits, 15u);
}

TEST_F(EditSimTest, PureUpdateMixChangesOnlyValues) {
  Tree doc = MakeDoc(5);
  EditMix mix;
  mix.update_sentence = 1.0;
  mix.insert_sentence = mix.delete_sentence = mix.move_sentence = 0.0;
  mix.move_paragraph = mix.insert_paragraph = mix.delete_paragraph = 0.0;
  Rng rng(14);
  SimulatedVersion v = SimulateNewVersion(doc, 10, mix, vocab_, &rng);
  EXPECT_EQ(v.sentence_updates, 10u);
  EXPECT_EQ(v.intended_weighted, 0u);
  EXPECT_EQ(doc.size(), v.new_tree.size());  // Structure unchanged.
}

TEST_F(EditSimTest, PureMoveMixPreservesMultiset) {
  Tree doc = MakeDoc(6);
  EditMix mix;
  mix.update_sentence = 0.0;
  mix.insert_sentence = mix.delete_sentence = 0.0;
  mix.move_sentence = 1.0;
  mix.move_paragraph = mix.insert_paragraph = mix.delete_paragraph = 0.0;
  Rng rng(15);
  SimulatedVersion v = SimulateNewVersion(doc, 8, mix, vocab_, &rng);
  EXPECT_EQ(v.sentence_moves, 8u);
  // Same sentences, possibly different placement.
  std::multiset<std::string> before, after;
  for (NodeId s : doc.Leaves()) before.emplace(doc.value(s));
  for (NodeId s : v.new_tree.Leaves()) after.emplace(v.new_tree.value(s));
  EXPECT_EQ(before, after);
}

TEST_F(EditSimTest, DeterministicGivenSeed) {
  Tree doc = MakeDoc(7);
  Rng rng1(20), rng2(20);
  SimulatedVersion a = SimulateNewVersion(doc, 12, {}, vocab_, &rng1);
  SimulatedVersion b = SimulateNewVersion(doc, 12, {}, vocab_, &rng2);
  EXPECT_TRUE(Tree::Isomorphic(a.new_tree, b.new_tree));
  EXPECT_EQ(a.intended_ops, b.intended_ops);
}

TEST_F(EditSimTest, TinyDocumentDoesNotCrash) {
  auto labels = std::make_shared<LabelTable>();
  Tree doc(labels);
  NodeId d = doc.AddRoot("document");
  NodeId sec = doc.AddChild(d, "section", "h");
  NodeId p = doc.AddChild(sec, "paragraph");
  doc.AddChild(p, "sentence", "Only one here.");
  Rng rng(30);
  SimulatedVersion v = SimulateNewVersion(doc, 10, {}, vocab_, &rng);
  EXPECT_TRUE(v.new_tree.Validate().ok());
}

}  // namespace
}  // namespace treediff
