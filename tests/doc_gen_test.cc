#include "gen/doc_gen.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "tree/schema.h"

namespace treediff {
namespace {

TEST(DocGenTest, GeneratesSchemaConformingDocuments) {
  Vocabulary vocab(300, 1.0);
  Rng rng(1);
  auto labels = std::make_shared<LabelTable>();
  LabelSchema schema = MakeDocumentSchema(labels.get());
  DocGenParams params;
  Tree doc = GenerateDocument(params, vocab, &rng, labels);
  EXPECT_TRUE(doc.Validate().ok());
  EXPECT_TRUE(schema.CheckAcyclic(doc).ok());
  EXPECT_EQ(doc.children(doc.root()).size(),
            static_cast<size_t>(params.sections));
}

TEST(DocGenTest, RespectsShapeBounds) {
  Vocabulary vocab(300, 1.0);
  Rng rng(2);
  DocGenParams params;
  params.sections = 3;
  params.min_paragraphs_per_section = 2;
  params.max_paragraphs_per_section = 4;
  params.min_sentences_per_paragraph = 1;
  params.max_sentences_per_paragraph = 2;
  params.list_probability = 0.0;
  auto labels = std::make_shared<LabelTable>();
  Tree doc = GenerateDocument(params, vocab, &rng, labels);
  LabelId para = labels->Find("paragraph");
  for (NodeId sec : doc.children(doc.root())) {
    const size_t paragraphs = doc.children(sec).size();
    EXPECT_GE(paragraphs, 2u);
    EXPECT_LE(paragraphs, 4u);
    for (NodeId p : doc.children(sec)) {
      ASSERT_EQ(doc.label(p), para);
      EXPECT_GE(doc.children(p).size(), 1u);
      EXPECT_LE(doc.children(p).size(), 2u);
    }
  }
}

TEST(DocGenTest, DeterministicGivenSeed) {
  Vocabulary vocab(200, 1.0);
  auto labels = std::make_shared<LabelTable>();
  Rng rng1(42), rng2(42);
  Tree a = GenerateDocument({}, vocab, &rng1, labels);
  Tree b = GenerateDocument({}, vocab, &rng2, labels);
  EXPECT_TRUE(Tree::Isomorphic(a, b));
}

TEST(DocGenTest, DuplicateKnobInjectsDuplicates) {
  Vocabulary vocab(500, 1.0);
  Rng rng(5);
  DocGenParams params;
  params.sections = 6;
  params.duplicate_sentence_probability = 0.3;
  auto labels = std::make_shared<LabelTable>();
  Tree doc = GenerateDocument(params, vocab, &rng, labels);
  std::map<std::string, int> counts;
  size_t leaves = 0;
  for (NodeId s : doc.Leaves()) {
    ++counts[std::string(doc.value(s))];
    ++leaves;
  }
  size_t duplicated = 0;
  for (const auto& [value, count] : counts) {
    if (count > 1) duplicated += static_cast<size_t>(count);
  }
  EXPECT_GT(duplicated, leaves / 10);  // Plenty of Criterion 3 violations.
}

TEST(DocGenTest, ZeroDuplicateKnobMostlyUnique) {
  Vocabulary vocab(2000, 0.8);
  Rng rng(6);
  DocGenParams params;
  params.duplicate_sentence_probability = 0.0;
  auto labels = std::make_shared<LabelTable>();
  Tree doc = GenerateDocument(params, vocab, &rng, labels);
  std::map<std::string, int> counts;
  for (NodeId s : doc.Leaves()) ++counts[std::string(doc.value(s))];
  size_t duplicated = 0;
  for (const auto& [value, count] : counts) {
    if (count > 1) ++duplicated;
  }
  EXPECT_LT(duplicated, counts.size() / 20);
}

TEST(RebuildFreshTest, PreservesStructureWithDenseIds) {
  Vocabulary vocab(100, 1.0);
  Rng rng(7);
  auto labels = std::make_shared<LabelTable>();
  Tree doc = GenerateDocument({}, vocab, &rng, labels);
  // Punch holes in the id space.
  NodeId victim = doc.Leaves()[0];
  ASSERT_TRUE(doc.DeleteLeaf(victim).ok());
  Tree fresh = RebuildFresh(doc);
  EXPECT_TRUE(Tree::Isomorphic(doc, fresh));
  EXPECT_EQ(fresh.id_bound(), fresh.size());  // Dense.
  EXPECT_EQ(fresh.label_table().get(), doc.label_table().get());
}

TEST(RebuildFreshTest, EmptyTree) {
  Tree empty;
  Tree fresh = RebuildFresh(empty);
  EXPECT_EQ(fresh.size(), 0u);
}

}  // namespace
}  // namespace treediff
