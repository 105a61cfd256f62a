#include "core/delta_query.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/diff.h"
#include "tree/builder.h"

namespace treediff {
namespace {

/// The delta nodes one active rule on `mask` and `label` fires on.
std::vector<DeltaHit> Select(const DeltaTree& delta, const LabelTable& labels,
                             AnnotationMask mask,
                             LabelId label = kInvalidLabel) {
  const std::vector<ActiveRule> rules = {{"select", mask, label, nullptr}};
  std::vector<DeltaHit> hits;
  for (const RuleFiring& firing : EvaluateRules(delta, labels, rules)) {
    hits.push_back(firing.hit);
  }
  return hits;
}

class DeltaQueryTest : public ::testing::Test {
 protected:
  DeltaQueryTest() {
    labels_ = std::make_shared<LabelTable>();
    // Both paragraphs keep enough common sentences to stay matched; the
    // updated sentence stays within the f = 0.5 leaf threshold.
    Tree t1 = *ParseSexpr(
        "(D (P (S \"keep one two\") (S \"old text words here\") "
        "(S \"doomed gone bye\")) "
        "(P (S \"solo here now\") (S \"second solo line\")))",
        labels_);
    Tree t2 = *ParseSexpr(
        "(D (P (S \"keep one two\") (S \"old text words changed\")) "
        "(P (S \"solo here now\") (S \"second solo line\") "
        "(S \"fresh new sentence\")))",
        labels_);
    t1_ = std::make_unique<Tree>(std::move(t1));
    t2_ = std::make_unique<Tree>(std::move(t2));
    auto diff = DiffTrees(*t1_, *t2_);
    EXPECT_TRUE(diff.ok());
    auto delta = BuildDeltaTree(*t1_, *t2_, *diff);
    EXPECT_TRUE(delta.ok());
    delta_ = std::make_unique<DeltaTree>(std::move(*delta));
  }

  std::shared_ptr<LabelTable> labels_;
  std::unique_ptr<Tree> t1_, t2_;
  std::unique_ptr<DeltaTree> delta_;
};

TEST_F(DeltaQueryTest, SelectByAnnotation) {
  auto inserts = Select(*delta_, *labels_, MaskOf(DeltaAnnotation::kInserted));
  ASSERT_EQ(inserts.size(), 1u);
  EXPECT_EQ(delta_->node(inserts[0].node).value, "fresh new sentence");

  auto deletes = Select(*delta_, *labels_, MaskOf(DeltaAnnotation::kDeleted));
  ASSERT_EQ(deletes.size(), 1u);
  EXPECT_EQ(delta_->node(deletes[0].node).value, "doomed gone bye");

  auto updates = Select(*delta_, *labels_, MaskOf(DeltaAnnotation::kUpdated));
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_EQ(delta_->node(updates[0].node).value,
            "old text words changed");
}

TEST_F(DeltaQueryTest, SelectAnyChangeSkipsIdentical) {
  auto all = Select(*delta_, *labels_, kAnyChange);
  EXPECT_EQ(all.size(), 3u);  // upd + del + ins.
}

TEST_F(DeltaQueryTest, SelectFiltersByLabel) {
  LabelId sentence = labels_->Find("S");
  ASSERT_NE(sentence, kInvalidLabel);
  auto hits = Select(*delta_, *labels_, kAnyChange, sentence);
  EXPECT_EQ(hits.size(), 3u);
  LabelId paragraph = labels_->Find("P");
  auto para_hits = Select(*delta_, *labels_, kAnyChange, paragraph);
  EXPECT_TRUE(para_hits.empty());  // Both paragraphs matched unchanged.
}

TEST_F(DeltaQueryTest, PathsHaveSiblingOrdinals) {
  auto inserts = Select(*delta_, *labels_, MaskOf(DeltaAnnotation::kInserted));
  ASSERT_EQ(inserts.size(), 1u);
  EXPECT_EQ(inserts[0].path, "D[0]/P[1]/S[2]");
}

TEST_F(DeltaQueryTest, SummarizeWholeDelta) {
  ChangeSummary s = SummarizeSubtree(*delta_, delta_->root());
  EXPECT_EQ(s.inserted, 1u);
  EXPECT_EQ(s.deleted, 1u);
  EXPECT_EQ(s.updated, 1u);
  EXPECT_EQ(s.moved, 0u);
  EXPECT_EQ(s.total(), 3u);
}

TEST_F(DeltaQueryTest, SummarizeSubtreeIsLocal) {
  // The first paragraph holds only the update + delete.
  const int p0 = delta_->node(delta_->root()).children[0];
  ChangeSummary s = SummarizeSubtree(*delta_, p0);
  EXPECT_EQ(s.inserted, 0u);
  EXPECT_EQ(s.deleted, 1u);
  EXPECT_EQ(s.updated, 1u);
}

TEST_F(DeltaQueryTest, ChangeReportListsChangedRegionsOnly) {
  std::string report = RenderChangeReport(*delta_, *labels_);
  EXPECT_NE(report.find("fresh new sentence"), std::string::npos);
  EXPECT_NE(report.find("doomed gone bye"), std::string::npos);
  EXPECT_EQ(report.find("keep one two"), std::string::npos);  // Unchanged.
}

TEST_F(DeltaQueryTest, RulesFireOnMatchingChanges) {
  LabelId sentence = labels_->Find("S");
  std::vector<ActiveRule> rules;
  rules.push_back({"on-insert", MaskOf(DeltaAnnotation::kInserted),
                   sentence, nullptr});
  rules.push_back({"on-delete", MaskOf(DeltaAnnotation::kDeleted),
                   kInvalidLabel, nullptr});
  auto firings = EvaluateRules(*delta_, *labels_, rules);
  ASSERT_EQ(firings.size(), 2u);
  // Document order: the delete (first paragraph) precedes the insert.
  EXPECT_EQ(firings[0].rule->name, "on-delete");
  EXPECT_EQ(firings[1].rule->name, "on-insert");
}

TEST_F(DeltaQueryTest, RuleConditionsFilter) {
  std::vector<ActiveRule> rules;
  rules.push_back({"long-inserts", MaskOf(DeltaAnnotation::kInserted),
                   kInvalidLabel,
                   [](const DeltaNode& n) { return n.value.size() > 100; }});
  EXPECT_TRUE(EvaluateRules(*delta_, *labels_, rules).empty());
  rules[0].condition = [](const DeltaNode& n) {
    return n.value.find("fresh") != std::string::npos;
  };
  EXPECT_EQ(EvaluateRules(*delta_, *labels_, rules).size(), 1u);
}

TEST_F(DeltaQueryTest, MovedAndUpdatedCountsAsBoth) {
  // Build a delta with a moved+updated sentence and query by kUpdated.
  Tree t1 = *ParseSexpr(
      "(D (P (S \"alpha beta gamma delta\") (S \"stay here one\") "
      "(S \"stay one b\")) (P (S \"stay here two\") (S \"stay two b\")))",
      labels_);
  Tree t2 = *ParseSexpr(
      "(D (P (S \"stay here one\") (S \"stay one b\")) "
      "(P (S \"stay here two\") (S \"stay two b\") "
      "(S \"alpha beta gamma zeta\")))",
      labels_);
  auto diff = DiffTrees(t1, t2);
  ASSERT_TRUE(diff.ok());
  auto delta = BuildDeltaTree(t1, t2, *diff);
  ASSERT_TRUE(delta.ok());
  auto updated = Select(*delta, *labels_, MaskOf(DeltaAnnotation::kUpdated));
  ASSERT_EQ(updated.size(), 1u);
  EXPECT_EQ(delta->node(updated[0].node).annotation,
            DeltaAnnotation::kMoveMarker);
  ChangeSummary s = SummarizeSubtree(*delta, delta->root());
  EXPECT_EQ(s.moved, 1u);
  EXPECT_EQ(s.updated, 1u);
}

TEST(DeltaQueryEmptyTest, EmptyDeltaYieldsNothing) {
  DeltaTree empty;
  LabelTable labels;
  EXPECT_TRUE(Select(empty, labels, kAnyChange).empty());
  EXPECT_TRUE(RenderChangeReport(empty, labels).empty());
  EXPECT_TRUE(EvaluateRules(empty, labels, {}).empty());
}

}  // namespace
}  // namespace treediff
