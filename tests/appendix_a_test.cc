// Reproduces the Appendix A sample run of LaDiff: the old/new versions of
// the TeXbook excerpt (Figures 14 and 15) are embedded verbatim, and the
// detected changes are checked against the ones the paper's Figure 16
// displays (sentence and paragraph inserts, deletes, updates, and moves).

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "doc/appendix_a_data.h"
#include "doc/ladiff.h"

namespace treediff {
namespace {

class AppendixATest : public ::testing::Test {
 protected:
  AppendixATest() {
    auto result = DiffLatexDocuments(kAppendixAOldDocument,
                                     kAppendixANewDocument);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (result.ok()) {
      result_ = std::make_unique<LaDiffResult>(std::move(*result));
    }
  }

  std::unique_ptr<LaDiffResult> result_;
};

TEST_F(AppendixATest, ParsesBothVersions) {
  ASSERT_NE(result_, nullptr);
  // Old: 3 sections; new: 4 sections.
  EXPECT_EQ(result_->old_tree.children(result_->old_tree.root()).size(), 3u);
  EXPECT_EQ(result_->new_tree.children(result_->new_tree.root()).size(), 4u);
}

TEST_F(AppendixATest, ScriptTransformsOldIntoNew) {
  ASSERT_NE(result_, nullptr);
  Tree replay = result_->old_tree.Clone();
  ASSERT_TRUE(result_->diff.script.ApplyTo(&replay).ok());
  EXPECT_TRUE(Tree::Isomorphic(replay, result_->new_tree));
}

TEST_F(AppendixATest, DetectsTheDocumentedChangeMix) {
  ASSERT_NE(result_, nullptr);
  const EditScript& script = result_->diff.script;
  // Figure 16 shows: moved sentences S1, S2; a moved paragraph; inserted
  // material (a whole section plus a sentence); a deleted sentence; and
  // updated sentences. The exact op counts depend on thresholds, but each
  // category must be detected.
  EXPECT_GE(script.num_moves(), 2u) << "sentence + paragraph moves expected";
  EXPECT_GE(script.num_updates(), 1u);
  EXPECT_GE(script.num_inserts(), 1u);
  EXPECT_GE(script.num_deletes(), 1u);
}

TEST_F(AppendixATest, MovedConclusionSentenceDetected) {
  ASSERT_NE(result_, nullptr);
  // S1 of Figure 16: the "TeX language described in this book" sentence
  // moves from the Conclusion to the first section (and is updated).
  bool found_marker = false;
  for (const DeltaNode& n : result_->delta.nodes()) {
    if (n.annotation == DeltaAnnotation::kMoveMarker &&
        n.value.find("language described in this book") !=
            std::string::npos) {
      found_marker = true;
    }
  }
  EXPECT_TRUE(found_marker);
}

TEST_F(AppendixATest, MarkupShowsTheConventions) {
  ASSERT_NE(result_, nullptr);
  const std::string& markup = result_->markup;
  EXPECT_NE(markup.find("Moved from"), std::string::npos);
  EXPECT_NE(markup.find("\\textbf{"), std::string::npos);   // Insert.
  EXPECT_NE(markup.find("{\\small"), std::string::npos);    // Delete/move.
  EXPECT_NE(markup.find("(ins)"), std::string::npos);       // New section.
}

TEST_F(AppendixATest, DeletedReliableInfoSentence) {
  ASSERT_NE(result_, nullptr);
  // "In general, the later chapters contain more reliable information..."
  // appears only in the old version: it must surface as DEL (it is in fact
  // re-inserted verbatim in the new section 2 context in Figure 16, shown
  // in small font there).
  bool found = false;
  for (const DeltaNode& n : result_->delta.nodes()) {
    if (n.value.find("later chapters contain more reliable") !=
        std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace treediff
