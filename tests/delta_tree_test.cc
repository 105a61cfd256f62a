#include "core/delta_tree.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/diff.h"
#include "tree/builder.h"

namespace treediff {
namespace {

/// Number of delta nodes carrying `ann`.
size_t Count(const DeltaTree& dt, DeltaAnnotation ann) {
  size_t count = 0;
  for (const DeltaNode& n : dt.nodes()) {
    if (n.annotation == ann) ++count;
  }
  return count;
}

struct Fixture {
  std::shared_ptr<LabelTable> labels = std::make_shared<LabelTable>();

  Tree Parse(const std::string& s) { return *ParseSexpr(s, labels); }

  StatusOr<DeltaTree> Delta(const Tree& t1, const Tree& t2) {
    DiffOptions options;
    options.leaf_threshold_f = 0.5;
    auto diff = DiffTrees(t1, t2, options);
    if (!diff.ok()) return diff.status();
    return BuildDeltaTree(t1, t2, *diff);
  }
};

TEST(DeltaTreeTest, IdenticalTreesAllIdn) {
  Fixture f;
  Tree t1 = f.Parse("(D (P (S \"a a\") (S \"b b\")))");
  Tree t2 = f.Parse("(D (P (S \"a a\") (S \"b b\")))");
  auto dt = f.Delta(t1, t2);
  ASSERT_TRUE(dt.ok());
  EXPECT_EQ(dt->nodes().size(), 4u);
  EXPECT_EQ(Count(*dt, DeltaAnnotation::kIdentical), 4u);
  EXPECT_EQ(dt->move_count(), 0u);
}

TEST(DeltaTreeTest, InsertAnnotated) {
  Fixture f;
  // Three of four leaves stay (3/4 > t = 0.6), so the paragraph remains
  // matched and only the new sentence is annotated INS.
  Tree t1 = f.Parse(
      "(D (P (S \"one two three\") (S \"four five six\") "
      "(S \"seven eight nine\")))");
  Tree t2 = f.Parse(
      "(D (P (S \"one two three\") (S \"four five six\") "
      "(S \"seven eight nine\") (S \"brand new here\")))");
  auto dt = f.Delta(t1, t2);
  ASSERT_TRUE(dt.ok());
  EXPECT_EQ(Count(*dt, DeltaAnnotation::kInserted), 1u);
  // The inserted node carries the new value.
  for (const DeltaNode& n : dt->nodes()) {
    if (n.annotation == DeltaAnnotation::kInserted) {
      EXPECT_EQ(n.value, "brand new here");
      EXPECT_EQ(n.t1_node, kInvalidNode);
    }
  }
}

TEST(DeltaTreeTest, DeleteTombstoneAtOldPosition) {
  Fixture f;
  Tree t1 = f.Parse(
      "(D (P (S \"first one here\") (S \"doomed gone bye\") "
      "(S \"last one here\")))");
  Tree t2 = f.Parse("(D (P (S \"first one here\") (S \"last one here\")))");
  auto dt = f.Delta(t1, t2);
  ASSERT_TRUE(dt.ok());
  EXPECT_EQ(Count(*dt, DeltaAnnotation::kDeleted), 1u);
  // Tombstone sits between the two surviving sentences.
  const DeltaNode& para = dt->node(dt->node(dt->root()).children[0]);
  ASSERT_EQ(para.children.size(), 3u);
  EXPECT_EQ(dt->node(para.children[0]).annotation,
            DeltaAnnotation::kIdentical);
  EXPECT_EQ(dt->node(para.children[1]).annotation,
            DeltaAnnotation::kDeleted);
  EXPECT_EQ(dt->node(para.children[1]).value, "doomed gone bye");
  EXPECT_EQ(dt->node(para.children[2]).annotation,
            DeltaAnnotation::kIdentical);
}

TEST(DeltaTreeTest, DeletedSubtreeKeptWhole) {
  Fixture f;
  Tree t1 = f.Parse(
      "(D (P (S \"keep me now\")) (P (S \"dead one x\") (S \"dead two y\")))");
  Tree t2 = f.Parse("(D (P (S \"keep me now\")))");
  auto dt = f.Delta(t1, t2);
  ASSERT_TRUE(dt.ok());
  // Whole paragraph deleted: tombstone root DEL with two DEL children.
  EXPECT_EQ(Count(*dt, DeltaAnnotation::kDeleted), 3u);
  const DeltaNode& root = dt->node(dt->root());
  ASSERT_EQ(root.children.size(), 2u);
  const DeltaNode& dead_para = dt->node(root.children[1]);
  EXPECT_EQ(dead_para.annotation, DeltaAnnotation::kDeleted);
  EXPECT_EQ(dead_para.children.size(), 2u);
}

TEST(DeltaTreeTest, UpdateKeepsOldValue) {
  Fixture f;
  Tree t1 = f.Parse("(D (P (S \"alpha beta gamma delta\")))");
  Tree t2 = f.Parse("(D (P (S \"alpha beta gamma zeta\")))");
  auto dt = f.Delta(t1, t2);
  ASSERT_TRUE(dt.ok());
  EXPECT_EQ(Count(*dt, DeltaAnnotation::kUpdated), 1u);
  for (const DeltaNode& n : dt->nodes()) {
    if (n.annotation == DeltaAnnotation::kUpdated) {
      EXPECT_EQ(n.value, "alpha beta gamma zeta");
      EXPECT_EQ(n.old_value, "alpha beta gamma delta");
      EXPECT_TRUE(n.value_updated);
    }
  }
}

TEST(DeltaTreeTest, MovePairsTombstoneWithMarker) {
  Fixture f;
  // Paragraphs keep enough common sentences (2/3 > t = 0.6) to stay
  // matched, so the sentence move is detected as a move rather than a
  // delete/insert of paragraphs.
  Tree t1 = f.Parse(
      "(D (P (S \"mover goes far\") (S \"stay put one\") (S \"stay one b\")) "
      "(P (S \"stay put two\") (S \"stay two b\")))");
  Tree t2 = f.Parse(
      "(D (P (S \"stay put one\") (S \"stay one b\")) "
      "(P (S \"stay put two\") (S \"stay two b\") (S \"mover goes far\")))");
  auto dt = f.Delta(t1, t2);
  ASSERT_TRUE(dt.ok());
  EXPECT_EQ(Count(*dt, DeltaAnnotation::kMoved), 1u);
  EXPECT_EQ(Count(*dt, DeltaAnnotation::kMoveMarker), 1u);
  EXPECT_EQ(dt->move_count(), 1u);
  int tombstone_id = -2, marker_id = -3;
  for (const DeltaNode& n : dt->nodes()) {
    if (n.annotation == DeltaAnnotation::kMoved) tombstone_id = n.move_id;
    if (n.annotation == DeltaAnnotation::kMoveMarker) marker_id = n.move_id;
  }
  EXPECT_EQ(tombstone_id, marker_id);
  // Tombstone sits in the first paragraph (old position), marker in the
  // second (new position).
  const DeltaNode& root = dt->node(dt->root());
  const DeltaNode& p1 = dt->node(root.children[0]);
  EXPECT_EQ(dt->node(p1.children[0]).annotation, DeltaAnnotation::kMoved);
  const DeltaNode& p2 = dt->node(root.children[1]);
  EXPECT_EQ(dt->node(p2.children[2]).annotation,
            DeltaAnnotation::kMoveMarker);
}

TEST(DeltaTreeTest, MovedAndUpdatedMarkedForBoth) {
  Fixture f;
  Tree t1 = f.Parse(
      "(D (P (S \"alpha beta gamma delta\") (S \"stay here one\") "
      "(S \"stay one b\")) (P (S \"stay here two\") (S \"stay two b\")))");
  Tree t2 = f.Parse(
      "(D (P (S \"stay here one\") (S \"stay one b\")) "
      "(P (S \"stay here two\") (S \"stay two b\") "
      "(S \"alpha beta gamma zeta\")))");
  auto dt = f.Delta(t1, t2);
  ASSERT_TRUE(dt.ok());
  bool found = false;
  for (const DeltaNode& n : dt->nodes()) {
    if (n.annotation == DeltaAnnotation::kMoveMarker) {
      found = true;
      EXPECT_TRUE(n.value_updated);
      EXPECT_EQ(n.old_value, "alpha beta gamma delta");
      EXPECT_EQ(n.value, "alpha beta gamma zeta");
    }
  }
  EXPECT_TRUE(found);
}

TEST(DeltaTreeTest, AnnotationCountsMatchScript) {
  Fixture f;
  // P1 keeps 2/3 common leaves and P2 2/3, so both paragraphs stay matched
  // under t = 0.6; "d e f" moves, "m n o" is inserted, "x y z" is deleted.
  Tree t1 = f.Parse(
      "(D (P (S \"a b c\") (S \"d e f\") (S \"g h i\")) "
      "(P (S \"j k l\") (S \"p q r\") (S \"x y z\")))");
  Tree t2 = f.Parse(
      "(D (P (S \"a b c\") (S \"g h i\") (S \"m n o\")) "
      "(P (S \"j k l\") (S \"p q r\") (S \"d e f\")))");
  DiffOptions options;
  auto diff = DiffTrees(t1, t2, options);
  ASSERT_TRUE(diff.ok());
  auto dt = BuildDeltaTree(t1, t2, *diff);
  ASSERT_TRUE(dt.ok());
  EXPECT_EQ(Count(*dt, DeltaAnnotation::kInserted),
            diff->script.num_inserts());
  // Every delete op corresponds to a DEL node.
  EXPECT_EQ(Count(*dt, DeltaAnnotation::kDeleted),
            diff->script.num_deletes());
  // Every move op corresponds to one tombstone + one marker.
  EXPECT_EQ(Count(*dt, DeltaAnnotation::kMoved),
            diff->script.num_moves());
  EXPECT_EQ(Count(*dt, DeltaAnnotation::kMoveMarker),
            diff->script.num_moves());
  EXPECT_EQ(Count(*dt, DeltaAnnotation::kUpdated),
            diff->script.num_updates());
}

TEST(DeltaTreeTest, DebugStringShowsAnnotations) {
  Fixture f;
  Tree t1 = f.Parse("(D (S \"old text here\"))");
  Tree t2 = f.Parse("(D (S \"old text here\") (S \"new text here\"))");
  auto dt = f.Delta(t1, t2);
  ASSERT_TRUE(dt.ok());
  const std::string s = dt->ToDebugString(*f.labels);
  EXPECT_NE(s.find(":INS"), std::string::npos);
  EXPECT_EQ(s.find(":DEL"), std::string::npos);
}

TEST(DeltaTreeTest, EmptyTreesRejected) {
  Fixture f;
  Tree t1 = f.Parse("(D)");
  Tree empty(f.labels);
  EditScript script;
  Matching m(1, 0);
  EXPECT_EQ(BuildDeltaTree(t1, empty, m, script).status().code(),
            Code::kFailedPrecondition);
}

}  // namespace
}  // namespace treediff
