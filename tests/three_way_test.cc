#include "store/three_way.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gen/doc_gen.h"
#include "gen/edit_sim.h"
#include "tree/builder.h"

namespace treediff {
namespace {

struct Fixture {
  std::shared_ptr<LabelTable> labels = std::make_shared<LabelTable>();

  Tree Parse(const std::string& s) { return *ParseSexpr(s, labels); }

  /// Collects all leaf values of a tree in document order.
  std::vector<std::string> LeafValues(const Tree& t) {
    std::vector<std::string> values;
    for (NodeId s : t.Leaves()) values.emplace_back(t.value(s));
    return values;
  }
};

TEST(ThreeWayTest, DisjointEditsMergeCleanly) {
  Fixture f;
  Tree base = f.Parse(
      "(D (P (S \"alpha one two\") (S \"beta three four\")) "
      "(P (S \"gamma five six\") (S \"delta seven eight\")))");
  // Ours edits the first paragraph, theirs the second.
  Tree ours = f.Parse(
      "(D (P (S \"alpha one CHANGED\") (S \"beta three four\")) "
      "(P (S \"gamma five six\") (S \"delta seven eight\")))");
  Tree theirs = f.Parse(
      "(D (P (S \"alpha one two\") (S \"beta three four\")) "
      "(P (S \"gamma five six\") (S \"delta seven eight\") "
      "(S \"epsilon nine ten\")))");

  auto merge = ThreeWayMerge(base, ours, theirs);
  ASSERT_TRUE(merge.ok()) << merge.status().ToString();
  EXPECT_TRUE(merge->conflicts.empty());
  auto values = f.LeafValues(merge->merged);
  EXPECT_NE(std::find(values.begin(), values.end(), "alpha one CHANGED"),
            values.end());
  EXPECT_NE(std::find(values.begin(), values.end(), "epsilon nine ten"),
            values.end());
  EXPECT_EQ(merge->merged.Leaves().size(), 5u);
}

TEST(ThreeWayTest, UpdateUpdateConflictOursWins) {
  Fixture f;
  Tree base = f.Parse(
      "(D (S \"shared base text here\") (S \"stable one two\"))");
  Tree ours = f.Parse(
      "(D (S \"shared OURS text here\") (S \"stable one two\"))");
  Tree theirs = f.Parse(
      "(D (S \"shared THEIRS text here\") (S \"stable one two\"))");
  auto merge = ThreeWayMerge(base, ours, theirs);
  ASSERT_TRUE(merge.ok());
  ASSERT_EQ(merge->conflicts.size(), 1u);
  EXPECT_EQ(merge->conflicts[0].kind, ConflictKind::kUpdateUpdate);
  auto values = f.LeafValues(merge->merged);
  EXPECT_EQ(values[0], "shared OURS text here");  // Ours wins.
}

TEST(ThreeWayTest, ConvergentEditsAreNotConflicts) {
  Fixture f;
  Tree base = f.Parse(
      "(D (S \"old value sits here\") (S \"keep me now\"))");
  Tree same = f.Parse(
      "(D (S \"new value sits here\") (S \"keep me now\"))");
  auto merge = ThreeWayMerge(base, same, same.Clone());
  ASSERT_TRUE(merge.ok());
  EXPECT_TRUE(merge->conflicts.empty());
  EXPECT_EQ(f.LeafValues(merge->merged)[0], "new value sits here");
  // The convergent update applied once, not twice.
  EXPECT_TRUE(Tree::Isomorphic(merge->merged, same));
}

TEST(ThreeWayTest, UpdateDeleteConflictDetected) {
  Fixture f;
  Tree base = f.Parse(
      "(D (S \"contested text lives here\") (S \"anchor a b\") "
      "(S \"anchor c d\"))");
  Tree ours = f.Parse(
      "(D (S \"contested text lives EDITED\") (S \"anchor a b\") "
      "(S \"anchor c d\"))");
  Tree theirs = f.Parse("(D (S \"anchor a b\") (S \"anchor c d\"))");
  auto merge = ThreeWayMerge(base, ours, theirs);
  ASSERT_TRUE(merge.ok());
  ASSERT_GE(merge->conflicts.size(), 1u);
  EXPECT_EQ(merge->conflicts[0].kind, ConflictKind::kUpdateDelete);
  // Ours wins: the edited sentence survives.
  auto values = f.LeafValues(merge->merged);
  EXPECT_NE(std::find(values.begin(), values.end(),
                      "contested text lives EDITED"),
            values.end());
}

TEST(ThreeWayTest, MoveMoveConflictDetected) {
  Fixture f;
  Tree base = f.Parse(
      "(D (P (S \"mover x y\") (S \"a1 a2\") (S \"a3 a4\")) "
      "(P (S \"b1 b2\") (S \"b3 b4\")) (P (S \"c1 c2\") (S \"c3 c4\")))");
  // Ours moves the sentence into P2; theirs into P3.
  Tree ours = f.Parse(
      "(D (P (S \"a1 a2\") (S \"a3 a4\")) "
      "(P (S \"b1 b2\") (S \"b3 b4\") (S \"mover x y\")) "
      "(P (S \"c1 c2\") (S \"c3 c4\")))");
  Tree theirs = f.Parse(
      "(D (P (S \"a1 a2\") (S \"a3 a4\")) (P (S \"b1 b2\") (S \"b3 b4\")) "
      "(P (S \"c1 c2\") (S \"c3 c4\") (S \"mover x y\")))");
  auto merge = ThreeWayMerge(base, ours, theirs);
  ASSERT_TRUE(merge.ok());
  ASSERT_GE(merge->conflicts.size(), 1u);
  EXPECT_EQ(merge->conflicts[0].kind, ConflictKind::kMoveMove);
  // Exactly one instance of the mover survives (ours' placement).
  auto values = f.LeafValues(merge->merged);
  EXPECT_EQ(std::count(values.begin(), values.end(), "mover x y"), 1);
}

TEST(ThreeWayTest, BothSidesInsertInDifferentPlaces) {
  Fixture f;
  Tree base = f.Parse(
      "(D (P (S \"p1 s1 x\") (S \"p1 s2 y\")) (P (S \"p2 s1 z\") "
      "(S \"p2 s2 w\")))");
  Tree ours = f.Parse(
      "(D (P (S \"p1 s1 x\") (S \"ours new here\") (S \"p1 s2 y\")) "
      "(P (S \"p2 s1 z\") (S \"p2 s2 w\")))");
  Tree theirs = f.Parse(
      "(D (P (S \"p1 s1 x\") (S \"p1 s2 y\")) (P (S \"p2 s1 z\") "
      "(S \"p2 s2 w\") (S \"theirs new here\")))");
  auto merge = ThreeWayMerge(base, ours, theirs);
  ASSERT_TRUE(merge.ok());
  EXPECT_TRUE(merge->conflicts.empty());
  auto values = f.LeafValues(merge->merged);
  EXPECT_EQ(values.size(), 6u);
  EXPECT_NE(std::find(values.begin(), values.end(), "ours new here"),
            values.end());
  EXPECT_NE(std::find(values.begin(), values.end(), "theirs new here"),
            values.end());
}

TEST(ThreeWayTest, TheirsEditInsideOursDeletedSubtree) {
  Fixture f;
  Tree base = f.Parse(
      "(D (P (S \"keep one two\") (S \"keep three four\")) "
      "(P (S \"doomed a b\") (S \"doomed c d\")))");
  // Ours deletes the second paragraph wholesale.
  Tree ours = f.Parse(
      "(D (P (S \"keep one two\") (S \"keep three four\")))");
  // Theirs inserts inside it.
  Tree theirs = f.Parse(
      "(D (P (S \"keep one two\") (S \"keep three four\")) "
      "(P (S \"doomed a b\") (S \"doomed c d\") (S \"late addition e\")))");
  auto merge = ThreeWayMerge(base, ours, theirs);
  ASSERT_TRUE(merge.ok());
  EXPECT_GE(merge->conflicts.size(), 1u);
  EXPECT_GE(merge->skipped_theirs, 1u);
  // The deletion won; the late addition has nowhere to go.
  auto values = f.LeafValues(merge->merged);
  EXPECT_EQ(std::find(values.begin(), values.end(), "late addition e"),
            values.end());
}

TEST(ThreeWayTest, UpdateUpdateConflictIsFullyReported) {
  Fixture f;
  Tree base = f.Parse(
      "(D (S \"contested words sit here\") (S \"anchor one two\"))");
  Tree ours = f.Parse(
      "(D (S \"contested words sit OURS\") (S \"anchor one two\"))");
  Tree theirs = f.Parse(
      "(D (S \"contested words sit THEIRS\") (S \"anchor one two\"))");
  auto merge = ThreeWayMerge(base, ours, theirs);
  ASSERT_TRUE(merge.ok());
  ASSERT_EQ(merge->conflicts.size(), 1u);
  const MergeConflict& conflict = merge->conflicts[0];
  EXPECT_EQ(conflict.kind, ConflictKind::kUpdateUpdate);
  // The conflict anchors at the contested base leaf, so a reviewer can find
  // it: the reported node must be a live leaf of the base holding the
  // contested value.
  ASSERT_NE(conflict.base_node, kInvalidNode);
  ASSERT_TRUE(base.Alive(conflict.base_node));
  EXPECT_EQ(base.value(conflict.base_node), "contested words sit here");
  EXPECT_FALSE(conflict.description.empty());
  EXPECT_STREQ(ConflictKindName(ConflictKind::kUpdateUpdate),
               "update/update");
}

TEST(ThreeWayTest, MoveIntoSubtreeTheOtherSideDeleted) {
  Fixture f;
  // Ours moves the sentence into the second paragraph; theirs deletes that
  // paragraph wholesale. Both cannot hold: the move's destination is gone.
  Tree base = f.Parse(
      "(D (P (S \"mover x y\") (S \"a1 a2\") (S \"a3 a4\")) "
      "(P (S \"doomed b1 b2\") (S \"doomed b3 b4\")))");
  Tree ours = f.Parse(
      "(D (P (S \"a1 a2\") (S \"a3 a4\")) "
      "(P (S \"doomed b1 b2\") (S \"doomed b3 b4\") (S \"mover x y\")))");
  Tree theirs = f.Parse(
      "(D (P (S \"mover x y\") (S \"a1 a2\") (S \"a3 a4\")))");
  auto merge = ThreeWayMerge(base, ours, theirs);
  ASSERT_TRUE(merge.ok()) << merge.status().ToString();
  EXPECT_TRUE(merge->merged.Validate().ok());
  // The clash must be surfaced, not silently resolved.
  ASSERT_GE(merge->conflicts.size(), 1u);
  bool saw_delete_conflict = false;
  for (const MergeConflict& c : merge->conflicts) {
    if (c.kind == ConflictKind::kMoveDelete ||
        c.kind == ConflictKind::kDeleteEdit ||
        c.kind == ConflictKind::kUpdateDelete) {
      saw_delete_conflict = true;
    }
  }
  EXPECT_TRUE(saw_delete_conflict);
  // Ours wins: the moved sentence survives, exactly once, in the merge.
  auto values = f.LeafValues(merge->merged);
  EXPECT_EQ(std::count(values.begin(), values.end(), "mover x y"), 1);
}

TEST(ThreeWayTest, EmptyBaseMergeTakesBothSidesInserts) {
  Fixture f;
  // The degenerate but real case: both sides grew a document from nothing
  // (a bare root). Everything is an insert; nothing can conflict.
  Tree base = f.Parse("(D)");
  Tree ours = f.Parse("(D (P (S \"ours grew this\")))");
  Tree theirs = f.Parse("(D (P (S \"theirs grew that\")))");
  auto merge = ThreeWayMerge(base, ours, theirs);
  ASSERT_TRUE(merge.ok()) << merge.status().ToString();
  EXPECT_TRUE(merge->conflicts.empty());
  EXPECT_TRUE(merge->merged.Validate().ok());
  auto values = f.LeafValues(merge->merged);
  EXPECT_NE(std::find(values.begin(), values.end(), "ours grew this"),
            values.end());
  EXPECT_NE(std::find(values.begin(), values.end(), "theirs grew that"),
            values.end());
  EXPECT_GT(merge->ops_from_ours, 0u);
  EXPECT_GT(merge->ops_from_theirs, 0u);
}

TEST(ThreeWayTest, IdenticalSidesAreANoopMerge) {
  Fixture f;
  Tree base = f.Parse("(D (S \"same a b\"))");
  auto merge = ThreeWayMerge(base, base.Clone(), base.Clone());
  ASSERT_TRUE(merge.ok());
  EXPECT_TRUE(merge->conflicts.empty());
  EXPECT_EQ(merge->ops_from_ours, 0u);
  EXPECT_EQ(merge->ops_from_theirs, 0u);
  EXPECT_TRUE(Tree::Isomorphic(merge->merged, base));
}

TEST(ThreeWayTest, RejectsForeignLabelTables) {
  Fixture f;
  Tree base = f.Parse("(D (S \"x\"))");
  Tree other = *ParseSexpr("(D (S \"x\"))");  // Own table.
  EXPECT_EQ(ThreeWayMerge(base, base.Clone(), other).status().code(),
            Code::kInvalidArgument);
}

TEST(ThreeWayTest, RandomDisjointSectionsAlwaysMergeClean) {
  // Ours edits only the first half of the sections, theirs only the second:
  // structurally disjoint concurrent work must merge without conflicts and
  // contain both sides' intended changes.
  auto labels = std::make_shared<LabelTable>();
  Vocabulary vocab(500, 1.0);
  Rng rng(1001);
  DocGenParams params;
  params.sections = 6;
  Tree base = GenerateDocument(params, vocab, &rng, labels);

  // Build "ours" by editing a clone restricted to sections 0-2 via targeted
  // sentence updates; "theirs" in sections 3-5.
  auto edit_half = [&](bool first_half) {
    Tree t = base.Clone();
    const std::span<const NodeId> top = t.children(t.root());
    const std::vector<NodeId> sections(top.begin(), top.end());
    int edited = 0;
    for (size_t i = 0; i < sections.size(); ++i) {
      const bool in_half = first_half ? i < 3 : i >= 3;
      if (!in_half) continue;
      for (NodeId p : t.children(sections[i])) {
        if (t.IsLeaf(p) || t.children(p).empty()) continue;
        NodeId s = t.children(p)[0];
        if (!t.IsLeaf(s)) continue;
        std::string v(t.value(s));
        v += first_half ? " oursedit" : " theirsedit";
        EXPECT_TRUE(t.UpdateValue(s, v).ok());
        ++edited;
        break;  // One edit per section keeps sentences within f.
      }
    }
    EXPECT_GT(edited, 0);
    return t;
  };
  Tree ours = edit_half(true);
  Tree theirs = edit_half(false);

  auto merge = ThreeWayMerge(base, ours, theirs);
  ASSERT_TRUE(merge.ok()) << merge.status().ToString();
  EXPECT_TRUE(merge->conflicts.empty());
  size_t ours_edits = 0, theirs_edits = 0;
  for (NodeId s : merge->merged.Leaves()) {
    const std::string_view v = merge->merged.value(s);
    if (v.find(" oursedit") != std::string::npos) ++ours_edits;
    if (v.find(" theirsedit") != std::string::npos) ++theirs_edits;
  }
  EXPECT_GT(ours_edits, 0u);
  EXPECT_GT(theirs_edits, 0u);
}

}  // namespace
}  // namespace treediff
