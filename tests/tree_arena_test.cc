// Property test for the Tree's flat buffers (tree/tree.h, "Layout"): seeded
// sequences of edit operations on generated documents, checked after every
// operation against a node-per-record reference model and against the
// tree's own consumers — Validate, an attached TreeIndex, Clone and the
// binary codec. The operations aim at the layout's edges: child lists that
// relocate several times, values passed in as views of the same tree,
// truncated id tails, a wrapped root and rolled-back transactional applies.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/edit_script.h"
#include "gen/doc_gen.h"
#include "gen/vocab.h"
#include "store/codec.h"
#include "tree/builder.h"
#include "tree/tree.h"
#include "tree/tree_index.h"
#include "util/random.h"

namespace treediff {
namespace {

std::vector<NodeId> Kids(const Tree& t, NodeId x) {
  const std::span<const NodeId> kids = t.children(x);
  return {kids.begin(), kids.end()};
}

/// The tree as one record per node with its own value string and child
/// vector: the layout the flat buffers replace, kept as the oracle.
struct Model {
  struct Node {
    LabelId label = kInvalidLabel;
    std::string value;
    NodeId parent = kInvalidNode;
    std::vector<NodeId> kids;
    bool alive = true;
  };
  std::vector<Node> nodes;
  NodeId root = kInvalidNode;

  static Model Of(const Tree& t) {
    Model m;
    m.root = t.root();
    for (NodeId x = 0; x < static_cast<NodeId>(t.id_bound()); ++x) {
      m.nodes.push_back({t.label(x), std::string(t.value(x)), t.parent(x),
                         t.Alive(x) ? Kids(t, x) : std::vector<NodeId>{},
                         t.Alive(x)});
    }
    return m;
  }

  Node& at(NodeId x) { return nodes[static_cast<size_t>(x)]; }

  NodeId Insert(LabelId label, std::string value, NodeId parent, int k) {
    const auto id = static_cast<NodeId>(nodes.size());
    nodes.push_back({label, std::move(value), parent, {}, true});
    auto& kids = at(parent).kids;
    kids.insert(kids.begin() + (k - 1), id);
    return id;
  }
  void Delete(NodeId x) {
    auto& kids = at(at(x).parent).kids;
    kids.erase(std::find(kids.begin(), kids.end(), x));
    at(x).alive = false;
    at(x).parent = kInvalidNode;
  }
  void Revive(NodeId x, NodeId parent, int k) {
    auto& kids = at(parent).kids;
    kids.insert(kids.begin() + (k - 1), x);
    at(x).alive = true;
    at(x).parent = parent;
    at(x).kids.clear();
  }
  void Move(NodeId x, NodeId parent, int k) {
    auto& old_kids = at(at(x).parent).kids;
    old_kids.erase(std::find(old_kids.begin(), old_kids.end(), x));
    auto& kids = at(parent).kids;
    kids.insert(kids.begin() + (k - 1), x);
    at(x).parent = parent;
  }
  void Wrap(LabelId label, std::string value) {
    const auto id = static_cast<NodeId>(nodes.size());
    nodes.push_back({label, std::move(value), kInvalidNode, {root}, true});
    at(root).parent = id;
    root = id;
  }
};

/// Every node slot of `t` agrees with `m`: liveness, label, value (dead
/// slots included), parent and child order.
void ExpectMatchesModel(const Tree& t, const Model& m) {
  ASSERT_EQ(t.id_bound(), m.nodes.size());
  EXPECT_EQ(t.root(), m.root);
  for (NodeId x = 0; x < static_cast<NodeId>(t.id_bound()); ++x) {
    const Model::Node& n = m.nodes[static_cast<size_t>(x)];
    ASSERT_EQ(t.Alive(x), n.alive) << "node " << x;
    EXPECT_EQ(t.label(x), n.label) << "node " << x;
    EXPECT_EQ(t.value(x), n.value) << "node " << x;
    if (!n.alive) continue;
    EXPECT_EQ(t.parent(x), n.parent) << "node " << x;
    EXPECT_EQ(Kids(t, x), n.kids) << "node " << x;
  }
}

/// The attached index agrees with one built afresh over `t`.
void ExpectIndexMatchesFresh(const Tree& t, const TreeIndex& patched) {
  TreeIndex fresh(t);
  EXPECT_EQ(patched.PreOrder(), fresh.PreOrder());
  EXPECT_EQ(patched.PostOrder(), fresh.PostOrder());
  EXPECT_EQ(patched.BfsOrder(), fresh.BfsOrder());
  EXPECT_EQ(patched.Leaves(), fresh.Leaves());
  for (NodeId x = 0; x < static_cast<NodeId>(t.id_bound()); ++x) {
    EXPECT_EQ(patched.SubtreeSize(x), fresh.SubtreeSize(x)) << "node " << x;
    EXPECT_EQ(patched.LeafCount(x), fresh.LeafCount(x)) << "node " << x;
    EXPECT_EQ(patched.ChildIndex(x), fresh.ChildIndex(x)) << "node " << x;
    EXPECT_EQ(patched.ValueHash(x), fresh.ValueHash(x)) << "node " << x;
    EXPECT_EQ(patched.SubtreeHash(x), fresh.SubtreeHash(x)) << "node " << x;
  }
}

/// The checks run after every operation.
void CheckTree(const Tree& t, const TreeIndex& index, const Model& m) {
  const Status valid = t.Validate();
  ASSERT_TRUE(valid.ok()) << valid.ToString();
  ExpectMatchesModel(t, m);
  ExpectIndexMatchesFresh(t, index);

  const std::string encoded = EncodeTree(t);
  const Tree copy = t.Clone();
  EXPECT_TRUE(Tree::Isomorphic(t, copy));
  EXPECT_EQ(EncodeTree(copy), encoded);
  EXPECT_TRUE(copy.Validate().ok());
  // The compaction rule: a clone never carries more garbage than content.
  const Tree::ArenaStats stats = copy.arena_stats();
  EXPECT_LE(stats.value_garbage, stats.value_bytes - stats.value_garbage);
  EXPECT_LE(stats.kid_garbage, stats.kid_slots - stats.kid_garbage);

  StatusOr<Tree> decoded = DecodeTree(encoded, t.label_table());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectMatchesModel(*decoded, m);
}

class ArenaOps {
 public:
  ArenaOps(Tree* t, Model* m, Rng* rng) : t_(t), m_(m), rng_(rng) {
    sentence_ = t_->InternLabel("S");
  }

  /// One seeded operation; returns its name for failure messages.
  const char* Step() {
    switch (rng_->Uniform(10)) {
      case 0:
        GrowList();
        return "grow a child list";
      case 1:
        UpdateFromOwnValue();
        return "UpdateValue(x, value(y))";
      case 2:
        InsertOwnValue();
        return "InsertLeaf(value(y))";
      case 3:
        InsertThenTruncate();
        return "inserts then TruncateDeadTail";
      case 4:
        RolledBackApply();
        return "rolled-back ApplyTo";
      case 5:
        DeleteLeaf();
        return "DeleteLeaf";
      case 6:
        Revive();
        return "ReviveLeaf";
      case 7:
        Move();
        return "MoveSubtree";
      case 8:
        FreshUpdate();
        return "UpdateValue(fresh)";
      default:
        if (rng_->Uniform(4) == 0) {
          Wrap();
          return "WrapRoot";
        }
        RewriteAll();
        return "UpdateValue(every live node)";
    }
  }

  void Wrap() {
    // The new root takes a value viewing one of the tree's own.
    const NodeId y = AnySlot();
    const std::string expected(t_->value(y));
    t_->WrapRoot(t_->InternLabel("W"), t_->value(y));
    m_->Wrap(t_->label(t_->root()), expected);
  }

 private:
  std::vector<NodeId> Live() const { return t_->PreOrder(); }
  NodeId AnyLive() {
    const std::vector<NodeId> live = Live();
    return live[rng_->Uniform(live.size())];
  }
  NodeId AnySlot() {
    return static_cast<NodeId>(rng_->Uniform(t_->id_bound()));
  }
  int AnyPosition(NodeId parent) {
    return static_cast<int>(rng_->UniformInRange(
        1, static_cast<int64_t>(t_->children(parent).size()) + 1));
  }
  std::string FreshValue() {
    return "fresh value " + std::to_string(rng_->Uniform(1000000));
  }

  /// Enough inserts under one node to move its list several times.
  void GrowList() {
    const NodeId p = AnyLive();
    const int n = static_cast<int>(rng_->UniformInRange(9, 40));
    for (int i = 0; i < n; ++i) {
      const int k = AnyPosition(p);
      std::string v = FreshValue();
      StatusOr<NodeId> id = t_->InsertLeaf(sentence_, v, p, k);
      ASSERT_TRUE(id.ok());
      ASSERT_EQ(*id, m_->Insert(sentence_, std::move(v), p, k));
    }
  }

  /// A burst of self-aliasing updates, so that some of them grow the value
  /// buffer past its capacity while the argument still views it.
  void UpdateFromOwnValue() {
    const int n = static_cast<int>(rng_->UniformInRange(1, 16));
    for (int i = 0; i < n; ++i) {
      const NodeId x = AnyLive();
      const NodeId y = AnySlot();  // Dead slots keep values too.
      std::string expected(t_->value(y));
      ASSERT_TRUE(t_->UpdateValue(x, t_->value(y)).ok());
      m_->at(x).value = std::move(expected);
    }
  }

  void InsertOwnValue() {
    const int n = static_cast<int>(rng_->UniformInRange(1, 16));
    for (int i = 0; i < n; ++i) {
      const NodeId p = AnyLive();
      const NodeId y = AnySlot();
      const int k = AnyPosition(p);
      std::string expected(t_->value(y));
      StatusOr<NodeId> id = t_->InsertLeaf(sentence_, t_->value(y), p, k);
      ASSERT_TRUE(id.ok());
      ASSERT_EQ(*id, m_->Insert(sentence_, std::move(expected), p, k));
    }
  }

  /// Half the time the batch hangs under its own first leaf, a fan wider
  /// than all the tree's child lists together: its popped slot leaves
  /// enough child-list garbage for the next Clone to compact.
  void InsertThenTruncate() {
    const size_t bound = t_->id_bound();
    std::vector<NodeId> added;
    const bool fan = rng_->Uniform(2) == 0;
    const size_t n = fan ? t_->size() + 8
                         : static_cast<size_t>(rng_->UniformInRange(1, 6));
    for (size_t i = 0; i < n; ++i) {
      const NodeId p = fan && !added.empty() ? added[0] : AnyLive();
      StatusOr<NodeId> id =
          t_->InsertLeaf(sentence_, FreshValue(), p, AnyPosition(p));
      ASSERT_TRUE(id.ok());
      added.push_back(*id);
    }
    for (auto it = added.rbegin(); it != added.rend(); ++it) {
      ASSERT_TRUE(t_->DeleteLeaf(*it).ok());
    }
    ASSERT_TRUE(t_->TruncateDeadTail(bound).ok());
  }

  /// A script that updates, inserts and moves, then fails on its last op:
  /// ApplyTo must leave the tree as it found it.
  void RolledBackApply() {
    const std::string before = EncodeTree(*t_);
    EditScript script;
    const NodeId x = AnyLive();
    script.Append(EditOp::Update(x, FreshValue() + FreshValue(), 1.0));
    const NodeId p = AnyLive();
    script.Append(EditOp::Insert(static_cast<NodeId>(t_->id_bound()),
                                 sentence_, FreshValue(), p, 1));
    const NodeId y = AnyLive();
    script.Append(EditOp::Update(y, std::string(t_->value(AnySlot())), 1.0));
    const std::vector<NodeId> live = Live();
    for (NodeId c : live) {
      if (c == t_->root()) continue;
      const NodeId target = t_->root();
      if (t_->parent(c) != target) {
        script.Append(EditOp::Move(c, target, 1));
        break;
      }
    }
    script.Append(EditOp::Move(t_->root(), p, 1));  // Never valid.
    EXPECT_FALSE(script.ApplyTo(t_).ok());
    EXPECT_EQ(EncodeTree(*t_), before);
  }

  void DeleteLeaf() {
    std::vector<NodeId> leaves;
    for (NodeId x : t_->Leaves()) {
      if (x != t_->root()) leaves.push_back(x);
    }
    if (leaves.empty()) return;
    const NodeId x = leaves[rng_->Uniform(leaves.size())];
    ASSERT_TRUE(t_->DeleteLeaf(x).ok());
    m_->Delete(x);
  }

  void Revive() {
    std::vector<NodeId> dead;
    for (NodeId x = 0; x < static_cast<NodeId>(t_->id_bound()); ++x) {
      if (!t_->Alive(x)) dead.push_back(x);
    }
    if (dead.empty()) return;
    const NodeId x = dead[rng_->Uniform(dead.size())];
    const NodeId p = AnyLive();
    const int k = AnyPosition(p);
    ASSERT_TRUE(t_->ReviveLeaf(x, p, k).ok());
    m_->Revive(x, p, k);
  }

  void Move() {
    const NodeId x = AnyLive();
    const NodeId p = AnyLive();
    if (x == t_->root() || t_->IsAncestorOrSelf(x, p)) return;
    const int after =
        static_cast<int>(t_->children(p).size()) - (t_->parent(x) == p);
    const int k = static_cast<int>(rng_->UniformInRange(1, after + 1));
    ASSERT_TRUE(t_->MoveSubtree(x, p, k).ok());
    m_->Move(x, p, k);
  }

  /// Replaces every live value, so the old bytes outweigh the live ones
  /// and the next Clone compacts the value buffer.
  void RewriteAll() {
    for (NodeId x : Live()) {
      std::string v = FreshValue();
      ASSERT_TRUE(t_->UpdateValue(x, v).ok());
      m_->at(x).value = std::move(v);
    }
  }

  void FreshUpdate() {
    const NodeId x = AnyLive();
    std::string v = FreshValue();
    ASSERT_TRUE(t_->UpdateValue(x, v).ok());
    m_->at(x).value = std::move(v);
  }

  Tree* t_;
  Model* m_;
  Rng* rng_;
  LabelId sentence_ = kInvalidLabel;
};

void RunSeeds(int sections, int seeds, int ops) {
  static const Vocabulary vocab(3000, 1.0);
  // Clones that compacted a buffer: the runs must reach both rules.
  int value_compactions = 0;
  int kid_compactions = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("sections " + std::to_string(sections) + " seed " +
                 std::to_string(seed));
    auto labels = std::make_shared<LabelTable>();
    Rng rng(static_cast<uint64_t>(seed * 1000 + sections));
    DocGenParams params;
    params.sections = sections;
    params.min_paragraphs_per_section = 4;
    params.max_paragraphs_per_section = 8;
    const Tree doc = GenerateDocument(params, vocab, &rng, labels);
    // Parsed, so child lists start with no spare capacity.
    StatusOr<Tree> parsed = ParseSexpr(doc.ToDebugString(), labels);
    ASSERT_TRUE(parsed.ok());
    Tree t = std::move(*parsed);
    Model m = Model::Of(t);
    TreeIndex index(t);
    ArenaOps arena(&t, &m, &rng);
    for (int i = 0; i < ops; ++i) {
      SCOPED_TRACE(std::string("op ") + std::to_string(i) + ": " +
                   arena.Step());
      CheckTree(t, index, m);
      if (::testing::Test::HasFatalFailure() ||
          ::testing::Test::HasNonfatalFailure()) {
        return;
      }
      const Tree::ArenaStats before = t.arena_stats();
      const Tree::ArenaStats after = t.Clone().arena_stats();
      value_compactions += before.value_garbage > 0 && after.value_garbage == 0;
      kid_compactions += before.kid_garbage > 0 && after.kid_garbage == 0;
    }
  }
  EXPECT_GT(value_compactions, 0);
  EXPECT_GT(kid_compactions, 0);
}

TEST(TreeArenaTest, SeededOpsOnFourSectionDocuments) { RunSeeds(4, 12, 80); }

TEST(TreeArenaTest, SeededOpsOnSixtyFourSectionDocuments) {
  RunSeeds(64, 2, 40);
}

TEST(TreeArenaTest, WrapRootTakesAViewOfItsOwnValue) {
  auto labels = std::make_shared<LabelTable>();
  StatusOr<Tree> parsed =
      ParseSexpr("(D (P (S \"a long enough value to leave SSO\")))", labels);
  ASSERT_TRUE(parsed.ok());
  Tree t = std::move(*parsed);
  Model m = Model::Of(t);
  TreeIndex index(t);
  Rng rng(7);
  ArenaOps arena(&t, &m, &rng);
  for (int i = 0; i < 6; ++i) {
    arena.Wrap();
    CheckTree(t, index, m);
  }
}

TEST(TreeArenaTest, CloneCompactsOnlyPastTheGarbageRule) {
  auto labels = std::make_shared<LabelTable>();
  StatusOr<Tree> parsed =
      ParseSexpr("(D (P (S \"one\") (S \"two\") (S \"three\")))", labels);
  ASSERT_TRUE(parsed.ok());
  Tree t = std::move(*parsed);
  const Tree::ArenaStats fresh = t.arena_stats();
  EXPECT_EQ(fresh.value_garbage, 0u);
  EXPECT_EQ(fresh.kid_garbage, 0u);
  EXPECT_EQ(fresh.kid_slots, 4u);  // A parsed tree has no slack.

  // One update: 3 bytes of garbage against 11 live, so Clone copies as is.
  const NodeId one = t.children(t.children(t.root())[0])[0];
  ASSERT_TRUE(t.UpdateValue(one, "uno").ok());
  EXPECT_EQ(t.Clone().arena_stats().value_garbage, 3u);

  // Garbage past the live bytes: the clone is compacted.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(t.UpdateValue(one, t.value(one)).ok());
  }
  const Tree copy = t.Clone();
  EXPECT_EQ(copy.arena_stats().value_garbage, 0u);
  EXPECT_EQ(copy.arena_stats().value_bytes, 11u);
  EXPECT_EQ(EncodeTree(copy), EncodeTree(t));

  // Relocation alone keeps garbage under the live slots (capacities
  // double), but slots popped by TruncateDeadTail leave their lists behind:
  // past the rule, the clone compacts child lists too, to no slack.
  const NodeId p = t.children(t.root())[0];
  StatusOr<NodeId> x = t.InsertLeaf(t.InternLabel("P"), "", p, 1);
  ASSERT_TRUE(x.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.InsertLeaf(t.InternLabel("S"), "x", *x, 1).ok());
  }
  while (!t.IsLeaf(*x)) ASSERT_TRUE(t.DeleteLeaf(t.children(*x)[0]).ok());
  ASSERT_TRUE(t.DeleteLeaf(*x).ok());
  ASSERT_TRUE(t.TruncateDeadTail(5).ok());
  const Tree::ArenaStats churned = t.arena_stats();
  EXPECT_GT(churned.kid_garbage, churned.kid_slots - churned.kid_garbage);
  const Tree compact = t.Clone();
  EXPECT_EQ(compact.arena_stats().kid_garbage, 0u);
  EXPECT_EQ(compact.arena_stats().kid_slots, 4u);
  EXPECT_EQ(EncodeTree(compact), EncodeTree(t));
}

}  // namespace
}  // namespace treediff
