#ifndef TREEDIFF_TREE_TREE_INDEX_H_
#define TREEDIFF_TREE_TREE_INDEX_H_

#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

#include "tree/tree.h"

namespace treediff {

/// Hash of a value string: XXH64 (seed 0), which reads eight bytes at a
/// time over four independent lanes. This is the one byte hash in the code
/// base: TreeIndex::ValueHash precomputes it per node, the comparators key
/// their caches on it, the structural matcher folds it into subtree
/// fingerprints, and the service's TreeCache fingerprints request text with
/// it. Deterministic across processes (unlike std::hash), so hashes are
/// comparable between indexed and unindexed trees. No hash is persisted.
uint64_t HashValueBytes(std::string_view bytes);

/// The value hash of node `x`: served from the tree's attached TreeIndex
/// when one exists, computed on the fly otherwise. Either way the result is
/// HashValueBytes(t.value(x)).
uint64_t NodeValueHash(const Tree& t, NodeId x);

/// Precomputed per-tree derived structure, built in one traversal and shared
/// by every stage of the diff pipeline (matching, criteria evaluation,
/// Zhang-Shasha, edit-script generation) through a DiffContext. The seed
/// pipeline recomputed orders, leaf counts, Euler intervals, and raw string
/// comparisons independently per stage; the index computes each once.
///
/// Constructing an index *attaches* it to the tree as an observer: every
/// Tree mutation (the Section 3.2 edit operations) patches or invalidates
/// the index, so Algorithm EditScript's in-place transform of its working
/// tree keeps the index consistent. The index maintains three tiers:
///
///  * scalar tier — subtree size, leaf count, child index, value hash.
///    Patched eagerly on each edit in O(depth * fanout), so the hot
///    O(1) lookups (Tree::ChildIndex, move weights) stay valid mid-script.
///  * order tier — pre/post/BFS orders, Euler intervals, the leaf sequence
///    with per-node leaf ranges, and per-label node chains. Invalidated by
///    structural edits and rebuilt lazily on next access.
///  * fingerprint tier — 64-bit subtree fingerprints, split into a
///    structural hash (labels + shape), a literal hash (values), and their
///    combination (the share-map key). Invalidated by any edit (including
///    value updates) and rebuilt lazily.
///
/// A patched index is indistinguishable from a freshly built one (asserted
/// by index_consistency_test). The index dies gracefully when its tree is
/// destroyed or moved-from, but accessors must not be called afterwards.
///
/// Like Budget, a TreeIndex is shared mutable state accessed through const
/// references (lazy tiers rebuild under the hood); it is NOT thread-safe.
class TreeIndex {
 public:
  /// Builds the index over the live nodes of `tree` and attaches to it.
  explicit TreeIndex(const Tree& tree);

  /// Attaches to `tree`, which must be a Clone() of `source`'s tree (same
  /// node ids, dead slots and shape), and copies `source`'s scalar tier
  /// instead of recomputing it; the order and fingerprint tiers start
  /// dirty and rebuild lazily on first access. Edit-script generation
  /// indexes its working copy of T1 this way, reusing T1's warmed index.
  /// A dirty source tier is rebuilt first, so a source shared across
  /// threads must be warmed (WarmAll) beforehand.
  TreeIndex(const Tree& tree, const TreeIndex& source);
  ~TreeIndex();

  TreeIndex(const TreeIndex&) = delete;
  TreeIndex& operator=(const TreeIndex&) = delete;

  /// The indexed tree. Must not be called after the tree was destroyed.
  const Tree& tree() const { return *tree_; }

  /// False once the indexed tree has been destroyed or moved-from.
  bool attached() const { return tree_ != nullptr; }

  // ----- Scalar tier (O(1), eagerly patched) -----

  /// Number of live nodes in the subtree rooted at `x` (including `x`);
  /// 0 for dead nodes.
  int SubtreeSize(NodeId x) const;

  /// Number of leaf descendants of `x`, a leaf counting itself (the paper's
  /// |x|, Matching Criterion 2); 0 for dead nodes.
  int LeafCount(NodeId x) const;

  /// 0-based position of `x` in its parent's child list; -1 for the root
  /// and for dead nodes. Serves Tree::ChildIndex in O(1).
  int ChildIndex(NodeId x) const;

  /// HashValueBytes of v(x). Defined for dead slots too (their value is
  /// retained for revival).
  uint64_t ValueHash(NodeId x) const;

  // ----- Order tier (lazily rebuilt after structural edits) -----

  /// Pre-order / post-order / breadth-first over live nodes; identical to
  /// the Tree traversals of the same name.
  const std::vector<NodeId>& PreOrder() const;
  const std::vector<NodeId>& PostOrder() const;
  const std::vector<NodeId>& BfsOrder() const;

  /// All live leaves in document order.
  const std::vector<NodeId>& Leaves() const;

  /// True if `anc` equals `desc` or is an ancestor of `desc` (both live).
  /// O(1) via Euler-tour intervals.
  bool Contains(NodeId anc, NodeId desc) const;

  /// The leaves under `x` occupy Leaves()[LeafRangeBegin(x) ..
  /// LeafRangeEnd(x)), contiguously in document order. Empty range for dead
  /// nodes. Lets |common(x, y)| iterate leaf descendants without walking
  /// interior nodes.
  int LeafRangeBegin(NodeId x) const;
  int LeafRangeEnd(NodeId x) const;

  /// Document-order chains of live nodes per (label, structural kind) — the
  /// paper's chain_T(l), precomputed for FastMatch. Missing labels yield an
  /// empty chain. The map is ordered by LabelId for deterministic iteration.
  const std::vector<NodeId>& LeafChain(LabelId label) const;
  const std::vector<NodeId>& InternalChain(LabelId label) const;
  const std::map<LabelId, std::vector<NodeId>>& LeafChains() const;
  const std::map<LabelId, std::vector<NodeId>>& InternalChains() const;

  // ----- Fingerprint tier (lazily rebuilt after any edit) -----

  /// 64-bit *structural* fingerprint of the subtree rooted at `x`: labels
  /// and shape only (label + child structural hashes in order), blind to
  /// values. Two subtrees agree iff they have the same labeled shape —
  /// the diff_heap-style signal that a value edit left the skeleton
  /// intact. 0 for dead nodes.
  uint64_t StructuralHash(NodeId x) const;

  /// 64-bit *literal* fingerprint of the subtree rooted at `x`: value
  /// hashes only (value hash + child literal hashes in order), blind to
  /// labels. Complements StructuralHash; the pair distinguishes "same
  /// shape, new text" from "same text, new shape". 0 for dead nodes.
  uint64_t LiteralHash(NodeId x) const;

  /// 64-bit combined fingerprint of the subtree rooted at `x`: the
  /// structural and literal hashes mixed, so it covers labels, values, and
  /// shape at once. Equal subtrees (labels, values, shapes) always agree;
  /// unequal ones collide with probability ~2^-64 — which is why every
  /// consumer that promises exactness (the share-map pre-pass, the
  /// structural matcher) re-verifies candidates by actual subtree
  /// comparison. 0 for dead nodes.
  uint64_t SubtreeHash(NodeId x) const;

  // ----- Shared read-only use -----

  /// Forces all three tiers built *now*. An index over a frozen tree (see
  /// Tree::Freeze) that has been warmed is safe to read from any number of
  /// threads concurrently: no mutation ever dirties a tier again, so the
  /// lazy Ensure* paths reduce to plain loads. The service's TreeCache
  /// warms every entry before publishing it.
  void WarmAll() const {
    EnsureScalars();
    EnsureOrders();
    EnsureFingerprints();
  }

  // ----- Mutation hooks (called by the attached Tree; not for users) -----

  void OnInsertLeaf(NodeId x);
  void OnDeleteLeaf(NodeId x, NodeId old_parent);
  void OnReviveLeaf(NodeId x);
  void OnUpdateValue(NodeId x);
  void OnMoveSubtree(NodeId x, NodeId old_parent);
  void OnTruncateDeadTail(size_t bound);
  /// Wholesale change (AddRoot/AddChild/WrapRoot, copy-assignment): marks
  /// every tier for rebuild.
  void OnBulkStructureChange();
  /// The tree is going away (destruction or move-from); the index becomes
  /// permanently detached.
  void OnTreeGone();

 private:
  void EnsureScalars() const;
  void EnsureOrders() const;
  void EnsureFingerprints() const;
  void RebuildScalars() const;
  void RebuildOrders() const;
  void RebuildFingerprints() const;

  /// Grows the scalar arrays to the tree's current id_bound.
  void GrowScalars() const;

  /// Recomputes subtree_size_ / leaf_count_ from child values for `from`
  /// and every ancestor of it.
  void RepairPathUp(NodeId from) const;

  /// Recomputes child_index_ for every child of `parent`.
  void RepairChildIndexes(NodeId parent) const;

  const Tree* tree_;

  // Scalar tier.
  mutable std::vector<int> subtree_size_;
  mutable std::vector<int> leaf_count_;
  mutable std::vector<int> child_index_;
  mutable std::vector<uint64_t> value_hash_;

  // Order tier.
  mutable std::vector<NodeId> pre_order_;
  mutable std::vector<NodeId> post_order_;
  mutable std::vector<NodeId> bfs_order_;
  mutable std::vector<NodeId> leaves_;
  mutable std::vector<int> tin_;
  mutable std::vector<int> tout_;
  mutable std::vector<int> leaf_begin_;
  mutable std::vector<int> leaf_end_;
  mutable std::map<LabelId, std::vector<NodeId>> leaf_chains_;
  mutable std::map<LabelId, std::vector<NodeId>> internal_chains_;

  // Fingerprint tier. subtree_hash_ is HashCombine(structural, literal),
  // precomputed because it is the hot key of the share-map pre-pass.
  mutable std::vector<uint64_t> structural_hash_;
  mutable std::vector<uint64_t> literal_hash_;
  mutable std::vector<uint64_t> subtree_hash_;

  mutable bool scalars_dirty_ = true;
  mutable bool orders_dirty_ = true;
  mutable bool fingerprints_dirty_ = true;
};

}  // namespace treediff

#endif  // TREEDIFF_TREE_TREE_INDEX_H_
