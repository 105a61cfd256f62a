#ifndef TREEDIFF_TREE_TREE_H_
#define TREEDIFF_TREE_TREE_H_

#include <cassert>
#include <memory>
#include <string>
#include <vector>

#include "tree/label.h"
#include "util/status.h"

namespace treediff {

/// Identifier of a node within one Tree. Ids are dense indices into the
/// tree's node arena; they are never reused, so a node deleted by an edit
/// script keeps its id (marked dead). The paper's requirement that "each tree
/// node has a unique identifier" (Section 3.1) is met per tree; identifiers
/// are *not* meaningful across trees, which is exactly the keyless-data
/// setting the matching algorithms address.
using NodeId = int;

/// Sentinel for "no node" (e.g., the parent of the root).
inline constexpr NodeId kInvalidNode = -1;

class TreeIndex;

/// An ordered, labeled tree with values (the paper's data model, Section 3.1).
/// Interior nodes conventionally have empty values; leaves carry the payload
/// (e.g., sentence text). The tree supports the four edit operations of
/// Section 3.2 as mutations, which Algorithm EditScript uses to transform the
/// old tree in place as it emits operations.
class Tree {
 public:
  /// Creates an empty tree whose labels are interned in `labels`. All trees
  /// being compared must share one table. If `labels` is null a fresh table
  /// is created.
  explicit Tree(std::shared_ptr<LabelTable> labels = nullptr);

  // Copies carry the node data but never the attached indexes (an index
  // observes exactly one tree). Copy-assignment into an indexed tree is a
  // wholesale mutation, so its indexes are invalidated, not dropped.
  // Moving a tree out from under an index permanently detaches the index.
  Tree(const Tree& other);
  Tree& operator=(const Tree& other);
  Tree(Tree&& other) noexcept;
  Tree& operator=(Tree&& other) noexcept;
  ~Tree();

  // ----- Construction -----

  /// Adds the root node. Must be called exactly once, before AddChild.
  NodeId AddRoot(LabelId label, std::string value = "");

  /// Appends a new node as the last child of `parent`.
  NodeId AddChild(NodeId parent, LabelId label, std::string value = "");

  /// Convenience overloads that intern the label name.
  NodeId AddRoot(std::string_view label_name, std::string value = "");
  NodeId AddChild(NodeId parent, std::string_view label_name,
                  std::string value = "");

  /// Adds a new node above the current root: the new node becomes the root
  /// and the old root its only child. This is the "dummy root" device of the
  /// insert phase (Section 4.1) for comparing trees whose roots are not
  /// matched. The tree must be non-empty.
  NodeId WrapRoot(LabelId label, std::string value = "");

  // ----- Accessors -----

  /// The root node, or kInvalidNode for an empty tree.
  NodeId root() const { return root_; }

  /// Number of live nodes.
  size_t size() const { return live_count_; }

  /// Total number of node ids ever allocated (dense upper bound for id-indexed
  /// arrays; includes dead nodes).
  size_t id_bound() const { return nodes_.size(); }

  bool Alive(NodeId x) const {
    return x >= 0 && static_cast<size_t>(x) < nodes_.size() &&
           nodes_[static_cast<size_t>(x)].alive;
  }

  LabelId label(NodeId x) const { return node(x).label; }
  const std::string& value(NodeId x) const { return node(x).value; }
  NodeId parent(NodeId x) const { return node(x).parent; }
  const std::vector<NodeId>& children(NodeId x) const {
    return node(x).children;
  }
  bool IsLeaf(NodeId x) const { return node(x).children.empty(); }

  /// The label name of node `x` (via the shared LabelTable).
  const std::string& label_name(NodeId x) const {
    return labels_->Name(label(x));
  }

  /// 0-based position of `x` within its parent's child list. Returns -1 for
  /// the root. Served in O(1) from an attached TreeIndex when one exists,
  /// by an O(fanout) sibling scan otherwise.
  int ChildIndex(NodeId x) const;

  /// True if `anc` equals `desc` or is a proper ancestor of `desc`.
  bool IsAncestorOrSelf(NodeId anc, NodeId desc) const;

  const LabelTable& labels() const { return *labels_; }
  const std::shared_ptr<LabelTable>& label_table() const { return labels_; }

  /// Interns `name` in the shared label table.
  LabelId InternLabel(std::string_view name) { return labels_->Intern(name); }

  // ----- Edit operations (paper Section 3.2) -----
  // Positions `k` are 1-based, matching the paper: INS((x,l,v), y, k) makes x
  // the kth child of y, with 1 <= k <= (number of children of y) + 1.

  /// INS((new, label, value), parent, k). Returns the id of the new leaf.
  StatusOr<NodeId> InsertLeaf(LabelId label, std::string value, NodeId parent,
                              int k);

  /// DEL(x). `x` must be a live leaf (interior nodes must be emptied first,
  /// per the paper's restricted delete). The dead slot retains its label and
  /// value, so the deletion can be reversed with ReviveLeaf.
  Status DeleteLeaf(NodeId x);

  /// Reverses a DeleteLeaf: re-attaches the dead node `x` (with its retained
  /// label and value) as the kth child of `parent`. Used when applying
  /// inverse edit scripts, so node identities survive an undo round-trip.
  Status ReviveLeaf(NodeId x, NodeId parent, int k);

  /// UPD(x, value).
  Status UpdateValue(NodeId x, std::string value);

  /// Pops node slots with id >= `bound` off the arena, restoring the
  /// id_bound() a tree had before those ids were allocated. Every popped
  /// slot must be dead; rejects otherwise. Transactional apply uses this to
  /// roll back the ids minted by inserts, so a rolled-back tree is
  /// indistinguishable from its pre-apply state.
  Status TruncateDeadTail(size_t bound);

  /// MOV(x, new_parent, k): detaches the subtree rooted at `x` and reattaches
  /// it as the kth child of `new_parent` (position counted after detachment,
  /// as in the paper's running examples). Moving a node under its own
  /// descendant or moving the root is rejected.
  Status MoveSubtree(NodeId x, NodeId new_parent, int k);

  // ----- Traversals (live nodes only) -----

  /// Breadth-first order from the root (the order Algorithm EditScript scans
  /// the new tree).
  std::vector<NodeId> BfsOrder() const;

  /// Post-order (children before parents; the delete-phase order).
  std::vector<NodeId> PostOrder() const;

  /// Pre-order (parents before children).
  std::vector<NodeId> PreOrder() const;

  /// All live leaves in left-to-right document order.
  std::vector<NodeId> Leaves() const;

  // ----- Derived structure -----

  /// leaf_counts[x] = |x| = number of leaf descendants of x (a leaf counts
  /// itself). Dead nodes get 0. Used by Matching Criterion 2.
  std::vector<int> LeafCounts() const;

  // ----- Utilities -----

  /// Deep copy preserving node ids (including dead slots) and sharing the
  /// label table.
  Tree Clone() const;

  /// Structural equality ignoring node identifiers: equal labels, values and
  /// child orders (the paper's isomorphism, Section 3.1).
  static bool Isomorphic(const Tree& a, const Tree& b);

  /// Checks internal invariants (parent/child symmetry, single root,
  /// acyclicity, live_count consistency). Used by tests and after applying
  /// edit scripts.
  Status Validate() const;

  // ----- Freezing (shared read-only use) -----
  // A tree published to several threads at once (the service's TreeCache)
  // must never be mutated: a mutation would corrupt every concurrent reader
  // and invalidate the shared TreeIndex mid-read. Freeze() makes that
  // contract checkable for one bool compare per edit: after Freeze(), the
  // Status-returning edit operations fail with kFailedPrecondition, and the
  // construction operations (AddRoot/AddChild/WrapRoot, assignment into the
  // tree) abort — a worker mutating a cached tree fails fast instead of
  // silently corrupting other requests. Freezing is one-way and sticky
  // across moves; copies and Clone()s start unfrozen (edit-script
  // generation works on a private unfrozen copy).

  /// Marks the tree permanently read-only. Logically const, like index
  /// attachment: observing threads see the same node data before and after.
  void Freeze() const { frozen_ = true; }

  /// True once Freeze() was called.
  bool Frozen() const { return frozen_; }

  /// Renders the tree as an s-expression, e.g.
  /// (D (P (S "a") (S "b")) (P (S "c"))). Values are quoted, with '"' and
  /// '\' escaped by a backslash; empty values are omitted. ParseSexpr reads
  /// the result back into an isomorphic tree.
  std::string ToDebugString() const;

  /// ToDebugString().size(), counted without building the string: the
  /// snapshot-bytes figure VersionStore records per version.
  size_t DebugStringSize() const;

  // ----- Index attachment -----
  // A TreeIndex registers itself as an observer so that the edit operations
  // above keep it consistent (see tree_index.h). Attachment is logically
  // const: it does not change the tree, only who is watching it.

  void AttachIndex(TreeIndex* index) const;
  void DetachIndex(TreeIndex* index) const;

  /// The first attached index, or nullptr. Used by ChildIndex and by
  /// pipeline stages that opportunistically reuse an existing index.
  TreeIndex* attached_index() const {
    return observers_.empty() ? nullptr : observers_.front();
  }

 private:
  // The binary tree codec (store/codec.cc) reconstructs a tree's arena
  // exactly — node ids, dead slots, and child order included — which the
  // construction API above cannot express; it goes through this access
  // shim instead of public setters.
  friend class TreeCodecAccess;

  struct NodeRec {
    LabelId label = kInvalidLabel;
    std::string value;
    NodeId parent = kInvalidNode;
    std::vector<NodeId> children;
    bool alive = true;
  };

  const NodeRec& node(NodeId x) const {
    assert(x >= 0 && static_cast<size_t>(x) < nodes_.size());
    return nodes_[static_cast<size_t>(x)];
  }
  NodeRec& node(NodeId x) {
    assert(x >= 0 && static_cast<size_t>(x) < nodes_.size());
    return nodes_[static_cast<size_t>(x)];
  }
  void DebugStringRec(NodeId x, std::string* out) const;

  /// Aborts with a diagnostic if the tree is frozen. Guards the mutation
  /// entry points that cannot report a Status.
  void AbortIfFrozen(const char* op) const;

  // Observer notifications (no-ops when no index is attached).
  void NotifyInsert(NodeId x) const;
  void NotifyDelete(NodeId x, NodeId old_parent) const;
  void NotifyRevive(NodeId x) const;
  void NotifyUpdate(NodeId x) const;
  void NotifyMove(NodeId x, NodeId old_parent) const;
  void NotifyTruncate(size_t bound) const;
  void NotifyBulk() const;
  void NotifyGoneAndClear() const;

  std::shared_ptr<LabelTable> labels_;
  std::vector<NodeRec> nodes_;
  NodeId root_ = kInvalidNode;
  size_t live_count_ = 0;
  mutable std::vector<TreeIndex*> observers_;
  mutable bool frozen_ = false;
};

}  // namespace treediff

#endif  // TREEDIFF_TREE_TREE_H_
