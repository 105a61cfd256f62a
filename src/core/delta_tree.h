#ifndef TREEDIFF_CORE_DELTA_TREE_H_
#define TREEDIFF_CORE_DELTA_TREE_H_

#include <string>
#include <vector>

#include "core/edit_script.h"
#include "core/matching.h"
#include "tree/tree.h"
#include "util/status.h"

namespace treediff {

/// Node annotations of a delta tree (Section 6). Exactly one per node.
enum class DeltaAnnotation {
  kIdentical,   // IDN: present unchanged in both versions.
  kUpdated,     // UPD(v): value updated; old value kept alongside.
  kInserted,    // INS(l, v): node newly inserted.
  kDeleted,     // DEL: subtree deleted; appears at its old position.
  kMoved,       // MOV(x): tombstone at the node's old position.
  kMoveMarker,  // MRK: the node at its new position (destination of a move).
};

/// Returns "IDN"/"UPD"/"INS"/"DEL"/"MOV"/"MRK".
const char* DeltaAnnotationName(DeltaAnnotation ann);

/// One node of a delta tree. Children are indices into DeltaTree::nodes().
struct DeltaNode {
  DeltaAnnotation annotation = DeltaAnnotation::kIdentical;
  LabelId label = kInvalidLabel;

  /// Current (new-version) value; for kDeleted and kMoved tombstones, the
  /// old-version value.
  std::string value;

  /// Previous value, set when the node's value was updated. A moved node may
  /// also be updated (the paper marks both simultaneously, Appendix A); in
  /// that case the annotation is kMoveMarker and old_value is non-empty.
  std::string old_value;
  bool value_updated = false;

  /// Links a kMoved tombstone with its kMoveMarker destination; -1 otherwise.
  int move_id = -1;

  /// Provenance: originating nodes in the old/new trees (kInvalidNode where
  /// not applicable, e.g. t2_node of a deletion tombstone).
  NodeId t1_node = kInvalidNode;
  NodeId t2_node = kInvalidNode;

  std::vector<int> children;
};

/// The delta tree of Section 6: the new version of the data annotated with
/// the changes, plus tombstones for deleted subtrees and for the old
/// positions of moved subtrees. Superimposing old and new this way is what
/// lets LaDiff render a single marked-up document (Section 7, Appendix A).
class DeltaTree {
 public:
  DeltaTree() = default;

  const std::vector<DeltaNode>& nodes() const { return nodes_; }
  const DeltaNode& node(int i) const { return nodes_[static_cast<size_t>(i)]; }
  int root() const { return root_; }
  bool empty() const { return nodes_.empty(); }

  /// Number of distinct moves represented (pairs of kMoved/kMoveMarker).
  size_t move_count() const { return static_cast<size_t>(next_move_id_); }

  /// Renders an s-expression with annotations, e.g.
  /// (document (paragraph:INS (sentence:INS "new"))). For debugging/tests.
  std::string ToDebugString(const LabelTable& labels) const;

 private:
  friend class DeltaTreeBuilder;

  std::vector<DeltaNode> nodes_;
  int root_ = -1;
  int next_move_id_ = 0;
};

/// Reconstructs the OLD version from a delta tree alone: IDN and MRK nodes
/// contribute their (old) values, UPD nodes their old_value, DEL and MOV
/// tombstones stand at their old positions, inserted nodes are dropped, and
/// the subtree of a moved node is recovered from its MRK destination and
/// grafted at the tombstone. The result is isomorphic to the original t1 —
/// the delta tree is a lossless superimposition of both versions (this is
/// the Section 6 correctness property, checked by property tests).
/// `labels` must be the table the original trees used.
StatusOr<Tree> ReconstructOldVersion(const DeltaTree& delta,
                                     std::shared_ptr<LabelTable> labels);

/// Reconstructs the NEW version from a delta tree alone: tombstones (DEL,
/// MOV) are dropped, everything else contributes its new value in order.
/// The result is isomorphic to t2.
StatusOr<Tree> ReconstructNewVersion(const DeltaTree& delta,
                                     std::shared_ptr<LabelTable> labels);

/// Builds the delta tree for `t1` with respect to `t2` from the outputs of
/// the matching and edit-script stages:
///
///  * `matching` is the "good matching" over ORIGINAL t1/t2 node ids (the
///    input to Algorithm EditScript, not the total matching — inserted nodes
///    must not appear matched);
///  * `script` is the conforming edit script, used to identify which matched
///    nodes were moved (both inter-parent and align-phase moves).
///
/// The construction mirrors Section 6: the skeleton is the new tree with
/// IDN/UPD/INS/MRK annotations; DEL tombstones (carrying their unmatched
/// subtrees) and MOV tombstones are spliced in at their old positions,
/// anchored after the delta node of their nearest left sibling that remains
/// in place.
StatusOr<DeltaTree> BuildDeltaTree(const Tree& t1, const Tree& t2,
                                   const Matching& matching,
                                   const EditScript& script);

}  // namespace treediff

#endif  // TREEDIFF_CORE_DELTA_TREE_H_
