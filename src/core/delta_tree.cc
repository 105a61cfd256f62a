#include "core/delta_tree.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace treediff {

const char* DeltaAnnotationName(DeltaAnnotation ann) {
  switch (ann) {
    case DeltaAnnotation::kIdentical:
      return "IDN";
    case DeltaAnnotation::kUpdated:
      return "UPD";
    case DeltaAnnotation::kInserted:
      return "INS";
    case DeltaAnnotation::kDeleted:
      return "DEL";
    case DeltaAnnotation::kMoved:
      return "MOV";
    case DeltaAnnotation::kMoveMarker:
      return "MRK";
  }
  return "???";
}

namespace {

void DebugStringRec(const DeltaTree& dt, const LabelTable& labels, int index,
                    std::string* out) {
  const DeltaNode& n = dt.node(index);
  out->push_back('(');
  out->append(labels.Name(n.label));
  if (n.annotation != DeltaAnnotation::kIdentical) {
    out->push_back(':');
    out->append(DeltaAnnotationName(n.annotation));
    if (n.move_id >= 0) out->append("#" + std::to_string(n.move_id));
  }
  if (n.value_updated) out->append(":upd");
  if (!n.value.empty()) {
    out->append(" \"");
    out->append(n.value);
    out->push_back('"');
  }
  for (int c : n.children) {
    out->push_back(' ');
    DebugStringRec(dt, labels, c, out);
  }
  out->push_back(')');
}

}  // namespace

std::string DeltaTree::ToDebugString(const LabelTable& labels) const {
  if (root_ < 0) return "()";
  std::string out;
  DebugStringRec(*this, labels, root_, &out);
  return out;
}

/// Assembles a DeltaTree per the construction described in delta_tree.h.
class DeltaTreeBuilder {
 public:
  DeltaTreeBuilder(const Tree& t1, const Tree& t2, const Matching& matching,
                   const EditScript& script)
      : t1_(t1), t2_(t2), m_(matching) {
    // Matched t1 nodes moved by the script (inter-parent and align-phase
    // moves alike). Inserted nodes (ids beyond t1's bound) never move.
    for (const EditOp& op : script.ops()) {
      if (op.kind == EditOpKind::kMove &&
          static_cast<size_t>(op.node) < t1.id_bound()) {
        moved_.insert(op.node);
      }
    }
  }

  StatusOr<DeltaTree> Build() {
    if (m_.PartnerOfT2(t2_.root()) != t1_.root()) {
      if (!m_.HasT1(t1_.root()) && !m_.HasT2(t2_.root()) &&
          t1_.label(t1_.root()) == t2_.label(t2_.root())) {
        m_.Add(t1_.root(), t2_.root());
      } else {
        return Status::FailedPrecondition(
            "delta tree requires the roots to be matched (wrap trees with "
            "Tree::WrapRoot first)");
      }
    }

    // Skeleton: the new tree, annotated.
    dt_.root_ = BuildFromT2(t2_.root());

    // Splice DEL and MOV tombstones at their old positions, per matched
    // internal pair.
    for (const auto& [x, y] : m_.Pairs()) {
      if (!t1_.children(x).empty()) SpliceTombstones(x, y);
    }
    return std::move(dt_);
  }

 private:
  int NewNode(DeltaNode node) {
    dt_.nodes_.push_back(std::move(node));
    return static_cast<int>(dt_.nodes_.size() - 1);
  }

  /// Creates the delta node of T2 node `y` and, recursively, its children.
  int BuildFromT2(NodeId y) {
    DeltaNode n;
    n.label = t2_.label(y);
    n.value = t2_.value(y);
    n.t2_node = y;
    const NodeId x = m_.PartnerOfT2(y);
    if (x == kInvalidNode) {
      n.annotation = DeltaAnnotation::kInserted;
    } else {
      n.t1_node = x;
      const bool updated = t1_.value(x) != t2_.value(y);
      if (updated) {
        n.old_value = t1_.value(x);
        n.value_updated = true;
      }
      if (moved_.count(x) > 0) {
        n.annotation = DeltaAnnotation::kMoveMarker;
        n.move_id = dt_.next_move_id_++;
        move_ids_[x] = n.move_id;
      } else if (updated) {
        n.annotation = DeltaAnnotation::kUpdated;
      } else {
        n.annotation = DeltaAnnotation::kIdentical;
      }
    }
    const int index = NewNode(std::move(n));
    for (NodeId c : t2_.children(y)) {
      const int child = BuildFromT2(c);
      dt_.nodes_[static_cast<size_t>(index)].children.push_back(child);
    }
    t2_delta_[y] = index;
    return index;
  }

  /// A DEL tombstone for the maximal unmatched subtree rooted at T1 node
  /// `x`. Matched descendants were moved out by the script; they appear as
  /// MOV tombstones at their old positions inside the deleted subtree.
  int BuildDeletedSubtree(NodeId x) {
    DeltaNode n;
    n.annotation = DeltaAnnotation::kDeleted;
    n.label = t1_.label(x);
    n.value = t1_.value(x);
    n.t1_node = x;
    const int index = NewNode(std::move(n));
    for (NodeId c : t1_.children(x)) {
      const int child = m_.HasT1(c) ? MakeMoveTombstone(c)
                                    : BuildDeletedSubtree(c);
      dt_.nodes_[static_cast<size_t>(index)].children.push_back(child);
    }
    return index;
  }

  /// A MOV tombstone marking the old position of moved T1 node `x`.
  int MakeMoveTombstone(NodeId x) {
    DeltaNode n;
    n.annotation = DeltaAnnotation::kMoved;
    n.label = t1_.label(x);
    n.value = t1_.value(x);
    n.t1_node = x;
    auto it = move_ids_.find(x);
    n.move_id = it == move_ids_.end() ? -1 : it->second;
    return NewNode(std::move(n));
  }

  /// Splices tombstones for the matched pair (x in T1, y in T2) into the
  /// delta children of y, anchoring each tombstone after the nearest left
  /// T1 sibling that stayed in place.
  void SpliceTombstones(NodeId x, NodeId y) {
    // NewNode can reallocate the node arena, so the child list must be
    // re-fetched after every tombstone construction.
    const size_t parent_index = static_cast<size_t>(t2_delta_[y]);
    size_t insert_at = 0;  // Tombstones before the first anchor go up front.
    for (NodeId c : t1_.children(x)) {
      const NodeId partner = m_.PartnerOfT1(c);
      if (partner != kInvalidNode && moved_.count(c) == 0 &&
          t2_.parent(partner) == y) {
        // Stayed in place: becomes the anchor for following tombstones.
        const auto& kids = dt_.nodes_[parent_index].children;
        auto it = std::find(kids.begin(), kids.end(), t2_delta_[partner]);
        if (it != kids.end()) {
          insert_at = static_cast<size_t>(it - kids.begin()) + 1;
        }
      } else {
        const int tomb = partner == kInvalidNode ? BuildDeletedSubtree(c)
                                                 : MakeMoveTombstone(c);
        auto& kids = dt_.nodes_[parent_index].children;
        kids.insert(kids.begin() + static_cast<ptrdiff_t>(insert_at), tomb);
        ++insert_at;
      }
    }
  }

  const Tree& t1_;
  const Tree& t2_;
  Matching m_;
  std::unordered_set<NodeId> moved_;
  std::unordered_map<NodeId, int> move_ids_;
  std::unordered_map<NodeId, int> t2_delta_;
  DeltaTree dt_;
};

namespace {

/// Rebuilds the old version under `parent`. `index` is a delta node that
/// existed in the old tree at this position (possibly as a tombstone);
/// `markers` maps move_id -> delta index of the MRK destination, whose
/// children hold the moved subtree's contents.
void ReconstructOldRec(const DeltaTree& dt,
                       const std::unordered_map<int, int>& markers,
                       int index, Tree* out, NodeId parent) {
  const DeltaNode& n = dt.node(index);
  if (n.annotation == DeltaAnnotation::kInserted) return;  // New-only.
  if (n.annotation == DeltaAnnotation::kMoveMarker) {
    return;  // Moved-in: its old position is the MOV tombstone elsewhere.
  }

  // The node to materialize; a MOV tombstone redirects to its marker for
  // values and children (the subtree traveled with the move).
  int content_index = index;
  if (n.annotation == DeltaAnnotation::kMoved && n.move_id >= 0) {
    auto it = markers.find(n.move_id);
    if (it != markers.end()) content_index = it->second;
  }
  const DeltaNode& content = dt.node(content_index);
  const std::string& old_value =
      content.value_updated ? content.old_value : content.value;

  NodeId id = parent == kInvalidNode ? out->AddRoot(content.label, old_value)
                                     : out->AddChild(parent, content.label,
                                                     old_value);
  for (int c : content.children) {
    ReconstructOldRec(dt, markers, c, out, id);
  }
}

void ReconstructNewRec(const DeltaTree& dt, int index, Tree* out,
                       NodeId parent) {
  const DeltaNode& n = dt.node(index);
  if (n.annotation == DeltaAnnotation::kDeleted ||
      n.annotation == DeltaAnnotation::kMoved) {
    return;  // Tombstones exist only in the old version.
  }
  NodeId id = parent == kInvalidNode ? out->AddRoot(n.label, n.value)
                                     : out->AddChild(parent, n.label,
                                                     n.value);
  for (int c : n.children) ReconstructNewRec(dt, c, out, id);
}

}  // namespace

StatusOr<Tree> ReconstructOldVersion(const DeltaTree& delta,
                                     std::shared_ptr<LabelTable> labels) {
  if (delta.empty()) {
    return Status::InvalidArgument("cannot reconstruct from an empty delta");
  }
  std::unordered_map<int, int> markers;
  for (size_t i = 0; i < delta.nodes().size(); ++i) {
    const DeltaNode& n = delta.nodes()[i];
    if (n.annotation == DeltaAnnotation::kMoveMarker && n.move_id >= 0) {
      markers[n.move_id] = static_cast<int>(i);
    }
  }
  Tree out(std::move(labels));
  ReconstructOldRec(delta, markers, delta.root(), &out, kInvalidNode);
  if (out.root() == kInvalidNode) {
    return Status::FailedPrecondition(
        "delta root does not exist in the old version");
  }
  return out;
}

StatusOr<Tree> ReconstructNewVersion(const DeltaTree& delta,
                                     std::shared_ptr<LabelTable> labels) {
  if (delta.empty()) {
    return Status::InvalidArgument("cannot reconstruct from an empty delta");
  }
  Tree out(std::move(labels));
  ReconstructNewRec(delta, delta.root(), &out, kInvalidNode);
  if (out.root() == kInvalidNode) {
    return Status::FailedPrecondition(
        "delta root does not exist in the new version");
  }
  return out;
}

StatusOr<DeltaTree> BuildDeltaTree(const Tree& t1, const Tree& t2,
                                   const Matching& matching,
                                   const EditScript& script) {
  if (t1.root() == kInvalidNode || t2.root() == kInvalidNode) {
    return Status::FailedPrecondition("both trees must be non-empty");
  }
  DeltaTreeBuilder builder(t1, t2, matching, script);
  return builder.Build();
}

}  // namespace treediff
