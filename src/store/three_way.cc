#include "store/three_way.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace treediff {

const char* ConflictKindName(ConflictKind kind) {
  switch (kind) {
    case ConflictKind::kUpdateUpdate:
      return "update/update";
    case ConflictKind::kUpdateDelete:
      return "update/delete";
    case ConflictKind::kMoveMove:
      return "move/move";
    case ConflictKind::kMoveDelete:
      return "move/delete";
    case ConflictKind::kDeleteEdit:
      return "delete/edit";
  }
  return "?";
}

namespace {

/// The operations one side performs on ORIGINAL base nodes (ids below the
/// base id bound; a side's own inserts live beyond it).
struct SideOps {
  std::unordered_map<NodeId, std::string> updates;  // node -> new value.
  std::unordered_set<NodeId> deletes;
  std::unordered_map<NodeId, NodeId> move_parents;  // node -> dest parent.

  explicit SideOps(const EditScript& script, size_t base_bound) {
    for (const EditOp& op : script.ops()) {
      if (op.node < 0 || static_cast<size_t>(op.node) >= base_bound) continue;
      switch (op.kind) {
        case EditOpKind::kUpdate:
          updates[op.node] = op.value;
          break;
        case EditOpKind::kDelete:
          deletes.insert(op.node);
          break;
        case EditOpKind::kMove:
          move_parents[op.node] = op.parent;  // Last move wins.
          break;
        case EditOpKind::kInsert:
          break;
      }
    }
  }
};

}  // namespace

StatusOr<ThreeWayResult> ThreeWayMerge(const Tree& base, const Tree& ours,
                                       const Tree& theirs,
                                       const DiffOptions& options) {
  if (base.label_table().get() != ours.label_table().get() ||
      base.label_table().get() != theirs.label_table().get()) {
    return Status::InvalidArgument(
        "all three trees must share one LabelTable");
  }
  StatusOr<DiffResult> to_ours = DiffTrees(base, ours, options);
  if (!to_ours.ok()) return to_ours.status();
  StatusOr<DiffResult> to_theirs = DiffTrees(base, theirs, options);
  if (!to_theirs.ok()) return to_theirs.status();

  const size_t base_bound = base.id_bound();
  SideOps mine(to_ours->script, base_bound);
  SideOps other(to_theirs->script, base_bound);

  ThreeWayResult result{base.Clone(), {}, 0, 0, 0};

  // ----- Conflict detection on base nodes (ours wins; theirs skipped). ---
  std::unordered_set<NodeId> skip_theirs;  // Base nodes whose theirs-op skips.
  auto conflict = [&](ConflictKind kind, NodeId node, std::string what) {
    result.conflicts.push_back({kind, node, std::move(what)});
    skip_theirs.insert(node);
  };

  for (const auto& [node, value] : other.updates) {
    auto ours_it = mine.updates.find(node);
    if (ours_it != mine.updates.end()) {
      if (ours_it->second == value) {
        skip_theirs.insert(node);  // Convergent edit: dedupe silently.
      } else {
        conflict(ConflictKind::kUpdateUpdate, node,
                 "both sides updated \"" + std::string(base.value(node)) +
                     "\" to different values");
      }
    } else if (mine.deletes.count(node) > 0) {
      conflict(ConflictKind::kUpdateDelete, node,
               "theirs updated a node ours deleted");
    }
  }
  for (NodeId node : other.deletes) {
    if (mine.updates.count(node) > 0) {
      conflict(ConflictKind::kUpdateDelete, node,
               "theirs deleted a node ours updated");
    } else if (mine.move_parents.count(node) > 0) {
      conflict(ConflictKind::kMoveDelete, node,
               "theirs deleted a node ours moved");
    }
  }
  for (const auto& [node, dest] : other.move_parents) {
    auto ours_it = mine.move_parents.find(node);
    if (ours_it != mine.move_parents.end()) {
      if (ours_it->second == dest) {
        skip_theirs.insert(node);  // Convergent move: keep ours' position.
      } else {
        conflict(ConflictKind::kMoveMove, node,
                 "both sides moved the same subtree to different parents");
      }
    } else if (mine.deletes.count(node) > 0) {
      conflict(ConflictKind::kMoveDelete, node,
               "theirs moved a node ours deleted");
    }
  }

  // ----- Apply ours in full. -----
  TREEDIFF_RETURN_IF_ERROR(to_ours->script.ApplyTo(&result.merged));
  result.ops_from_ours = to_ours->script.size();

  // ----- Apply theirs' surviving operations. -----
  // Theirs' inserted nodes carry ids from its own working space; remap them
  // to the ids the merged tree allocates.
  std::unordered_map<NodeId, NodeId> remap;
  auto resolve = [&](NodeId id) -> NodeId {
    if (id >= 0 && static_cast<size_t>(id) < base_bound) return id;
    auto it = remap.find(id);
    return it == remap.end() ? kInvalidNode : it->second;
  };
  auto record_skip = [&](ConflictKind kind, NodeId node, std::string what) {
    // Deduplicate per (kind, node): subtree-wide skips touch many ops.
    for (const MergeConflict& c : result.conflicts) {
      if (c.kind == kind && c.base_node == node) {
        ++result.skipped_theirs;
        return;
      }
    }
    result.conflicts.push_back({kind, node, std::move(what)});
    ++result.skipped_theirs;
  };

  Tree& merged = result.merged;
  for (const EditOp& op : to_theirs->script.ops()) {
    const NodeId node = resolve(op.node);
    switch (op.kind) {
      case EditOpKind::kInsert: {
        const NodeId parent = resolve(op.parent);
        if (parent == kInvalidNode || !merged.Alive(parent)) {
          record_skip(ConflictKind::kDeleteEdit, op.parent,
                      "theirs inserted under a node ours deleted");
          break;
        }
        // Convergent-insert dedupe: if ours already inserted an identical
        // leaf (same label and value, non-base id) under this parent, map
        // theirs' node onto it instead of duplicating.
        NodeId convergent = kInvalidNode;
        for (NodeId c : merged.children(parent)) {
          if (static_cast<size_t>(c) >= base_bound && merged.IsLeaf(c) &&
              merged.label(c) == op.label && merged.value(c) == op.value) {
            convergent = c;
            break;
          }
        }
        if (convergent != kInvalidNode) {
          remap[op.node] = convergent;
          ++result.skipped_theirs;
          break;
        }
        const int max_k =
            static_cast<int>(merged.children(parent).size()) + 1;
        StatusOr<NodeId> id = merged.InsertLeaf(
            op.label, op.value, parent, std::min(op.position, max_k));
        if (!id.ok()) return id.status();
        remap[op.node] = *id;
        ++result.ops_from_theirs;
        break;
      }
      case EditOpKind::kUpdate: {
        if (node == kInvalidNode || skip_theirs.count(node) > 0 ||
            !merged.Alive(node)) {
          ++result.skipped_theirs;
          break;
        }
        TREEDIFF_RETURN_IF_ERROR(merged.UpdateValue(node, op.value));
        ++result.ops_from_theirs;
        break;
      }
      case EditOpKind::kDelete: {
        if (node == kInvalidNode || skip_theirs.count(node) > 0 ||
            !merged.Alive(node)) {
          ++result.skipped_theirs;  // Already gone or conflicted.
          break;
        }
        if (!merged.IsLeaf(node)) {
          record_skip(ConflictKind::kDeleteEdit, node,
                      "theirs deleted a node that still has children after "
                      "ours' changes");
          break;
        }
        TREEDIFF_RETURN_IF_ERROR(merged.DeleteLeaf(node));
        ++result.ops_from_theirs;
        break;
      }
      case EditOpKind::kMove: {
        const NodeId parent = resolve(op.parent);
        if (node == kInvalidNode || skip_theirs.count(node) > 0 ||
            !merged.Alive(node)) {
          ++result.skipped_theirs;
          break;
        }
        if (parent == kInvalidNode || !merged.Alive(parent)) {
          record_skip(ConflictKind::kMoveDelete, op.node,
                      "theirs moved a node into a place ours removed");
          break;
        }
        if (merged.IsAncestorOrSelf(node, parent)) {
          record_skip(ConflictKind::kMoveMove, op.node,
                      "concurrent moves made theirs' move cyclic");
          break;
        }
        const bool same_parent = merged.parent(node) == parent;
        const int max_k = static_cast<int>(merged.children(parent).size()) +
                          (same_parent ? 0 : 1);
        TREEDIFF_RETURN_IF_ERROR(merged.MoveSubtree(
            node, parent, std::max(1, std::min(op.position, max_k))));
        ++result.ops_from_theirs;
        break;
      }
    }
  }

  TREEDIFF_RETURN_IF_ERROR(merged.Validate());
  return result;
}

}  // namespace treediff
