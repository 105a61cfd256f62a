#include "core/edit_script.h"

#include <utility>

namespace treediff {

const char* EditOpKindName(EditOpKind kind) {
  switch (kind) {
    case EditOpKind::kInsert:
      return "INS";
    case EditOpKind::kDelete:
      return "DEL";
    case EditOpKind::kUpdate:
      return "UPD";
    case EditOpKind::kMove:
      return "MOV";
  }
  return "???";
}

EditOp EditOp::Insert(NodeId node, LabelId label, std::string value,
                      NodeId parent, int position) {
  EditOp op;
  op.kind = EditOpKind::kInsert;
  op.node = node;
  op.label = label;
  op.value = std::move(value);
  op.parent = parent;
  op.position = position;
  op.cost = 1.0;
  return op;
}

EditOp EditOp::Delete(NodeId node) {
  EditOp op;
  op.kind = EditOpKind::kDelete;
  op.node = node;
  op.cost = 1.0;
  return op;
}

EditOp EditOp::Update(NodeId node, std::string value, double cost) {
  EditOp op;
  op.kind = EditOpKind::kUpdate;
  op.node = node;
  op.value = std::move(value);
  op.cost = cost;
  return op;
}

EditOp EditOp::Move(NodeId node, NodeId parent, int position) {
  EditOp op;
  op.kind = EditOpKind::kMove;
  op.node = node;
  op.parent = parent;
  op.position = position;
  op.cost = 1.0;
  return op;
}

std::string EditOp::ToString(const LabelTable& labels) const {
  std::string out = EditOpKindName(kind);
  switch (kind) {
    case EditOpKind::kInsert:
      out.append("((");
      out.append(std::to_string(node));
      out.append(", ");
      out.append(labels.Name(label));
      out.append(", \"");
      out.append(value);
      out.append("\"), ");
      out.append(std::to_string(parent));
      out.append(", ");
      out.append(std::to_string(position));
      out.append(")");
      break;
    case EditOpKind::kDelete:
      out.append("(");
      out.append(std::to_string(node));
      out.append(")");
      break;
    case EditOpKind::kUpdate:
      out.append("(");
      out.append(std::to_string(node));
      out.append(", \"");
      out.append(value);
      out.append("\")");
      break;
    case EditOpKind::kMove:
      out.append("(");
      out.append(std::to_string(node));
      out.append(", ");
      out.append(std::to_string(parent));
      out.append(", ");
      out.append(std::to_string(position));
      out.append(")");
      break;
  }
  return out;
}

void EditScript::Append(EditOp op) {
  total_cost_ += op.cost;
  ++counts_[static_cast<int>(op.kind)];
  ops_.push_back(std::move(op));
}

namespace {

/// Replays one undo-log entry. Undo inserts always name an existing dead
/// slot (they reverse a delete of this apply), so they take the revive path.
Status ApplyUndoOp(Tree* tree, const EditOp& op) {
  switch (op.kind) {
    case EditOpKind::kInsert:
      TREEDIFF_RETURN_IF_ERROR(
          tree->ReviveLeaf(op.node, op.parent, op.position));
      return tree->UpdateValue(op.node, op.value);
    case EditOpKind::kDelete:
      return tree->DeleteLeaf(op.node);
    case EditOpKind::kUpdate:
      return tree->UpdateValue(op.node, op.value);
    case EditOpKind::kMove:
      return tree->MoveSubtree(op.node, op.parent, op.position);
  }
  return Status::Internal("unknown undo op kind");
}

}  // namespace

Status EditScript::ApplyTo(Tree* tree, const Budget* budget) const {
  // Validate-then-apply with an undo log: each op records its inverse (from
  // the pre-op state) right after it succeeds; on any failure the log is
  // replayed backwards and the arena tail minted by rolled-back inserts is
  // popped, leaving the tree indistinguishable from its pre-apply state.
  const size_t pre_bound = tree->id_bound();
  std::vector<EditOp> undo;
  undo.reserve(ops_.size());
  Status failure;
  size_t fail_index = 0;

  for (size_t i = 0; i < ops_.size(); ++i) {
    const EditOp& op = ops_[i];
    fail_index = i;
    if (!BudgetChargeNodes(budget)) {
      failure = BudgetStatus(budget);
      break;
    }
    switch (op.kind) {
      case EditOpKind::kInsert: {
        // An insert whose recorded id names a dead slot revives that node —
        // this is how inverse scripts (InvertScript) undo deletions while
        // preserving node identity.
        if (op.node >= 0 && static_cast<size_t>(op.node) < tree->id_bound() &&
            !tree->Alive(op.node)) {
          std::string dead_value(tree->value(op.node));
          failure = tree->ReviveLeaf(op.node, op.parent, op.position);
          if (!failure.ok()) break;
          undo.push_back(EditOp::Delete(op.node));
          failure = tree->UpdateValue(op.node, op.value);
          if (!failure.ok()) break;
          undo.push_back(
              EditOp::Update(op.node, std::move(dead_value), 0.0));
          break;
        }
        StatusOr<NodeId> id =
            tree->InsertLeaf(op.label, op.value, op.parent, op.position);
        if (!id.ok()) {
          failure = id.status();
          break;
        }
        undo.push_back(EditOp::Delete(*id));
        if (*id != op.node) {
          failure = Status::FailedPrecondition(
              "insert allocated id " + std::to_string(*id) +
              " but the script recorded " + std::to_string(op.node) +
              "; was the script generated against this tree?");
        }
        break;
      }
      case EditOpKind::kDelete: {
        if (!tree->Alive(op.node)) {
          failure = Status::InvalidArgument("delete: node is not live");
          break;
        }
        const NodeId del_parent = tree->parent(op.node);
        EditOp inverse = EditOp::Insert(
            op.node, tree->label(op.node), std::string(tree->value(op.node)),
            del_parent,
            del_parent == kInvalidNode ? 1 : tree->ChildIndex(op.node) + 1);
        failure = tree->DeleteLeaf(op.node);
        if (failure.ok()) undo.push_back(std::move(inverse));
        break;
      }
      case EditOpKind::kUpdate: {
        if (!tree->Alive(op.node)) {
          failure = Status::InvalidArgument("update: node is not live");
          break;
        }
        EditOp inverse =
            EditOp::Update(op.node, std::string(tree->value(op.node)), 0.0);
        failure = tree->UpdateValue(op.node, op.value);
        if (failure.ok()) undo.push_back(std::move(inverse));
        break;
      }
      case EditOpKind::kMove: {
        if (!tree->Alive(op.node)) {
          failure = Status::InvalidArgument("move: node is not live");
          break;
        }
        EditOp inverse = EditOp::Move(op.node, tree->parent(op.node),
                                      tree->ChildIndex(op.node) + 1);
        failure = tree->MoveSubtree(op.node, op.parent, op.position);
        if (failure.ok()) undo.push_back(std::move(inverse));
        break;
      }
    }
    if (!failure.ok()) break;
  }
  if (failure.ok()) return Status::Ok();

  // Roll back. A replay failure would mean the undo log itself is wrong —
  // an internal bug, not a property of the input script.
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
    Status st = ApplyUndoOp(tree, *it);
    if (!st.ok()) {
      return Status::Internal("rollback failed (" + st.message() +
                              ") after op " + std::to_string(fail_index) +
                              " failed: " + failure.message());
    }
  }
  Status trunc = tree->TruncateDeadTail(pre_bound);
  if (!trunc.ok()) {
    return Status::Internal("rollback truncation failed: " + trunc.message());
  }
  return Status(failure.code(),
                "op " + std::to_string(fail_index) + " [" +
                    ops_[fail_index].ToString(tree->labels()) +
                    "] failed, tree rolled back: " + failure.message());
}

std::string EditScript::ToString(const LabelTable& labels) const {
  std::string out;
  for (const EditOp& op : ops_) {
    out += op.ToString(labels);
    out += "\n";
  }
  return out;
}

StatusOr<EditScript> InvertScript(const EditScript& script,
                                  const Tree& tree) {
  Tree work = tree.Clone();
  std::vector<EditOp> reversed;
  reversed.reserve(script.size());

  for (const EditOp& op : script.ops()) {
    switch (op.kind) {
      case EditOpKind::kInsert: {
        reversed.push_back(EditOp::Delete(op.node));
        break;
      }
      case EditOpKind::kDelete: {
        if (!work.Alive(op.node)) {
          return Status::FailedPrecondition(
              "invert: delete of a node that is not live");
        }
        const NodeId parent = work.parent(op.node);
        const int position = work.ChildIndex(op.node) + 1;
        reversed.push_back(EditOp::Insert(op.node, work.label(op.node),
                                          std::string(work.value(op.node)),
                                          parent, position));
        break;
      }
      case EditOpKind::kUpdate: {
        if (!work.Alive(op.node)) {
          return Status::FailedPrecondition(
              "invert: update of a node that is not live");
        }
        reversed.push_back(
            EditOp::Update(op.node, std::string(work.value(op.node)), op.cost));
        break;
      }
      case EditOpKind::kMove: {
        if (!work.Alive(op.node)) {
          return Status::FailedPrecondition(
              "invert: move of a node that is not live");
        }
        const NodeId old_parent = work.parent(op.node);
        const int old_position = work.ChildIndex(op.node) + 1;
        reversed.push_back(EditOp::Move(op.node, old_parent, old_position));
        break;
      }
    }
    // Keep the working tree in lockstep so later inverses see the right
    // pre-state.
    EditScript single;
    single.Append(op);
    TREEDIFF_RETURN_IF_ERROR(single.ApplyTo(&work));
  }

  EditScript inverse;
  for (auto it = reversed.rbegin(); it != reversed.rend(); ++it) {
    inverse.Append(std::move(*it));
  }
  return inverse;
}

}  // namespace treediff
