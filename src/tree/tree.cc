#include "tree/tree.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <deque>

#include "tree/tree_index.h"

namespace treediff {

Tree::Tree(std::shared_ptr<LabelTable> labels) : labels_(std::move(labels)) {
  if (!labels_) labels_ = std::make_shared<LabelTable>();
}

Tree::Tree(const Tree& other)
    : labels_(other.labels_),
      nodes_(other.nodes_),
      root_(other.root_),
      live_count_(other.live_count_) {}

Tree& Tree::operator=(const Tree& other) {
  if (this == &other) return *this;
  AbortIfFrozen("copy-assignment");
  labels_ = other.labels_;
  nodes_ = other.nodes_;
  root_ = other.root_;
  live_count_ = other.live_count_;
  NotifyBulk();
  return *this;
}

Tree::Tree(Tree&& other) noexcept
    : labels_(std::move(other.labels_)),
      nodes_(std::move(other.nodes_)),
      root_(other.root_),
      live_count_(other.live_count_),
      frozen_(other.frozen_) {
  other.root_ = kInvalidNode;
  other.live_count_ = 0;
  other.NotifyGoneAndClear();
}

Tree& Tree::operator=(Tree&& other) noexcept {
  if (this == &other) return *this;
  AbortIfFrozen("move-assignment");
  frozen_ = other.frozen_;
  labels_ = std::move(other.labels_);
  nodes_ = std::move(other.nodes_);
  root_ = other.root_;
  live_count_ = other.live_count_;
  other.root_ = kInvalidNode;
  other.live_count_ = 0;
  other.NotifyGoneAndClear();
  NotifyBulk();
  return *this;
}

Tree::~Tree() { NotifyGoneAndClear(); }

void Tree::AbortIfFrozen(const char* op) const {
  if (!frozen_) return;
  // About to abort: the diagnostic is best effort.
  (void)std::fprintf(stderr,
                     "treediff: %s on a frozen tree (see Tree::Freeze)\n", op);
  std::abort();
}

namespace {

inline Status FrozenError(const char* op) {
  return Status::FailedPrecondition(std::string(op) +
                                    ": tree is frozen (Tree::Freeze)");
}

}  // namespace

void Tree::AttachIndex(TreeIndex* index) const { observers_.push_back(index); }

void Tree::DetachIndex(TreeIndex* index) const {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), index),
                   observers_.end());
}

void Tree::NotifyInsert(NodeId x) const {
  for (TreeIndex* obs : observers_) obs->OnInsertLeaf(x);
}

void Tree::NotifyDelete(NodeId x, NodeId old_parent) const {
  for (TreeIndex* obs : observers_) obs->OnDeleteLeaf(x, old_parent);
}

void Tree::NotifyRevive(NodeId x) const {
  for (TreeIndex* obs : observers_) obs->OnReviveLeaf(x);
}

void Tree::NotifyUpdate(NodeId x) const {
  for (TreeIndex* obs : observers_) obs->OnUpdateValue(x);
}

void Tree::NotifyMove(NodeId x, NodeId old_parent) const {
  for (TreeIndex* obs : observers_) obs->OnMoveSubtree(x, old_parent);
}

void Tree::NotifyTruncate(size_t bound) const {
  for (TreeIndex* obs : observers_) obs->OnTruncateDeadTail(bound);
}

void Tree::NotifyBulk() const {
  for (TreeIndex* obs : observers_) obs->OnBulkStructureChange();
}

void Tree::NotifyGoneAndClear() const {
  for (TreeIndex* obs : observers_) obs->OnTreeGone();
  observers_.clear();
}

NodeId Tree::AddRoot(LabelId label, std::string value) {
  AbortIfFrozen("AddRoot");
  assert(root_ == kInvalidNode && "tree already has a root");
  NodeRec rec;
  rec.label = label;
  rec.value = std::move(value);
  nodes_.push_back(std::move(rec));
  root_ = static_cast<NodeId>(nodes_.size() - 1);
  ++live_count_;
  NotifyBulk();
  return root_;
}

NodeId Tree::AddChild(NodeId parent, LabelId label, std::string value) {
  AbortIfFrozen("AddChild");
  assert(Alive(parent));
  NodeRec rec;
  rec.label = label;
  rec.value = std::move(value);
  rec.parent = parent;
  nodes_.push_back(std::move(rec));
  NodeId id = static_cast<NodeId>(nodes_.size() - 1);
  node(parent).children.push_back(id);
  ++live_count_;
  NotifyBulk();
  return id;
}

NodeId Tree::AddRoot(std::string_view label_name, std::string value) {
  return AddRoot(labels_->Intern(label_name), std::move(value));
}

NodeId Tree::AddChild(NodeId parent, std::string_view label_name,
                      std::string value) {
  return AddChild(parent, labels_->Intern(label_name), std::move(value));
}

NodeId Tree::WrapRoot(LabelId label, std::string value) {
  AbortIfFrozen("WrapRoot");
  assert(root_ != kInvalidNode && "cannot wrap an empty tree");
  NodeRec rec;
  rec.label = label;
  rec.value = std::move(value);
  rec.children.push_back(root_);
  nodes_.push_back(std::move(rec));
  NodeId id = static_cast<NodeId>(nodes_.size() - 1);
  node(root_).parent = id;
  root_ = id;
  ++live_count_;
  NotifyBulk();
  return id;
}

int Tree::ChildIndex(NodeId x) const {
  if (!observers_.empty()) return observers_.front()->ChildIndex(x);
  NodeId p = parent(x);
  if (p == kInvalidNode) return -1;
  const auto& siblings = children(p);
  auto it = std::find(siblings.begin(), siblings.end(), x);
  assert(it != siblings.end());
  return static_cast<int>(it - siblings.begin());
}

bool Tree::IsAncestorOrSelf(NodeId anc, NodeId desc) const {
  for (NodeId cur = desc; cur != kInvalidNode; cur = parent(cur)) {
    if (cur == anc) return true;
  }
  return false;
}

StatusOr<NodeId> Tree::InsertLeaf(LabelId label, std::string value,
                                  NodeId parent, int k) {
  if (frozen_) return FrozenError("insert");
  if (!Alive(parent)) {
    return Status::InvalidArgument("insert: parent is not a live node");
  }
  auto& kids = node(parent).children;
  if (k < 1 || static_cast<size_t>(k) > kids.size() + 1) {
    return Status::OutOfRange("insert: position k out of range");
  }
  NodeRec rec;
  rec.label = label;
  rec.value = std::move(value);
  rec.parent = parent;
  nodes_.push_back(std::move(rec));
  NodeId id = static_cast<NodeId>(nodes_.size() - 1);
  // nodes_ may have reallocated; re-fetch the child list.
  auto& kids2 = node(parent).children;
  kids2.insert(kids2.begin() + (k - 1), id);
  ++live_count_;
  NotifyInsert(id);
  return id;
}

Status Tree::DeleteLeaf(NodeId x) {
  if (frozen_) return FrozenError("delete");
  if (!Alive(x)) return Status::InvalidArgument("delete: node is not live");
  if (!IsLeaf(x)) {
    return Status::FailedPrecondition(
        "delete: node has children (the paper's DEL applies to leaves only)");
  }
  NodeId p = parent(x);
  if (p != kInvalidNode) {
    auto& siblings = node(p).children;
    siblings.erase(std::find(siblings.begin(), siblings.end(), x));
  } else {
    root_ = kInvalidNode;
  }
  node(x).alive = false;
  node(x).parent = kInvalidNode;
  --live_count_;
  NotifyDelete(x, p);
  return Status::Ok();
}

Status Tree::ReviveLeaf(NodeId x, NodeId parent, int k) {
  if (frozen_) return FrozenError("revive");
  if (x < 0 || static_cast<size_t>(x) >= nodes_.size() || node(x).alive) {
    return Status::InvalidArgument("revive: node is not a dead slot");
  }
  if (parent == kInvalidNode) {
    // Restoring a deleted root (the rollback of a whole-tree delete).
    if (root_ != kInvalidNode) {
      return Status::InvalidArgument("revive: tree already has a root");
    }
    if (k != 1) return Status::OutOfRange("revive: root position must be 1");
    node(x).alive = true;
    node(x).parent = kInvalidNode;
    node(x).children.clear();
    root_ = x;
    ++live_count_;
    NotifyRevive(x);
    return Status::Ok();
  }
  if (!Alive(parent)) {
    return Status::InvalidArgument("revive: parent is not a live node");
  }
  auto& kids = node(parent).children;
  if (k < 1 || static_cast<size_t>(k) > kids.size() + 1) {
    return Status::OutOfRange("revive: position k out of range");
  }
  kids.insert(kids.begin() + (k - 1), x);
  node(x).alive = true;
  node(x).parent = parent;
  node(x).children.clear();
  ++live_count_;
  NotifyRevive(x);
  return Status::Ok();
}

Status Tree::TruncateDeadTail(size_t bound) {
  if (frozen_) return FrozenError("truncate");
  if (bound > nodes_.size()) {
    return Status::InvalidArgument("truncate: bound exceeds id_bound");
  }
  for (size_t i = bound; i < nodes_.size(); ++i) {
    if (nodes_[i].alive) {
      return Status::FailedPrecondition(
          "truncate: slot " + std::to_string(i) + " is still live");
    }
  }
  nodes_.resize(bound);
  NotifyTruncate(bound);
  return Status::Ok();
}

Status Tree::UpdateValue(NodeId x, std::string value) {
  if (frozen_) return FrozenError("update");
  if (!Alive(x)) return Status::InvalidArgument("update: node is not live");
  node(x).value = std::move(value);
  NotifyUpdate(x);
  return Status::Ok();
}

Status Tree::MoveSubtree(NodeId x, NodeId new_parent, int k) {
  if (frozen_) return FrozenError("move");
  if (!Alive(x)) return Status::InvalidArgument("move: node is not live");
  if (!Alive(new_parent)) {
    return Status::InvalidArgument("move: target parent is not live");
  }
  if (x == root_) return Status::InvalidArgument("move: cannot move the root");
  if (IsAncestorOrSelf(x, new_parent)) {
    return Status::InvalidArgument(
        "move: target parent is inside the moved subtree");
  }
  // Detach.
  NodeId old_parent = parent(x);
  auto& old_siblings = node(old_parent).children;
  auto old_it = std::find(old_siblings.begin(), old_siblings.end(), x);
  const size_t old_index = static_cast<size_t>(old_it - old_siblings.begin());
  old_siblings.erase(old_it);
  // Attach at k (1-based, counted after detachment).
  auto& kids = node(new_parent).children;
  if (k < 1 || static_cast<size_t>(k) > kids.size() + 1) {
    // Restore the exact original position before failing, so a rejected
    // move leaves the tree (and any attached index) untouched.
    auto& restore = node(old_parent).children;
    restore.insert(restore.begin() + static_cast<ptrdiff_t>(old_index), x);
    return Status::OutOfRange("move: position k out of range");
  }
  kids.insert(kids.begin() + (k - 1), x);
  node(x).parent = new_parent;
  NotifyMove(x, old_parent);
  return Status::Ok();
}

std::vector<NodeId> Tree::BfsOrder() const {
  std::vector<NodeId> order;
  if (root_ == kInvalidNode) return order;
  order.reserve(live_count_);
  std::deque<NodeId> queue = {root_};
  while (!queue.empty()) {
    NodeId x = queue.front();
    queue.pop_front();
    order.push_back(x);
    for (NodeId c : children(x)) queue.push_back(c);
  }
  return order;
}

std::vector<NodeId> Tree::PostOrder() const {
  std::vector<NodeId> order;
  if (root_ == kInvalidNode) return order;
  order.reserve(live_count_);
  // Iterative post-order: push (node, child-cursor) frames.
  std::vector<std::pair<NodeId, size_t>> stack = {{root_, 0}};
  while (!stack.empty()) {
    auto& [x, cursor] = stack.back();
    const auto& kids = children(x);
    if (cursor < kids.size()) {
      NodeId next = kids[cursor++];
      stack.push_back({next, 0});
    } else {
      order.push_back(x);
      stack.pop_back();
    }
  }
  return order;
}

std::vector<NodeId> Tree::PreOrder() const {
  std::vector<NodeId> order;
  if (root_ == kInvalidNode) return order;
  order.reserve(live_count_);
  std::vector<NodeId> stack = {root_};
  while (!stack.empty()) {
    NodeId x = stack.back();
    stack.pop_back();
    order.push_back(x);
    const auto& kids = children(x);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back(*it);
  }
  return order;
}

std::vector<NodeId> Tree::Leaves() const {
  std::vector<NodeId> leaves;
  for (NodeId x : PreOrder()) {
    if (IsLeaf(x)) leaves.push_back(x);
  }
  return leaves;
}

std::vector<int> Tree::LeafCounts() const {
  std::vector<int> counts(nodes_.size(), 0);
  for (NodeId x : PostOrder()) {
    const auto& kids = children(x);
    if (kids.empty()) {
      counts[static_cast<size_t>(x)] = 1;
    } else {
      int total = 0;
      for (NodeId c : kids) total += counts[static_cast<size_t>(c)];
      counts[static_cast<size_t>(x)] = total;
    }
  }
  return counts;
}

Tree Tree::Clone() const {
  Tree copy(labels_);
  copy.nodes_ = nodes_;
  copy.root_ = root_;
  copy.live_count_ = live_count_;
  return copy;
}

bool Tree::Isomorphic(const Tree& a, const Tree& b) {
  if (a.size() != b.size()) return false;
  if ((a.root() == kInvalidNode) != (b.root() == kInvalidNode)) return false;
  if (a.root() == kInvalidNode) return true;
  // Parallel pre-order walk comparing labels, values, and child counts.
  // Labels may come from different tables, so compare names.
  std::vector<std::pair<NodeId, NodeId>> stack = {{a.root(), b.root()}};
  const bool same_table = a.labels_.get() == b.labels_.get();
  while (!stack.empty()) {
    auto [x, y] = stack.back();
    stack.pop_back();
    if (same_table) {
      if (a.label(x) != b.label(y)) return false;
    } else if (a.label_name(x) != b.label_name(y)) {
      return false;
    }
    if (a.value(x) != b.value(y)) return false;
    const auto& ax = a.children(x);
    const auto& by = b.children(y);
    if (ax.size() != by.size()) return false;
    for (size_t i = 0; i < ax.size(); ++i) stack.push_back({ax[i], by[i]});
  }
  return true;
}

Status Tree::Validate() const {
  size_t live = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const NodeRec& rec = nodes_[i];
    if (!rec.alive) continue;
    ++live;
    NodeId id = static_cast<NodeId>(i);
    if (id == root_) {
      // Must be checked before the traversal below: a root with a parent can
      // close a cycle through the root that BfsOrder would walk forever.
      if (rec.parent != kInvalidNode) {
        return Status::Internal("root node has a parent");
      }
    } else if (rec.parent == kInvalidNode) {
      return Status::Internal("live non-root node has no parent");
    } else {
      if (!Alive(rec.parent)) {
        return Status::Internal("live node has dead parent");
      }
      const auto& siblings = node(rec.parent).children;
      if (std::count(siblings.begin(), siblings.end(), id) != 1) {
        return Status::Internal("parent/child lists are inconsistent");
      }
    }
    for (NodeId c : rec.children) {
      if (!Alive(c)) return Status::Internal("live node has dead child");
      if (node(c).parent != id) {
        return Status::Internal("child's parent pointer is wrong");
      }
    }
  }
  if (live != live_count_) return Status::Internal("live_count mismatch");
  if (root_ != kInvalidNode) {
    // Reachability: every live node must be reached from the root.
    if (BfsOrder().size() != live_count_) {
      return Status::Internal("unreachable live nodes (cycle or forest)");
    }
  } else if (live_count_ != 0) {
    return Status::Internal("no root but live nodes exist");
  }
  return Status::Ok();
}

void Tree::DebugStringRec(NodeId x, std::string* out) const {
  out->push_back('(');
  out->append(label_name(x));
  if (!value(x).empty()) {
    out->append(" \"");
    for (char c : value(x)) {
      if (c == '"' || c == '\\') out->push_back('\\');
      out->push_back(c);
    }
    out->push_back('"');
  }
  for (NodeId c : children(x)) {
    out->push_back(' ');
    DebugStringRec(c, out);
  }
  out->push_back(')');
}

std::string Tree::ToDebugString() const {
  if (root_ == kInvalidNode) return "()";
  std::string out;
  DebugStringRec(root_, &out);
  return out;
}

size_t Tree::DebugStringSize() const {
  if (root_ == kInvalidNode) return 2;  // "()"
  // Per node: "(" label [" \"" value "\""] ")", plus one separating space
  // per child (every node but the root is someone's child) and one
  // backslash per escaped quote or backslash in a value.
  size_t bytes = 0;
  std::vector<NodeId> stack = {root_};
  while (!stack.empty()) {
    const NodeId x = stack.back();
    stack.pop_back();
    bytes += 2 + label_name(x).size();
    const std::string& v = value(x);
    if (!v.empty()) {
      bytes += 3 + v.size();
      for (char c : v) bytes += (c == '"' || c == '\\') ? 1 : 0;
    }
    const auto& kids = children(x);
    bytes += kids.size();
    stack.insert(stack.end(), kids.begin(), kids.end());
  }
  return bytes;
}

}  // namespace treediff
