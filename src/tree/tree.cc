#include "tree/tree.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <limits>

#include "tree/tree_index.h"

namespace treediff {

Tree::Tree(std::shared_ptr<LabelTable> labels) : labels_(std::move(labels)) {
  if (!labels_) labels_ = std::make_shared<LabelTable>();
}

Tree::Tree(const Tree& other) { CopyContents(other); }

Tree& Tree::operator=(const Tree& other) {
  if (this == &other) return *this;
  AbortIfFrozen("copy-assignment");
  CopyContents(other);
  NotifyBulk();
  return *this;
}

Tree::Tree(Tree&& other) noexcept
    : labels_(std::move(other.labels_)),
      nodes_(std::move(other.nodes_)),
      values_(std::move(other.values_)),
      kids_(std::move(other.kids_)),
      value_garbage_(other.value_garbage_),
      kids_garbage_(other.kids_garbage_),
      root_(other.root_),
      live_count_(other.live_count_),
      frozen_(other.frozen_) {
  other.value_garbage_ = 0;
  other.kids_garbage_ = 0;
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
  values_ = std::move(other.values_);
  kids_ = std::move(other.kids_);
  value_garbage_ = other.value_garbage_;
  kids_garbage_ = other.kids_garbage_;
  root_ = other.root_;
  live_count_ = other.live_count_;
  other.value_garbage_ = 0;
  other.kids_garbage_ = 0;
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

/// The first capacity a child list relocates to; later moves double it.
constexpr size_t kMinKidsCapacity = 4;

}  // namespace

void Tree::CheckSpan(size_t end, const char* buffer) {
  if (end <= std::numeric_limits<Span32>::max()) return;
  // About to abort: the diagnostic is best effort.
  (void)std::fprintf(stderr, "treediff: tree %s buffer exceeds 4 GiB\n",
                     buffer);
  std::abort();
}

void Tree::AppendValue(NodeRec* rec, std::string_view value) {
  const size_t old_size = values_.size();
  CheckSpan(old_size + value.size(), "value");
  const auto base = reinterpret_cast<uintptr_t>(values_.data());
  const auto from = reinterpret_cast<uintptr_t>(value.data());
  if (!value.empty() && from >= base && from < base + old_size) {
    // `value` views values_: growing the buffer may move it, so copy by
    // offset once the buffer has its new size.
    const size_t offset = from - base;
    values_.resize(old_size + value.size());
    std::memcpy(values_.data() + old_size, values_.data() + offset,
                value.size());
  } else {
    values_.append(value);
  }
  rec->value_offset = static_cast<Span32>(old_size);
  rec->value_size = static_cast<Span32>(value.size());
}

NodeId Tree::NewNode(LabelId label, NodeId parent, std::string_view value) {
  NodeRec rec;
  rec.label = label;
  rec.parent = parent;
  AppendValue(&rec, value);
  nodes_.push_back(rec);
  return static_cast<NodeId>(nodes_.size() - 1);
}

void Tree::InsertKid(NodeId parent, size_t pos, NodeId child) {
  NodeRec& rec = node(parent);
  if (rec.kids_size == rec.kids_capacity) {
    const size_t capacity =
        std::max(kMinKidsCapacity, 2 * static_cast<size_t>(rec.kids_capacity));
    if (rec.kids_offset + rec.kids_capacity == kids_.size()) {
      // The list ends the buffer: grow it where it is.
      CheckSpan(rec.kids_offset + capacity, "child");
      kids_.resize(rec.kids_offset + capacity);
    } else {
      const size_t offset = kids_.size();
      CheckSpan(offset + capacity, "child");
      kids_.resize(offset + capacity);
      std::copy_n(kids_.begin() + rec.kids_offset, rec.kids_size,
                  kids_.begin() + static_cast<ptrdiff_t>(offset));
      kids_garbage_ += rec.kids_capacity;
      rec.kids_offset = static_cast<Span32>(offset);
    }
    rec.kids_capacity = static_cast<Span32>(capacity);
  }
  NodeId* list = kids_.data() + rec.kids_offset;
  std::copy_backward(list + pos, list + rec.kids_size,
                     list + rec.kids_size + 1);
  list[pos] = child;
  ++rec.kids_size;
}

void Tree::RemoveKid(NodeId parent, NodeId child) {
  NodeRec& rec = node(parent);
  NodeId* list = kids_.data() + rec.kids_offset;
  NodeId* end = list + rec.kids_size;
  NodeId* it = std::find(list, end, child);
  assert(it != end);
  std::copy(it + 1, end, it);
  --rec.kids_size;
}

void Tree::CopyContents(const Tree& other) {
  labels_ = other.labels_;
  nodes_ = other.nodes_;
  root_ = other.root_;
  live_count_ = other.live_count_;
  const size_t live_values = other.values_.size() - other.value_garbage_;
  if (other.value_garbage_ > live_values) {
    values_.clear();
    values_.reserve(live_values);
    for (NodeRec& rec : nodes_) {
      const size_t offset = values_.size();
      values_.append(other.values_, rec.value_offset, rec.value_size);
      rec.value_offset = static_cast<Span32>(offset);
    }
    value_garbage_ = 0;
  } else {
    values_ = other.values_;
    value_garbage_ = other.value_garbage_;
  }
  const size_t live_kids = other.kids_.size() - other.kids_garbage_;
  if (other.kids_garbage_ > live_kids) {
    // Compacted lists keep no slack: capacity is the size.
    kids_.clear();
    kids_.reserve(live_kids);
    for (NodeRec& rec : nodes_) {
      const size_t offset = kids_.size();
      kids_.insert(kids_.end(), other.kids_.begin() + rec.kids_offset,
                   other.kids_.begin() + rec.kids_offset + rec.kids_size);
      rec.kids_offset = static_cast<Span32>(offset);
      rec.kids_capacity = rec.kids_size;
    }
    kids_garbage_ = 0;
  } else {
    kids_ = other.kids_;
    kids_garbage_ = other.kids_garbage_;
  }
}

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

NodeId Tree::AddRoot(LabelId label, std::string_view value) {
  AbortIfFrozen("AddRoot");
  assert(root_ == kInvalidNode && "tree already has a root");
  root_ = NewNode(label, kInvalidNode, value);
  ++live_count_;
  NotifyBulk();
  return root_;
}

NodeId Tree::AddChild(NodeId parent, LabelId label, std::string_view value) {
  AbortIfFrozen("AddChild");
  assert(Alive(parent));
  const NodeId id = NewNode(label, parent, value);
  InsertKid(parent, node(parent).kids_size, id);
  ++live_count_;
  NotifyBulk();
  return id;
}

NodeId Tree::AddRoot(std::string_view label_name, std::string_view value) {
  return AddRoot(labels_->Intern(label_name), value);
}

NodeId Tree::AddChild(NodeId parent, std::string_view label_name,
                      std::string_view value) {
  return AddChild(parent, labels_->Intern(label_name), value);
}

NodeId Tree::WrapRoot(LabelId label, std::string_view value) {
  AbortIfFrozen("WrapRoot");
  assert(root_ != kInvalidNode && "cannot wrap an empty tree");
  const NodeId id = NewNode(label, kInvalidNode, value);
  InsertKid(id, 0, root_);
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

StatusOr<NodeId> Tree::InsertLeaf(LabelId label, std::string_view value,
                                  NodeId parent, int k) {
  if (frozen_) return FrozenError("insert");
  if (!Alive(parent)) {
    return Status::InvalidArgument("insert: parent is not a live node");
  }
  if (k < 1 || static_cast<size_t>(k) > node(parent).kids_size + 1) {
    return Status::OutOfRange("insert: position k out of range");
  }
  const NodeId id = NewNode(label, parent, value);
  InsertKid(parent, static_cast<size_t>(k - 1), id);
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
    RemoveKid(p, x);
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
    node(x).kids_size = 0;
    root_ = x;
    ++live_count_;
    NotifyRevive(x);
    return Status::Ok();
  }
  if (!Alive(parent)) {
    return Status::InvalidArgument("revive: parent is not a live node");
  }
  if (k < 1 || static_cast<size_t>(k) > node(parent).kids_size + 1) {
    return Status::OutOfRange("revive: position k out of range");
  }
  InsertKid(parent, static_cast<size_t>(k - 1), x);
  node(x).alive = true;
  node(x).parent = parent;
  node(x).kids_size = 0;
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
  for (size_t i = bound; i < nodes_.size(); ++i) {
    value_garbage_ += nodes_[i].value_size;
    kids_garbage_ += nodes_[i].kids_capacity;
  }
  nodes_.resize(bound);
  NotifyTruncate(bound);
  return Status::Ok();
}

Status Tree::UpdateValue(NodeId x, std::string_view value) {
  if (frozen_) return FrozenError("update");
  if (!Alive(x)) return Status::InvalidArgument("update: node is not live");
  NodeRec& rec = node(x);
  value_garbage_ += rec.value_size;
  AppendValue(&rec, value);
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
  // k is 1-based and counted after detachment. Checked before detaching,
  // so a rejected move leaves the tree (and any attached index) untouched.
  const NodeId old_parent = parent(x);
  const size_t siblings_after =
      node(new_parent).kids_size - (old_parent == new_parent ? 1 : 0);
  if (k < 1 || static_cast<size_t>(k) > siblings_after + 1) {
    return Status::OutOfRange("move: position k out of range");
  }
  RemoveKid(old_parent, x);
  InsertKid(new_parent, static_cast<size_t>(k - 1), x);
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
    const std::span<const NodeId> kids = children(x);
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
    const std::span<const NodeId> kids = children(x);
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
    const std::span<const NodeId> kids = children(x);
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
  copy.CopyContents(*this);
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
    const std::span<const NodeId> ax = a.children(x);
    const std::span<const NodeId> by = b.children(y);
    if (ax.size() != by.size()) return false;
    for (size_t i = 0; i < ax.size(); ++i) stack.push_back({ax[i], by[i]});
  }
  return true;
}

Status Tree::Validate() const {
  // Arena accounting: every span lies inside its buffer, and the spans
  // plus the counted garbage cover each buffer exactly.
  size_t value_bytes = value_garbage_;
  size_t kid_slots = kids_garbage_;
  for (const NodeRec& rec : nodes_) {
    if (rec.value_offset + size_t{rec.value_size} > values_.size() ||
        rec.kids_size > rec.kids_capacity ||
        rec.kids_offset + size_t{rec.kids_capacity} > kids_.size()) {
      return Status::Internal("node span lies outside its buffer");
    }
    value_bytes += rec.value_size;
    kid_slots += rec.kids_capacity;
  }
  if (value_bytes != values_.size() || kid_slots != kids_.size()) {
    return Status::Internal("arena accounting mismatch");
  }

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
      const std::span<const NodeId> siblings = children(rec.parent);
      if (std::count(siblings.begin(), siblings.end(), id) != 1) {
        return Status::Internal("parent/child lists are inconsistent");
      }
    }
    for (NodeId c : children(id)) {
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
    const std::string_view v = value(x);
    if (!v.empty()) {
      bytes += 3 + v.size();
      for (char c : v) bytes += (c == '"' || c == '\\') ? 1 : 0;
    }
    const std::span<const NodeId> kids = children(x);
    bytes += kids.size();
    stack.insert(stack.end(), kids.begin(), kids.end());
  }
  return bytes;
}

}  // namespace treediff
