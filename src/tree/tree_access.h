#ifndef TREEDIFF_TREE_TREE_ACCESS_H_
#define TREEDIFF_TREE_TREE_ACCESS_H_

#include <span>
#include <string>
#include <string_view>

#include "tree/tree.h"

namespace treediff {

/// Raw construction of a Tree's buffers, for the readers that know a
/// tree's exact shape as they read it: the binary tree codec
/// (store/codec.cc), which restores node ids, dead slots and child order,
/// and the s-expression parser (tree/builder.cc), which writes each child
/// list once, when its node closes, so a parsed tree has no slack. Nothing
/// here notifies observers or checks structure; the caller builds a fresh,
/// unobserved tree and validates what it could not check as it read.
class TreeCodecAccess {
 public:
  /// Reserves room for `nodes` records, `value_bytes` value bytes and
  /// `kid_ids` child ids.
  static void Reserve(Tree* t, size_t nodes, size_t value_bytes,
                      size_t kid_ids) {
    t->nodes_.reserve(nodes);
    t->values_.reserve(value_bytes);
    t->kids_.reserve(kid_ids);
  }

  /// The value buffer. Bytes appended to it become the value of the next
  /// AddNode.
  static std::string& values(Tree* t) { return t->values_; }

  /// Appends a record with no children whose value is the bytes of
  /// values() from `value_offset` to the end. Returns its id.
  static NodeId AddNode(Tree* t, LabelId label, NodeId parent, bool alive,
                        size_t value_offset) {
    Tree::CheckSpan(t->values_.size(), "value");
    Tree::NodeRec rec;
    rec.label = label;
    rec.parent = parent;
    rec.alive = alive;
    rec.value_offset = static_cast<Tree::Span32>(value_offset);
    rec.value_size =
        static_cast<Tree::Span32>(t->values_.size() - value_offset);
    t->nodes_.push_back(rec);
    return static_cast<NodeId>(t->nodes_.size() - 1);
  }

  /// Writes the child list of `x`, which must have none yet, at the tail
  /// of the id buffer with no spare capacity.
  static void SetChildren(Tree* t, NodeId x, std::span<const NodeId> kids) {
    Tree::NodeRec& rec = t->node(x);
    Tree::CheckSpan(t->kids_.size() + kids.size(), "child");
    rec.kids_offset = static_cast<Tree::Span32>(t->kids_.size());
    rec.kids_size = static_cast<Tree::Span32>(kids.size());
    rec.kids_capacity = rec.kids_size;
    t->kids_.insert(t->kids_.end(), kids.begin(), kids.end());
  }

  /// Sets the root and the live-node count once every node is added.
  static void Finish(Tree* t, NodeId root, size_t live_count) {
    t->root_ = root;
    t->live_count_ = live_count;
  }
};

}  // namespace treediff

#endif  // TREEDIFF_TREE_TREE_ACCESS_H_
