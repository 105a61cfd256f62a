#include "core/share_map.h"

#include <optional>

namespace treediff {

bool SubtreePairWalker::Identical(const Tree& t1, NodeId x, const Tree& t2,
                                  NodeId y) {
  stack_.clear();
  stack_.emplace_back(x, y);
  while (!stack_.empty()) {
    auto [a, b] = stack_.back();
    stack_.pop_back();
    if (t1.label(a) != t2.label(b) || t1.value(a) != t2.value(b)) return false;
    const auto& ka = t1.children(a);
    const auto& kb = t2.children(b);
    if (ka.size() != kb.size()) return false;
    for (size_t i = 0; i < ka.size(); ++i) stack_.emplace_back(ka[i], kb[i]);
  }
  return true;
}

void SubtreePairWalker::Match(const Tree& t1, NodeId x, const Tree& t2,
                              NodeId y, Matching* m) {
  stack_.clear();
  stack_.emplace_back(x, y);
  while (!stack_.empty()) {
    auto [a, b] = stack_.back();
    stack_.pop_back();
    m->Add(a, b);
    const auto& ka = t1.children(a);
    const auto& kb = t2.children(b);
    for (size_t i = 0; i < ka.size(); ++i) stack_.emplace_back(ka[i], kb[i]);
  }
}

bool SubtreePairWalker::Intact(const Tree& t1, NodeId x, const Tree& t2,
                               NodeId y, const Matching& m) {
  stack_.clear();
  stack_.emplace_back(x, y);
  while (!stack_.empty()) {
    auto [a, b] = stack_.back();
    stack_.pop_back();
    if (!m.Contains(a, b)) return false;
    const auto& ka = t1.children(a);
    const auto& kb = t2.children(b);
    if (ka.size() != kb.size()) return false;
    for (size_t i = 0; i < ka.size(); ++i) stack_.emplace_back(ka[i], kb[i]);
  }
  return true;
}

ShareMap ShareMap::Build(const TreeIndex& index) {
  const std::vector<NodeId>& order = index.PreOrder();
  ShareMap map;
  // At most one slot per node at a load factor of at most 1/2.
  int bits = 1;
  while ((size_t{1} << bits) < 2 * order.size()) ++bits;
  map.slots_.resize(size_t{1} << bits);
  map.shift_ = 64 - bits;
  map.next_.resize(static_cast<size_t>(index.tree().id_bound()));
  // Prepending in reverse document order leaves every chain in document
  // order, with no tail to track.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    map.Insert(index.SubtreeHash(*it), *it);
  }
  return map;
}

int ShareMap::Find(uint64_t fingerprint) const {
  if (slots_.empty()) return kNoSlot;
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(fingerprint);; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.head == kInvalidNode) return kNoSlot;
    if (slot.fingerprint == fingerprint) return static_cast<int>(i);
  }
}

void ShareMap::Insert(uint64_t fingerprint, NodeId y) {
  const size_t mask = slots_.size() - 1;
  size_t i = Home(fingerprint);
  while (slots_[i].head != kInvalidNode &&
         slots_[i].fingerprint != fingerprint) {
    i = (i + 1) & mask;
  }
  Slot& slot = slots_[i];
  slot.fingerprint = fingerprint;
  next_[static_cast<size_t>(y)] = slot.head;
  slot.head = y;
  slot.cursor = y;
}

void TaintAncestors(const Tree& t, NodeId v, std::vector<char>* tainted) {
  for (NodeId a = t.parent(v);
       a != kInvalidNode && !(*tainted)[static_cast<size_t>(a)];
       a = t.parent(a)) {
    (*tainted)[static_cast<size_t>(a)] = 1;
  }
}

Matching PrematchSharedSubtrees(
    const DiffContext& ctx, bool use_share_map, ShareStats* stats,
    std::vector<std::pair<NodeId, NodeId>>* settled) {
  const Tree& t1 = ctx.t1();
  const Tree& t2 = ctx.t2();
  const TreeIndex& i1 = ctx.index1();
  const TreeIndex& i2 = ctx.index2();
  Matching m(t1.id_bound(), t2.id_bound());
  SubtreePairWalker walk;

  std::optional<ShareMap> map;
  if (use_share_map) map = ShareMap::Build(i2);

  // A tainted T2 node has an unmatched root but matched nodes somewhere in
  // its subtree (an earlier, smaller settle landed inside it — duplicate
  // content makes this routine). Pairing requires an entirely unmatched
  // subtree, so tainted candidates must be passed over.
  std::vector<char> tainted(static_cast<size_t>(t2.id_bound()), 0);

  // Nodes that can never be anyone's twin again: matches and taint only
  // grow during the pre-pass, so the share-map cursors may pass them.
  auto spent = [&](NodeId y) {
    return y == t2.root() || m.HasT2(y) || tainted[static_cast<size_t>(y)];
  };

  // The canonical partner of x: the first T2 node in document order that is
  // not the root, whose subtree is byte-identical to x's, and whose subtree
  // is entirely unmatched. Both candidate sources preserve document order
  // and apply the same filters, so both modes settle the same pairs.
  auto find_twin = [&](NodeId x) -> NodeId {
    if (use_share_map) {
      const int slot = map->Find(i1.SubtreeHash(x));
      if (slot == ShareMap::kNoSlot) return kInvalidNode;
      for (NodeId y = map->SkipSpent(slot, spent); y != kInvalidNode;
           y = map->Next(y)) {
        if (spent(y)) continue;
        if (!walk.Identical(t1, x, t2, y)) {
          ++stats->collisions;
          continue;
        }
        return y;
      }
      return kInvalidNode;
    }
    // Reference mode: same rule without the fingerprint index. The scalar
    // filters (label, sizes, root value hash) only skip candidates that
    // cannot possibly verify; the decision is the subtree comparison.
    for (NodeId y : i2.PreOrder()) {
      if (spent(y)) continue;
      if (t2.label(y) != t1.label(x) ||
          i2.SubtreeSize(y) != i1.SubtreeSize(x) ||
          i2.LeafCount(y) != i1.LeafCount(x) ||
          i2.ValueHash(y) != i1.ValueHash(x)) {
        continue;
      }
      if (!walk.Identical(t1, x, t2, y)) {
        ++stats->collisions;
        continue;
      }
      return y;
    }
    return kInvalidNode;
  };

  // Top-down over T1 in document order, starting below the root: a settled
  // subtree is maximal (none of its descendants are probed again), so the
  // matchers see whole regions disappear at once.
  std::vector<NodeId> stack;
  const auto& top = t1.children(t1.root());
  for (auto it = top.rbegin(); it != top.rend(); ++it) stack.push_back(*it);
  while (!stack.empty()) {
    const NodeId x = stack.back();
    stack.pop_back();
    const NodeId y = find_twin(x);
    if (y != kInvalidNode) {
      walk.Match(t1, x, t2, y, &m);
      TaintAncestors(t2, y, &tainted);
      ++stats->settled_subtrees;
      stats->settled_nodes += static_cast<size_t>(i1.SubtreeSize(x));
      if (settled != nullptr) settled->emplace_back(x, y);
      continue;
    }
    const auto& kids = t1.children(x);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back(*it);
  }
  return m;
}

void FilterIntactSettled(const Tree& t1, const Tree& t2, const Matching& m,
                         std::vector<std::pair<NodeId, NodeId>>* settled) {
  SubtreePairWalker walk;
  size_t kept = 0;
  for (const auto& [x, y] : *settled) {
    if (walk.Intact(t1, x, t2, y, m)) (*settled)[kept++] = {x, y};
  }
  settled->resize(kept);
}

}  // namespace treediff
