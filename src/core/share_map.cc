#include "core/share_map.h"

#include <optional>

namespace treediff {

bool SubtreesIdentical(const Tree& t1, NodeId x, const Tree& t2, NodeId y) {
  std::vector<std::pair<NodeId, NodeId>> stack = {{x, y}};
  while (!stack.empty()) {
    auto [a, b] = stack.back();
    stack.pop_back();
    if (t1.label(a) != t2.label(b) || t1.value(a) != t2.value(b)) return false;
    const auto& ka = t1.children(a);
    const auto& kb = t2.children(b);
    if (ka.size() != kb.size()) return false;
    for (size_t i = 0; i < ka.size(); ++i) stack.push_back({ka[i], kb[i]});
  }
  return true;
}

void MatchSubtreePair(const Tree& t1, NodeId x, const Tree& t2, NodeId y,
                      Matching* m) {
  std::vector<std::pair<NodeId, NodeId>> stack = {{x, y}};
  while (!stack.empty()) {
    auto [a, b] = stack.back();
    stack.pop_back();
    m->Add(a, b);
    const auto& ka = t1.children(a);
    const auto& kb = t2.children(b);
    for (size_t i = 0; i < ka.size(); ++i) stack.push_back({ka[i], kb[i]});
  }
}

ShareMap ShareMap::Build(const TreeIndex& index) {
  ShareMap map;
  for (NodeId y : index.PreOrder()) {
    map.buckets_[index.SubtreeHash(y)].push_back(y);
  }
  return map;
}

Matching PrematchSharedSubtrees(
    const DiffContext& ctx, bool use_share_map, ShareStats* stats,
    std::vector<std::pair<NodeId, NodeId>>* settled) {
  const Tree& t1 = ctx.t1();
  const Tree& t2 = ctx.t2();
  const TreeIndex& i1 = ctx.index1();
  const TreeIndex& i2 = ctx.index2();
  Matching m(t1.id_bound(), t2.id_bound());

  std::optional<ShareMap> map;
  if (use_share_map) map = ShareMap::Build(i2);

  // A tainted T2 node has an unmatched root but matched nodes somewhere in
  // its subtree (an earlier, smaller settle landed inside it — duplicate
  // content makes this routine). MatchSubtreePair requires an entirely
  // unmatched subtree, so tainted candidates must be passed over.
  std::vector<char> tainted(static_cast<size_t>(t2.id_bound()), 0);

  // The canonical partner of x: the first T2 node in document order that is
  // not the root, whose subtree is byte-identical to x's, and whose subtree
  // is entirely unmatched. Both candidate sources preserve document order
  // and apply the same filters, so both modes settle the same pairs.
  auto find_twin = [&](NodeId x) -> NodeId {
    if (use_share_map) {
      const std::vector<NodeId>* bucket = map->Candidates(i1.SubtreeHash(x));
      if (bucket == nullptr) return kInvalidNode;
      for (NodeId y : *bucket) {
        if (y == t2.root() || m.HasT2(y) ||
            tainted[static_cast<size_t>(y)]) {
          continue;
        }
        if (!SubtreesIdentical(t1, x, t2, y)) {
          ++stats->collisions;
          continue;
        }
        return y;
      }
      return kInvalidNode;
    }
    // Reference mode: same rule without the fingerprint index. The scalar
    // filters (label, sizes, root value hash) only skip candidates that
    // cannot possibly verify; the decision is SubtreesIdentical either way.
    for (NodeId y : i2.PreOrder()) {
      if (y == t2.root() || m.HasT2(y) || tainted[static_cast<size_t>(y)]) {
        continue;
      }
      if (t2.label(y) != t1.label(x) ||
          i2.SubtreeSize(y) != i1.SubtreeSize(x) ||
          i2.LeafCount(y) != i1.LeafCount(x) ||
          i2.ValueHash(y) != i1.ValueHash(x)) {
        continue;
      }
      if (!SubtreesIdentical(t1, x, t2, y)) {
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
      MatchSubtreePair(t1, x, t2, y, &m);
      for (NodeId a = t2.parent(y); a != kInvalidNode; a = t2.parent(a)) {
        tainted[static_cast<size_t>(a)] = 1;
      }
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
  auto intact = [&](NodeId x, NodeId y) {
    std::vector<std::pair<NodeId, NodeId>> stack = {{x, y}};
    while (!stack.empty()) {
      auto [a, b] = stack.back();
      stack.pop_back();
      if (!m.Contains(a, b)) return false;
      const auto& ka = t1.children(a);
      const auto& kb = t2.children(b);
      if (ka.size() != kb.size()) return false;
      for (size_t i = 0; i < ka.size(); ++i) stack.push_back({ka[i], kb[i]});
    }
    return true;
  };
  size_t kept = 0;
  for (const auto& [x, y] : *settled) {
    if (intact(x, y)) (*settled)[kept++] = {x, y};
  }
  settled->resize(kept);
}

}  // namespace treediff
