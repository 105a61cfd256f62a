#include "core/keyed_match.h"

#include <map>
#include <optional>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "core/share_map.h"
#include "lcs/lcs.h"
#include "tree/tree_index.h"

namespace treediff {

namespace {

/// Pre-order served from an attached TreeIndex when one exists, computed
/// otherwise. Standalone entry points (no DiffContext) go through this.
std::vector<NodeId> PreOrderOf(const Tree& t) {
  if (const TreeIndex* index = t.attached_index()) return index->PreOrder();
  return t.PreOrder();
}

/// Key space: (label, leaf-ness, key) -> node. Duplicate keys map to
/// kInvalidNode, voiding the uniqueness guarantee for that key.
using KeyIndex = std::map<std::tuple<LabelId, bool, std::string>, NodeId>;

KeyIndex IndexKeys(const Tree& t, const KeyFn& key_fn) {
  KeyIndex index;
  for (NodeId x : PreOrderOf(t)) {
    std::optional<std::string> key = key_fn(t, x);
    if (!key.has_value()) continue;
    auto slot = std::make_tuple(t.label(x), t.IsLeaf(x), std::move(*key));
    auto [it, inserted] = index.emplace(std::move(slot), x);
    if (!inserted) it->second = kInvalidNode;  // Duplicate: void the key.
  }
  return index;
}

}  // namespace

Matching ComputeKeyedMatch(const Tree& t1, const Tree& t2,
                           const KeyFn& key_fn, const Matching* seed) {
  Matching m = seed != nullptr ? *seed
                               : Matching(t1.id_bound(), t2.id_bound());
  KeyIndex index2 = IndexKeys(t2, key_fn);
  KeyIndex index1 = IndexKeys(t1, key_fn);
  for (const auto& [slot, x] : index1) {
    if (x == kInvalidNode) continue;  // Duplicate key in T1.
    auto it = index2.find(slot);
    if (it == index2.end() || it->second == kInvalidNode) continue;
    if (m.HasT1(x) || m.HasT2(it->second)) continue;  // Settled by the seed.
    m.Add(x, it->second);
  }
  return m;
}

Matching ComputeHybridMatch(const Tree& t1, const Tree& t2,
                            const KeyFn& key_fn,
                            const CriteriaEvaluator& eval,
                            const Matching* seed) {
  Matching m = ComputeKeyedMatch(t1, t2, key_fn, seed);

  // FastMatch over the remainder: per-(label, kind) chains of unmatched
  // nodes, LCS first, then the quadratic fallback (Figure 11 restricted to
  // the keyless part).
  std::map<std::pair<LabelId, bool>,
           std::pair<std::vector<NodeId>, std::vector<NodeId>>>
      chains;
  for (NodeId x : eval.index1().PreOrder()) {
    if (!m.HasT1(x)) {
      chains[{t1.label(x), t1.IsLeaf(x)}].first.push_back(x);
    }
  }
  for (NodeId y : eval.index2().PreOrder()) {
    if (!m.HasT2(y)) {
      chains[{t2.label(y), t2.IsLeaf(y)}].second.push_back(y);
    }
  }

  // Leaf chains first so the internal criterion sees all leaf matches.
  for (int pass = 0; pass < 2; ++pass) {
    const bool leaves = pass == 0;
    for (auto& [slot, chain] : chains) {
      if (slot.second != leaves) continue;
      auto& s1 = chain.first;
      auto& s2 = chain.second;
      auto equal = [&](NodeId x, NodeId y) {
        // Same fast-forward as FastMatch: after a budget trip the matching
        // is discarded, so answer "equal" to let the in-flight LCS finish
        // in linear time (pairs stay label-legal within a chain).
        if (!BudgetOk(eval.budget())) return true;
        return leaves ? eval.LeafEqual(x, y) : eval.InternalEqual(x, y, m);
      };
      std::vector<LcsPair> lcs =
          Lcs(static_cast<int>(s1.size()), static_cast<int>(s2.size()),
              [&](int i, int j) {
                return equal(s1[static_cast<size_t>(i)],
                             s2[static_cast<size_t>(j)]);
              });
      for (const LcsPair& p : lcs) {
        m.Add(s1[static_cast<size_t>(p.a_index)],
              s2[static_cast<size_t>(p.b_index)]);
      }
      for (NodeId x : s1) {
        if (!BudgetCheck(eval.budget())) break;
        if (m.HasT1(x)) continue;
        for (NodeId y : s2) {
          if (!BudgetCheck(eval.budget())) break;
          if (m.HasT2(y)) continue;
          if (equal(x, y)) {
            m.Add(x, y);
            break;
          }
        }
      }
    }
  }
  return m;
}

Matching ComputeStructuralMatch(const Tree& t1, const Tree& t2,
                                const Matching* seed) {
  Matching m = seed != nullptr ? *seed
                               : Matching(t1.id_bound(), t2.id_bound());
  if (t1.root() == kInvalidNode || t2.root() == kInvalidNode) return m;

  // Subtree fingerprints come from the trees' indexes — the DiffContext's
  // when running in the pipeline, short-lived local ones standalone.
  std::optional<TreeIndex> local1;
  std::optional<TreeIndex> local2;
  const TreeIndex* i1 = t1.attached_index();
  if (i1 == nullptr) i1 = &local1.emplace(t1);
  const TreeIndex* i2 = t2.attached_index();
  if (i2 == nullptr) i2 = &local2.emplace(t2);

  // A subtree may only be paired wholesale when no node in it is matched
  // yet on either side (a duplicate sentence paired earlier in document
  // order, or a seed pair under an unsettled parent, would otherwise be
  // paired a second time). tainted1/tainted2 mark the proper ancestors of
  // matched nodes, so "subtree entirely unmatched" is two O(1) lookups.
  std::vector<char> tainted1(static_cast<size_t>(t1.id_bound()), 0);
  std::vector<char> tainted2(static_cast<size_t>(t2.id_bound()), 0);
  if (m.size() > 0) {
    for (NodeId x : i1->PreOrder()) {
      if (m.HasT1(x)) TaintAncestors(t1, x, &tainted1);
    }
    for (NodeId y : i2->PreOrder()) {
      if (m.HasT2(y)) TaintAncestors(t2, y, &tainted2);
    }
  }

  // Pass 1: greedy identical-subtree matching in document order through
  // the share-map (core/share_map.h) — the same fingerprint chains, cursors
  // and verification the pre-pass uses. Matched and tainted T2 nodes stay
  // unusable for the rest of the pass, so the cursors skip them for good.
  // A root may only pair with the other root, so the root pairing
  // GenerateEditScript requires is never usurped by some interior twin.
  ShareMap map = ShareMap::Build(*i2);
  SubtreePairWalker walk;
  auto spent = [&](NodeId y) {
    return m.HasT2(y) || tainted2[static_cast<size_t>(y)];
  };
  std::vector<NodeId> stack = {t1.root()};
  while (!stack.empty()) {
    const NodeId x = stack.back();
    stack.pop_back();
    // A seed pair settles its whole subtree (the pre-pass matches
    // wholesale), so a settled x needs neither probing nor descent. A
    // tainted x has no twin it could take, only descendants to probe.
    bool matched = m.HasT1(x);
    const int slot = matched || tainted1[static_cast<size_t>(x)]
                         ? ShareMap::kNoSlot
                         : map.Find(i1->SubtreeHash(x));
    if (slot != ShareMap::kNoSlot) {
      for (NodeId y = map.SkipSpent(slot, spent); y != kInvalidNode;
           y = map.Next(y)) {
        if (spent(y)) continue;
        if ((x == t1.root()) != (y == t2.root())) continue;
        if (!walk.Identical(t1, x, t2, y)) continue;
        walk.Match(t1, x, t2, y, &m);
        TaintAncestors(t1, x, &tainted1);
        TaintAncestors(t2, y, &tainted2);
        matched = true;
        break;
      }
    }
    if (!matched) {
      const auto& kids = t1.children(x);
      for (auto kit = kids.rbegin(); kit != kids.rend(); ++kit) {
        stack.push_back(*kit);
      }
    }
  }

  // GenerateEditScript needs the roots matched to each other.
  if (!m.HasT1(t1.root()) && !m.HasT2(t2.root()) &&
      t1.label(t1.root()) == t2.label(t2.root())) {
    m.Add(t1.root(), t2.root());
  }

  // Pass 2: leftover leaves by exact (label, value), document order.
  // Pass 3: leftover internal nodes by label alone, document order.
  // Nodes only ever become matched here, so each bucket keeps a cursor
  // past its matched front instead of rescanning from the start.
  struct Bucket {
    std::vector<NodeId> nodes;
    size_t front = 0;
  };
  std::map<std::pair<LabelId, std::string>, Bucket> leaves2;
  std::map<LabelId, Bucket> internal2;
  for (NodeId y : i2->PreOrder()) {
    if (m.HasT2(y) || y == t2.root()) continue;
    if (t2.IsLeaf(y)) {
      leaves2[{t2.label(y), t2.value(y)}].nodes.push_back(y);
    } else {
      internal2[t2.label(y)].nodes.push_back(y);
    }
  }
  auto take_first_free = [&m](Bucket& bucket) {
    while (bucket.front < bucket.nodes.size() &&
           m.HasT2(bucket.nodes[bucket.front])) {
      ++bucket.front;
    }
    return bucket.front < bucket.nodes.size() ? bucket.nodes[bucket.front]
                                              : kInvalidNode;
  };
  for (NodeId x : i1->PreOrder()) {
    if (m.HasT1(x) || x == t1.root()) continue;
    NodeId y = kInvalidNode;
    if (t1.IsLeaf(x)) {
      auto it = leaves2.find({t1.label(x), t1.value(x)});
      if (it != leaves2.end()) y = take_first_free(it->second);
    } else {
      auto it = internal2.find(t1.label(x));
      if (it != internal2.end()) y = take_first_free(it->second);
    }
    if (y != kInvalidNode) m.Add(x, y);
  }
  return m;
}

std::optional<std::string> ValuePrefixKey(const Tree& tree, NodeId node) {
  const std::string& value = tree.value(node);
  constexpr std::string_view kPrefix = "key=";
  if (value.size() <= kPrefix.size() ||
      std::string_view(value).substr(0, kPrefix.size()) != kPrefix) {
    return std::nullopt;
  }
  const size_t end = value.find(' ', kPrefix.size());
  return value.substr(kPrefix.size(), end == std::string::npos
                                          ? std::string::npos
                                          : end - kPrefix.size());
}

}  // namespace treediff
