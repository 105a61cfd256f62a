#ifndef TREEDIFF_CORE_SHARE_MAP_H_
#define TREEDIFF_CORE_SHARE_MAP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/diff_context.h"
#include "core/matching.h"
#include "tree/tree.h"
#include "tree/tree_index.h"

namespace treediff {

/// Lockstep walks over a T1 subtree and a T2 subtree. One walker keeps one
/// stack for every call it serves, so a pass that walks thousands of
/// subtree pairs allocates once. Both trees must share one LabelTable
/// (checked by the pipeline entry points).
class SubtreePairWalker {
 public:
  /// Exact subtree equality (labels, values, sibling order) — the collision
  /// guard behind every fingerprint chain.
  bool Identical(const Tree& t1, NodeId x, const Tree& t2, NodeId y);

  /// Matches every node of two identical subtrees pairwise. The subtrees
  /// must satisfy Identical and both sides must be entirely unmatched.
  void Match(const Tree& t1, NodeId x, const Tree& t2, NodeId y,
             Matching* m);

  /// True when every node of x's subtree is paired in `m` with the node at
  /// the same position of y's, and the two subtrees have the same shape.
  bool Intact(const Tree& t1, NodeId x, const Tree& t2, NodeId y,
              const Matching& m);

 private:
  std::vector<std::pair<NodeId, NodeId>> stack_;
};

/// Per-run counters of the share-map pre-pass, surfaced in
/// DiffResult::report and the service metrics registry.
struct ShareStats {
  /// Wholesale subtree pairs the pre-pass settled.
  size_t settled_subtrees = 0;

  /// Nodes covered by those pairs (per side).
  size_t settled_nodes = 0;

  /// Candidates whose fingerprint (or cheap filters, in reference mode)
  /// agreed but whose actual subtree comparison did not — the hash clashes
  /// the verification discipline exists to absorb.
  size_t collisions = 0;
};

/// The per-run share-map: combined subtree fingerprint (TreeIndex::
/// SubtreeHash — structural and literal hashes mixed) -> the chain of T2
/// nodes carrying it, in document order. It is one flat open-addressed
/// table of (fingerprint, head, cursor) slots plus one `next` link per
/// node, filled in a single pass over PreOrder(). The caller must
/// re-verify every candidate with SubtreePairWalker::Identical, so a
/// fingerprint collision can never place a wrong pair in the matching.
///
/// Each slot carries a cursor that only moves forward. A consumer calls
/// SkipSpent with its own rule for nodes that can never be candidates
/// again (the pre-pass: the root, matched and tainted nodes; the
/// structural matcher: matched and tainted nodes), so duplicate content
/// costs one step per node over the whole run instead of a rescan of the
/// chain per lookup. The rule must only ever grow to hold for more
/// nodes; the cursor then always rests on the first node the rule still
/// admits, and every decision equals a scan from the chain's head. A map
/// serves one run.
class ShareMap {
 public:
  static constexpr int kNoSlot = -1;

  /// Builds the map over every live node of the indexed tree. Forces the
  /// index's fingerprint tier.
  static ShareMap Build(const TreeIndex& index);

  /// The slot of `fingerprint`'s chain, or kNoSlot when no node carries it.
  int Find(uint64_t fingerprint) const;

  /// Moves the slot's cursor past every front node for which `spent`
  /// holds and returns the new front (kInvalidNode when the chain is used
  /// up). The slot stays occupied either way: an exhausted cursor never
  /// ends a probe sequence.
  template <typename Spent>
  NodeId SkipSpent(int slot, const Spent& spent) {
    NodeId& front = slots_[static_cast<size_t>(slot)].cursor;
    while (front != kInvalidNode && spent(front)) {
      front = next_[static_cast<size_t>(front)];
    }
    return front;
  }

  /// The node after `y` in its chain, or kInvalidNode.
  NodeId Next(NodeId y) const { return next_[static_cast<size_t>(y)]; }

  /// Prepends `y` to the chain of `fingerprint` without hashing any
  /// subtree, rewriting Next(y). Exists so tests can plant a deliberate
  /// "collision" (a node whose subtree does NOT hash to the chain it sits
  /// in) and prove the verification step rejects it; plant only a node
  /// that ends its own chain.
  void AddForTest(uint64_t fingerprint, NodeId y) { Insert(fingerprint, y); }

 private:
  /// A slot is occupied iff `head` is a node. `cursor` starts at `head`
  /// and may run off the chain's end without emptying the slot.
  struct Slot {
    uint64_t fingerprint = 0;
    NodeId head = kInvalidNode;
    NodeId cursor = kInvalidNode;
  };

  size_t Home(uint64_t fingerprint) const {
    return static_cast<size_t>((fingerprint * 0x9E3779B97F4A7C15ULL) >>
                               shift_);
  }
  void Insert(uint64_t fingerprint, NodeId y);

  std::vector<Slot> slots_;
  std::vector<NodeId> next_;
  int shift_ = 63;
};

/// Marks every proper ancestor of `v` in `tainted` (indexed by NodeId),
/// stopping at the first one already marked. Kept as "the proper ancestors
/// of matched nodes", the set is closed upward, so the stop is exact and
/// marking costs O(n) over a whole pass.
void TaintAncestors(const Tree& t, NodeId v, std::vector<char>* tainted);

/// The pruned-matching pre-pass: walks T1 top-down and wholesale-matches
/// every maximal subtree that has a byte-identical, still-unmatched twin in
/// T2, greedily in document order on both sides. Roots are never settled
/// (the generator owns the root pairing). Returns the seed matching the
/// matcher ladder extends; `settled` (optional) receives the wholesale
/// subtree root pairs for the script generator's interior-skipping.
///
/// The decision rule — "pair x with the first non-root T2 node in document
/// order whose subtree is identical and entirely unmatched (no earlier,
/// smaller settle inside it)" — is fixed; `use_share_map`
/// only selects how candidates are found. true (kIndexed) walks the
/// share-map chain of x's fingerprint from its cursor and verifies each
/// candidate; false (kReference) scans T2 in document order behind cheap
/// scalar filters (label, subtree size, leaf count) and compares directly.
/// Identical subtrees always share a fingerprint, chains preserve document
/// order, and the cursors only pass nodes that the rule excludes for the
/// rest of the run (matches and taint only grow), so both implementations
/// settle the exact same pairs — the property the pruned-vs-unpruned
/// byte-identity tests pin down.
Matching PrematchSharedSubtrees(
    const DiffContext& ctx, bool use_share_map, ShareStats* stats,
    std::vector<std::pair<NodeId, NodeId>>* settled = nullptr);

/// Drops from `settled` every subtree pair that is no longer wholly intact
/// in `m` (the post-matching repair passes may re-pair nodes inside a
/// settled region). The generator may only skip interiors that are still
/// perfectly paired, so the settled list must be re-validated after any
/// pass that edits the matching.
void FilterIntactSettled(const Tree& t1, const Tree& t2, const Matching& m,
                         std::vector<std::pair<NodeId, NodeId>>* settled);

}  // namespace treediff

#endif  // TREEDIFF_CORE_SHARE_MAP_H_
