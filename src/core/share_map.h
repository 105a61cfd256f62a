#ifndef TREEDIFF_CORE_SHARE_MAP_H_
#define TREEDIFF_CORE_SHARE_MAP_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/diff_context.h"
#include "core/matching.h"
#include "tree/tree.h"
#include "tree/tree_index.h"

namespace treediff {

/// Exact subtree equality (labels, values, sibling order) — the collision
/// guard behind every fingerprint bucket. Both trees must share one
/// LabelTable (checked by the pipeline entry points).
bool SubtreesIdentical(const Tree& t1, NodeId x, const Tree& t2, NodeId y);

/// Matches every node of two identical subtrees pairwise. The subtrees must
/// satisfy SubtreesIdentical and both sides must be entirely unmatched.
void MatchSubtreePair(const Tree& t1, NodeId x, const Tree& t2, NodeId y,
                      Matching* m);

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

/// The per-diff share-map: combined subtree fingerprint (TreeIndex::
/// SubtreeHash — structural and literal hashes mixed) -> the T2 nodes
/// carrying it, in document order. Lookups answer "which new-tree subtrees
/// could be byte-identical to this old-tree subtree" in O(1); the caller
/// must re-verify every candidate with SubtreesIdentical, so a fingerprint
/// collision can never place a wrong pair in the matching.
class ShareMap {
 public:
  /// Builds the map over every live node of the indexed tree. Forces the
  /// index's fingerprint tier.
  static ShareMap Build(const TreeIndex& index);

  /// Document-order nodes whose subtree fingerprint is `fingerprint`, or
  /// null when the map holds none.
  const std::vector<NodeId>* Candidates(uint64_t fingerprint) const {
    auto it = buckets_.find(fingerprint);
    return it == buckets_.end() ? nullptr : &it->second;
  }

  /// Appends `y` to the bucket of `fingerprint` without hashing any
  /// subtree. Exists so tests can plant a deliberate "collision" (a node
  /// whose subtree does NOT hash to the bucket it sits in) and prove the
  /// verification step rejects it.
  void AddForTest(uint64_t fingerprint, NodeId y) {
    buckets_[fingerprint].push_back(y);
  }

  size_t bucket_count() const { return buckets_.size(); }

 private:
  std::unordered_map<uint64_t, std::vector<NodeId>> buckets_;
};

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
/// only selects how candidates are found. true (kIndexed) probes the
/// share-map built over ctx.index2() and verifies each candidate; false
/// (kReference) scans T2 in document order behind cheap scalar filters
/// (label, subtree size, leaf count) and compares directly. Identical
/// subtrees always share a fingerprint and buckets preserve document order,
/// so both implementations settle the exact same pairs — the property the
/// pruned-vs-unpruned byte-identity tests pin down.
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
