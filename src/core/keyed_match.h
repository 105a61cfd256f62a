#ifndef TREEDIFF_CORE_KEYED_MATCH_H_
#define TREEDIFF_CORE_KEYED_MATCH_H_

#include <functional>
#include <optional>
#include <string>

#include "core/criteria.h"
#include "core/matching.h"
#include "tree/tree.h"

namespace treediff {

/// Extracts the key of a node, or nullopt for keyless nodes. Keys need only
/// be unique per (tree, label); different labels live in different key
/// spaces.
using KeyFn =
    std::function<std::optional<std::string>(const Tree&, NodeId)>;

/// The keyed fast path the paper describes in Sections 1 and 5: "if the
/// information we are comparing does have unique identifiers, then our
/// algorithms can take advantage of them to quickly match fragments".
///
/// Nodes whose keys agree (same label, same key, same structural kind) are
/// matched directly in O(n) — one hash lookup per node, zero compare()
/// calls. Keyless nodes (and keyed nodes whose key disappeared) are left to
/// the value-based algorithms: pass the result as the starting matching of
/// ComputeHybridMatch, which runs FastMatch over the remainder.
///
/// Duplicate keys on either side are treated as keyless (the guarantee is
/// void), so the result is always a valid one-to-one matching.
///
/// All three entry points accept an optional `seed` — the pre-matched
/// region from the share-map pre-pass (core/share_map.h). The result
/// extends a copy of the seed and never re-derives or contradicts a settled
/// pair: keyed pairs that would collide with the seed are dropped.
Matching ComputeKeyedMatch(const Tree& t1, const Tree& t2,
                           const KeyFn& key_fn,
                           const Matching* seed = nullptr);

/// Keyed pre-pass + FastMatch over the unkeyed remainder. The returned
/// matching contains every keyed pair plus the criteria-based pairs for the
/// rest; suitable as input to GenerateEditScript.
Matching ComputeHybridMatch(const Tree& t1, const Tree& t2,
                            const KeyFn& key_fn,
                            const CriteriaEvaluator& eval,
                            const Matching* seed = nullptr);

/// A ready-made KeyFn for values of the form "key=K ...": nodes whose value
/// starts with "key=" are keyed by the token following it. Mirrors how
/// database dumps carry row identifiers inline.
std::optional<std::string> ValuePrefixKey(const Tree& tree, NodeId node);

/// A cheap purely structural matcher used as the degradation ladder's
/// next-to-last rung (core/diff.h): no value comparisons, no criteria
/// evaluation, O(n log n) worst case, so it runs to completion even when a
/// Budget has already exhausted.
///
///  1. Identical subtrees (labels, values, shapes) are matched greedily in
///     document order, all descendants at once, through the share-map's
///     subtree-fingerprint chains (core/share_map.h). A subtree pairs only
///     when no node of it is matched yet on either side.
///  2. Leftover leaves are matched by exact (label, value) in document order.
///  3. Leftover internal nodes are matched by label in document order.
///
/// Every fingerprint chain and bucket keeps a cursor past its matched front,
/// so duplicate content costs one step per node, not a rescan per lookup.
///
/// The result is a valid matching for GenerateEditScript (labels of every
/// pair agree) but can be far from minimal — unlike FastMatch it never pays
/// for near-miss matches, so heavily edited nodes become delete+insert.
Matching ComputeStructuralMatch(const Tree& t1, const Tree& t2,
                                const Matching* seed = nullptr);

}  // namespace treediff

#endif  // TREEDIFF_CORE_KEYED_MATCH_H_
