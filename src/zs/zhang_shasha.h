#ifndef TREEDIFF_ZS_ZHANG_SHASHA_H_
#define TREEDIFF_ZS_ZHANG_SHASHA_H_

#include <utility>
#include <vector>

#include "core/compare.h"
#include "tree/tree.h"
#include "tree/tree_index.h"
#include "util/budget.h"

namespace treediff {

/// Cost model for the Zhang-Shasha tree edit distance. The ZS operations are
/// node insert, node delete (children are promoted to the deleted node's
/// parent — the more general delete the paper contrasts with in Section 2),
/// and relabel/update.
struct ZsOptions {
  double insert_cost = 1.0;
  double delete_cost = 1.0;

  /// Cost of turning one node into another when their labels are equal. If
  /// `comparator` is null: 0 when values are equal, `update_cost` otherwise.
  /// If `comparator` is set, the compare() distance is used, clamped into
  /// [0, 2] per the paper's cost model.
  double update_cost = 1.0;

  /// Cost of changing a node's label (our edit model never relabels; setting
  /// this above delete+insert makes ZS behave comparably).
  double relabel_cost = 2.0;

  const ValueComparator* comparator = nullptr;

  /// Optional resource budget. The solver charges the treedist table and
  /// each forest-distance matrix against the arena cap, visits against the
  /// node cap, and probes the deadline in the keyroot loops. If the budget
  /// exhausts mid-run the solver aborts: the returned distance/mapping are
  /// meaningless and callers must check `budget->exhausted()` before using
  /// them (the degradation ladder in core/diff.cc does).
  const Budget* budget = nullptr;

  /// Optional precomputed per-tree indexes (the DiffContext's). When set —
  /// or when the trees carry attached indexes — the solver's postorder view
  /// is served from the index instead of re-walking the tree.
  const TreeIndex* index1 = nullptr;
  const TreeIndex* index2 = nullptr;
};

/// Result of the Zhang-Shasha computation.
struct ZsResult {
  /// The optimal (minimum) edit distance under the ZsOptions cost model.
  double distance = 0.0;

  /// An optimal edit mapping: 1:1 pairs (x in T1, y in T2) preserving
  /// ancestor and sibling order; unmapped T1 nodes are deletions, unmapped
  /// T2 nodes insertions, mapped pairs with unequal labels/values
  /// relabels/updates.
  std::vector<std::pair<NodeId, NodeId>> mapping;
};

/// The Zhang-Shasha optimal tree edit distance [ZS89], the baseline the
/// paper compares against in Section 2. Runs in
/// O(|T1| * |T2| * min(depth1, leaves1) * min(depth2, leaves2)) time — for
/// balanced trees the O(n^2 log^2 n) the paper quotes — versus the O(ne+e^2)
/// of FastMatch + EditScript.
///
/// Both trees must be non-empty and share a LabelTable.
ZsResult ZhangShasha(const Tree& t1, const Tree& t2,
                     const ZsOptions& options = {});

/// Distance only (skips the mapping backtrack; slightly faster).
double ZhangShashaDistance(const Tree& t1, const Tree& t2,
                           const ZsOptions& options = {});

/// One move recovered from a ZS mapping: the unmapped T1 subtree `from` was
/// deleted wholesale and an isomorphic unmapped T2 subtree `to` inserted;
/// pricing the pair as one move saves `savings` cost units.
struct ZsMove {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  size_t subtree_size = 0;
  double savings = 0.0;
};

/// The [WZS95] device the paper cites in Section 2: ZS has no move
/// operation, so a relocated subtree costs delete+insert of every node; a
/// post-processing step recovers moves by pairing maximal unmapped T1
/// subtrees with isomorphic unmapped T2 subtrees (greedily, in document
/// order) and re-pricing each pair as a single unit-cost move.
struct ZsWithMovesResult {
  /// The plain ZS optimal distance.
  double base_distance = 0.0;

  /// The distance after re-pricing recovered moves
  /// (base - sum(savings)).
  double distance_with_moves = 0.0;

  std::vector<ZsMove> moves;
};

/// Runs ZhangShasha and the move-recovery post-processing step.
ZsWithMovesResult ZhangShashaWithMoves(const Tree& t1, const Tree& t2,
                                       const ZsOptions& options = {});

}  // namespace treediff

#endif  // TREEDIFF_ZS_ZHANG_SHASHA_H_
