#ifndef TREEDIFF_CORE_EDIT_SCRIPT_GEN_H_
#define TREEDIFF_CORE_EDIT_SCRIPT_GEN_H_

#include <utility>
#include <vector>

#include "core/compare.h"
#include "core/cost_model.h"
#include "core/edit_script.h"
#include "core/matching.h"
#include "tree/tree.h"
#include "util/budget.h"
#include "util/status.h"

namespace treediff {

/// Output of Algorithm EditScript.
struct EditScriptResult {
  /// The minimum-cost edit script conforming to the input matching. Node ids
  /// refer to the old tree; inserted nodes receive fresh ids in application
  /// order, so `script.ApplyTo` on a clone of the old tree reproduces the
  /// transformation.
  EditScript script;

  /// The old tree after applying the script; isomorphic to the new tree.
  Tree transformed;

  /// Weighted edit distance e (Section 5.3): inserts and deletes weigh 1,
  /// a move weighs the number of leaves of the moved subtree, updates 0.
  size_t weighted_edit_distance = 0;

  /// Align-phase moves (the paper's intra-parent moves; their minimum count
  /// is the number of misaligned nodes D in the O(ND) bound).
  size_t intra_parent_moves = 0;

  /// Moves generated because the parents of a matched pair are not matched.
  size_t inter_parent_moves = 0;
};

/// Algorithm EditScript (Section 4, Figures 8 and 9): given the old tree
/// `t1`, the new tree `t2`, and a (partial) matching between them, produces
/// a minimum-cost edit script that conforms to the matching and transforms
/// `t1` into a tree isomorphic to `t2` (Theorem C.2). Runs in O(ND) time,
/// N = total nodes, D = misaligned nodes.
///
/// Requirements (checked, returning FailedPrecondition on violation):
///  * both trees share one LabelTable and are non-empty;
///  * every matched pair has equal labels (no edit operation relabels);
///  * the roots are matched to each other — except that if both roots are
///    unmatched and carry equal labels the pair is added automatically. For
///    trees whose roots cannot match, wrap both with Tree::WrapRoot (the
///    paper's dummy-root device) before diffing.
///
/// `update_cost_comparator`, if non-null, prices each update as
/// compare(old, new) per the Section 3.2 cost model; otherwise updates cost 1.
///
/// `use_lcs_alignment` selects the AlignChildren strategy: true (default)
/// uses the paper's LCS-based minimum-move alignment (Lemma C.1); false
/// uses a greedy increasing-chain alignment, kept as the ablation baseline
/// showing why the LCS matters (it can emit far more intra-parent moves on
/// adversarial orders while remaining correct).
/// `cost_model`, if non-null, prices inserts/deletes/moves per the general
/// Section 3.2 model (see CostModel); null means unit costs.
///
/// `budget`, if non-null, is charged one node per T2 node scanned and per
/// working-tree node in the delete phase (settled interiors included,
/// though that phase's walk skips them); on exhaustion generation
/// stops and the budget's kResourceExhausted/kDeadlineExceeded status is
/// returned (the partially built script is discarded — a partial edit script
/// does not conform to the matching and must never be applied).
///
/// When `t2` carries an attached TreeIndex (the DiffContext pipeline), its
/// BFS order is consumed instead of re-traversing. The mutating working copy
/// of `t1` gets its own index, which serves O(1) child positions and subtree
/// leaf counts throughout generation; when `t1` carries an attached index,
/// that index's scalar tier is copied instead of recomputed.
///
/// `settled_subtrees`, if non-null, lists (t1, t2) root pairs of regions the
/// share-map pre-pass matched wholesale and that survived the repair passes
/// intact (core/share_map.h FilterIntactSettled): every pair inside is in
/// `matching`, values are byte-equal, and child order agrees. The BFS scan
/// skips the *interiors* of those regions — for such nodes the update, move,
/// and align phases are provably no-ops, so the skip cannot change the
/// script. The region roots are still visited (they may move as a unit and
/// participate in their parent's alignment), but their own children are
/// not aligned: they are the interior, already matched in order. The delete
/// phase does not walk the interiors either: they hold no unmatched node.
/// Under the weighted-alignment strategy (use_lcs_alignment with a
/// cost_model) skipping is disabled: a degenerate cost model with zero move
/// costs makes the heaviest-subsequence alignment emit zero-cost moves even
/// inside identical regions, and byte-identity outranks the speedup there.
StatusOr<EditScriptResult> GenerateEditScript(
    const Tree& t1, const Tree& t2, const Matching& matching,
    const ValueComparator* update_cost_comparator = nullptr,
    bool use_lcs_alignment = true, const CostModel* cost_model = nullptr,
    const Budget* budget = nullptr,
    const std::vector<std::pair<NodeId, NodeId>>* settled_subtrees = nullptr);

}  // namespace treediff

#endif  // TREEDIFF_CORE_EDIT_SCRIPT_GEN_H_
