#ifndef TREEDIFF_CORE_DIFF_H_
#define TREEDIFF_CORE_DIFF_H_

#include <string>

#include "core/compare.h"
#include "core/cost_model.h"
#include "core/delta_tree.h"
#include "core/diff_context.h"
#include "core/edit_script.h"
#include "core/edit_script_gen.h"
#include "core/matching.h"
#include "tree/schema.h"
#include "tree/tree.h"
#include "util/budget.h"
#include "util/status.h"

namespace treediff {

/// What a DiffTrees call did: where it landed on the ladder, what it
/// counted (the Section 8 quantities), and how it spent its budget.
/// (DiffRung, DiffRungName, and DiffOptions live in diff_context.h.)
struct DiffReport {
  /// The rung that produced the returned script.
  DiffRung rung = DiffRung::kFastMatch;

  /// True if `rung` is below DiffOptions::start_rung (the budget forced a
  /// step down). Why it tripped is on the caller's DiffOptions::budget
  /// (exhaustion_code(), exhaustion_detail()), as are its counters.
  bool degraded = false;

  /// Leaf compare() invocations (r1 in Section 8) and partner checks (r2)
  /// during phase 1: the matcher ladder and the repair passes.
  size_t compare_calls = 0;
  size_t partner_checks = 0;

  /// Pairs repaired by the post-processing pass and pairs added by the
  /// context-completion pass.
  size_t post_process_rematched = 0;
  size_t context_completed = 0;

  /// The returned script's moves by kind (EditScriptResult) and its weighted
  /// edit distance e (Section 5.3). Per-op counts, the unweighted distance d
  /// and the cost are read from DiffResult::script itself (num_inserts(),
  /// num_deletes(), num_updates(), num_moves(), size(), TotalCost()).
  size_t intra_parent_moves = 0;
  size_t inter_parent_moves = 0;
  size_t weighted_edit_distance = 0;

  /// Wall-clock seconds spent in matching (phase 1, with the pre-pass and
  /// repair passes) and in script generation (phase 2).
  double match_seconds = 0.0;
  double script_seconds = 0.0;

  /// Share-map pre-pass counters (DiffOptions::share_mode != kOff): subtrees
  /// (and nodes) settled wholesale before the matcher ladder ran, and
  /// fingerprint collisions rejected by the byte-wise verification.
  size_t prune_settled_subtrees = 0;
  size_t prune_settled_nodes = 0;
  size_t prune_collisions = 0;
};

/// Result of the end-to-end pipeline.
struct DiffResult {
  /// The "good matching" over original t1/t2 ids (input to EditScript).
  Matching matching;

  /// The minimum-cost conforming edit script.
  EditScript script;

  /// Ladder rung taken, pipeline counters and timings (see DiffReport).
  DiffReport report;
};

/// End-to-end change detection (the paper's two-phase method): computes a
/// good matching between `t1` (old) and `t2` (new) under the criteria in
/// `options`, then generates a minimum-cost conforming edit script.
///
/// Internally builds one DiffContext — a TreeIndex per tree plus the
/// resolved comparator and criteria evaluator — and dispatches matching
/// through the Matcher registry (matcher.h), stepping down the DiffRung
/// ladder on budget exhaustion.
///
/// The trees must share one LabelTable. If the roots do not match under the
/// criteria but carry equal labels they are matched anyway (the standard
/// device for document trees, whose roots always correspond); trees with
/// differently-labeled roots must be wrapped (Tree::WrapRoot) by the caller.
StatusOr<DiffResult> DiffTrees(const Tree& t1, const Tree& t2,
                               const DiffOptions& options = {});

/// Convenience: builds the delta tree for a DiffResult (Section 6).
StatusOr<DeltaTree> BuildDeltaTree(const Tree& t1, const Tree& t2,
                                   const DiffResult& result);

}  // namespace treediff

#endif  // TREEDIFF_CORE_DIFF_H_
