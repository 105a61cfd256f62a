#include "core/diff.h"

#include <optional>
#include <utility>
#include <vector>

#include "core/matcher.h"
#include "core/post_process.h"
#include "core/share_map.h"
#include "util/timer.h"

namespace treediff {

StatusOr<DiffResult> DiffTrees(const Tree& t1, const Tree& t2,
                               const DiffOptions& options) {
  if (t1.root() == kInvalidNode || t2.root() == kInvalidNode) {
    return Status::InvalidArgument("both trees must be non-empty");
  }
  if (t1.label_table().get() != t2.label_table().get()) {
    return Status::InvalidArgument(
        "trees being diffed must share one LabelTable");
  }
  if (options.leaf_threshold_f < 0.0 || options.leaf_threshold_f > 1.0) {
    return Status::InvalidArgument("leaf_threshold_f must be in [0, 1]");
  }
  if (options.internal_threshold_t < 0.5 ||
      options.internal_threshold_t > 1.0) {
    return Status::InvalidArgument(
        "internal_threshold_t must be in [1/2, 1]");
  }

  // One shared context: a TreeIndex per tree, the resolved comparator, and
  // the criteria evaluator. Every stage below reads these instead of
  // re-deriving per-tree state.
  DiffContext ctx(t1, t2, options);
  const Budget* budget = ctx.budget();

  DiffReport report;
  WallTimer timer;

  // Phase 1: the Good Matching problem (Section 5), run down the DiffRung
  // ladder through the Matcher registry. A rung produces a matching only if
  // the budget held for its whole run; a declined rung (budget pre-flight
  // failure or mid-run exhaustion — a partial matching is discarded) steps
  // the ladder down one rung. The bounded rungs (kKeyedStructural,
  // kTopLevelReplace) never decline — they run without the
  // (sticky-exhausted) budget; they are O(n log n) / O(n), which is the
  // degradation contract: bounded work instead of an error.
  DiffRung rung = options.start_rung;
  std::optional<Matching> matching;
  std::vector<std::pair<NodeId, NodeId>> settled;
  const bool reused = options.reuse_matching != nullptr;
  if (reused) {
    // The caller vouches that this matching was produced by a prior
    // DiffTrees over byte-identical trees, so phase 1 is skipped outright
    // and generation proceeds from the given matching. No region is
    // settled, so generation scans every node: same script, more work.
    matching = *options.reuse_matching;
  } else {
    // The share-map pre-pass settles byte-identical subtrees wholesale
    // before the ladder runs, shrinking every matcher's working set to the
    // unsettled frontier. It runs uncharged (like the bounded low rungs) and
    // only while the budget still holds, so a budget-tripped request
    // degrades exactly as it would have without the pre-pass.
    Matching seed(t1.id_bound(), t2.id_bound());
    if (options.share_mode != ShareMode::kOff && BudgetOk(budget)) {
      ShareStats share;
      seed = PrematchSharedSubtrees(
          ctx, options.share_mode == ShareMode::kIndexed, &share, &settled);
      report.prune_settled_subtrees = share.settled_subtrees;
      report.prune_settled_nodes = share.settled_nodes;
      report.prune_collisions = share.collisions;
    }
    for (;;) {
      MatchResult attempt = MatcherForRung(rung).Run(ctx, seed);
      if (attempt.matching.has_value()) {
        matching = std::move(attempt.matching);
        break;
      }
      rung = static_cast<DiffRung>(static_cast<int>(rung) + 1);
    }
  }

  // The roots of the trees being compared always correspond (the generator
  // would add the pair anyway); making it explicit here lets the post
  // passes treat the root as matched context.
  if (matching->PartnerOfT2(t2.root()) != t1.root() &&
      !matching->HasT1(t1.root()) && !matching->HasT2(t2.root()) &&
      t1.label(t1.root()) == t2.label(t2.root())) {
    matching->Add(t1.root(), t2.root());
  }
  // The repair passes consult the criteria (and hence the budget); with an
  // exhausted budget they would no-op at best, and a requested
  // kTopLevelReplace must stay a bare replace. A reused matching is already
  // a phase-1 final product — re-running the passes could perturb it.
  if (!reused && BudgetOk(budget) &&
      rung != DiffRung::kTopLevelReplace) {
    if (options.post_process) {
      report.post_process_rematched =
          PostProcessMatching(t1, t2, ctx.evaluator(), &matching.value());
    }
    if (options.complete_context) {
      report.context_completed =
          CompleteContextMatching(t1, t2, &matching.value());
    }
  }
  // The repair passes may have re-paired nodes inside a settled region; the
  // generator may only skip regions that survived intact. Only kIndexed
  // forwards the settled list: kReference deliberately generates over the
  // full trees, so the byte-identity discipline (reference vs indexed)
  // exercises the generator's interior-skipping as well as the share-map.
  if (options.share_mode != ShareMode::kIndexed) {
    settled.clear();
  } else {
    FilterIntactSettled(t1, t2, *matching, &settled);
  }
  report.match_seconds = timer.ElapsedSeconds();
  report.compare_calls = ctx.evaluator().compare_calls();
  report.partner_checks = ctx.evaluator().partner_checks();

  // Phase 2: the Minimum Conforming Edit Script problem (Section 4). The
  // generator gets the budget only while it still holds — once exhausted
  // the remaining work is already bounded and must run to completion.
  timer.Restart();
  const Budget* gen_budget =
      (budget != nullptr && budget->exhausted()) ? nullptr : budget;
  StatusOr<EditScriptResult> gen =
      GenerateEditScript(t1, t2, *matching, &ctx.comparator(),
                         /*use_lcs_alignment=*/true, options.cost_model,
                         gen_budget, settled.empty() ? nullptr : &settled);
  if (!gen.ok() && IsExhaustion(gen.status().code())) {
    // The budget tripped mid-generation: fall to the last rung. Root-only
    // matching makes generation O(n); run it budget-free. The settled list
    // belongs to the discarded matching, so it must not be forwarded.
    rung = DiffRung::kTopLevelReplace;
    matching = RootOnlyMatching(t1, t2);
    settled.clear();
    gen = GenerateEditScript(t1, t2, *matching, &ctx.comparator(),
                             /*use_lcs_alignment=*/true, options.cost_model,
                             /*budget=*/nullptr);
  }
  if (!gen.ok()) return gen.status();
  report.script_seconds = timer.ElapsedSeconds();
  report.intra_parent_moves = gen->intra_parent_moves;
  report.inter_parent_moves = gen->inter_parent_moves;
  report.weighted_edit_distance = gen->weighted_edit_distance;

  report.rung = rung;
  report.degraded =
      static_cast<int>(rung) > static_cast<int>(options.start_rung);

  DiffResult result{std::move(*matching), std::move(gen->script),
                    std::move(report)};
  return result;
}

StatusOr<DeltaTree> BuildDeltaTree(const Tree& t1, const Tree& t2,
                                   const DiffResult& result) {
  return BuildDeltaTree(t1, t2, result.matching, result.script);
}

}  // namespace treediff
