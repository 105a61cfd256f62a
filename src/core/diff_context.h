#ifndef TREEDIFF_CORE_DIFF_CONTEXT_H_
#define TREEDIFF_CORE_DIFF_CONTEXT_H_

#include <memory>

#include "core/compare.h"
#include "core/cost_model.h"
#include "core/criteria.h"
#include "core/matching.h"
#include "tree/schema.h"
#include "tree/tree.h"
#include "tree/tree_index.h"
#include "util/budget.h"

namespace treediff {

/// The rungs of the degradation ladder, best first. DiffTrees starts at
/// DiffOptions::start_rung and steps DOWN whenever the budget exhausts, so a
/// budgeted call always returns OK with *some* conforming script rather than
/// failing on a large or adversarial input:
///
///  * kOptimalZs — the Zhang-Shasha optimal baseline (Section 2). Opt-in:
///    O(n^2 log^2 n) time and an O(n^2) DP table. Skipped up front when the
///    budget's explicit caps cannot possibly fit its cost.
///  * kFastMatch — the paper's two-phase method: the criteria-based matcher
///    (FastMatch, or Match when use_fast_match = false) + EditScript. The
///    default rung; with no budget this is exactly the pre-budget pipeline.
///  * kKeyedStructural — ComputeStructuralMatch: exact-subtree hashing plus
///    label/value bucketing, O(n log n), no value comparisons. Runs without
///    consulting the (already exhausted) budget.
///  * kTopLevelReplace — root-only matching: the script deletes every old
///    node and inserts every new one. O(n), the rung of last resort.
///
/// Each rung is implemented by a Matcher (see matcher.h); MatcherForRung
/// maps a rung to its implementation.
enum class DiffRung {
  kOptimalZs = 0,
  kFastMatch = 1,
  kKeyedStructural = 2,
  kTopLevelReplace = 3,
};

/// "OptimalZs", "FastMatch", "KeyedStructural", or "TopLevelReplace".
const char* DiffRungName(DiffRung rung);

/// How the share-map pre-pass (core/share_map.h) runs before the matcher
/// ladder. The pre-pass wholesale-matches identical subtrees so the
/// matchers and the script generator only work the unsettled remainder:
///
///  * kOff — no pre-pass; the matchers solve the whole trees (the exact
///    pre-share pipeline, byte-stable with it).
///  * kReference — the pre-pass decision rule evaluated by direct subtree
///    comparison (no fingerprint index). O(n^2) worst case; exists as the
///    verification baseline the pruned path is byte-compared against.
///  * kIndexed — the same decision rule answered through the per-diff
///    share-map (combined subtree fingerprints -> document-order node
///    chains, every candidate re-verified by actual subtree comparison).
///    Produces the identical matching to kReference by construction —
///    identical subtrees always share a fingerprint, chains preserve
///    document order, and their cursors only pass nodes the rule excludes
///    for good — at O(n + shared bytes) cost, duplicates included.
enum class ShareMode { kOff, kReference, kIndexed };

/// Options controlling the end-to-end change-detection pipeline.
struct DiffOptions {
  /// Matching Criterion 1 threshold f (leaves; 0 <= f <= 1).
  double leaf_threshold_f = 0.5;

  /// Matching Criterion 2 threshold t (internal nodes; 1/2 <= t <= 1). The
  /// paper's "match threshold" parameter, swept in Table 1.
  double internal_threshold_t = 0.6;

  /// Use Algorithm FastMatch (Section 5.3); when false, the simple Algorithm
  /// Match (Section 5.2) is used instead.
  bool use_fast_match = true;

  /// Run the Section 8 post-processing pass that repairs mismatches caused
  /// by Matching Criterion 3 violations.
  bool post_process = true;

  /// Run the context-completion pass (see CompleteContextMatching): under
  /// matched parents, pair leftover same-label children in order so short
  /// data values ("<price>12</price>" -> "<price>10</price>") surface as
  /// updates rather than delete+insert. Recommended for data-bearing XML;
  /// off by default to keep the paper's document behaviour.
  bool complete_context = false;

  /// Comparator for leaf values; when null, a WordLcsComparator owned by the
  /// DiffContext is used (the LaDiff sentence metric, Section 7).
  const ValueComparator* comparator = nullptr;

  /// The token memo that default comparator tokenizes through, so values
  /// seen by earlier diffs are not tokenized again (the service lends one
  /// memo to every request and commit). Null gives the comparator a private
  /// memo that lives for the call. Unused when `comparator` is set. Must
  /// outlive the call; it is thread-safe, so concurrent diffs may share it.
  TokenMemo* token_memo = nullptr;

  /// Optional label schema; when set, FastMatch processes label chains in
  /// ascending rank order (deterministic and cache-friendly for documents).
  const LabelSchema* schema = nullptr;

  /// Optional general cost model (Section 3.2): prices inserts, deletes,
  /// and moves per node; null = the paper's unit costs. Affects the script
  /// cost accounting, not which operations are chosen.
  const CostModel* cost_model = nullptr;

  /// The Section 9 A(k) optimality/efficiency knob: bound on candidates
  /// examined per node in FastMatch's quadratic fallback (0 = exhaustive).
  /// Smaller values cap the worst case; out-of-order matches beyond the
  /// window are then represented as delete+insert instead of moves.
  int fallback_limit_k = 0;

  /// Optional pre-built indexes over the trees being diffed (the service's
  /// TreeCache hands out warmed indexes over frozen cached trees). When
  /// non-null and actually indexing the tree passed to DiffTrees, the
  /// DiffContext borrows the index instead of building its own — repeated
  /// diffs against a hot base skip the per-tree traversal precompute
  /// entirely. A borrowed index must outlive the call; for cross-thread
  /// sharing it must be warmed (TreeIndex::WarmAll) and its tree frozen.
  const TreeIndex* index1 = nullptr;
  const TreeIndex* index2 = nullptr;

  /// Optional resource budget (deadline / node / comparison / arena caps).
  /// Null means unlimited — the exact pre-budget pipeline, bit-identical
  /// outputs. Non-null makes DiffTrees degrade down the DiffRung ladder on
  /// exhaustion instead of running unbounded; the taken rung is returned
  /// in DiffResult::report, and the budget keeps its own counters and the
  /// limit that tripped. The budget must outlive the call
  /// and must not be shared with a concurrent pipeline invocation.
  const Budget* budget = nullptr;

  /// Where on the ladder to start. The default, kFastMatch, is the paper's
  /// pipeline; kOptimalZs buys the optimal-baseline script when the budget
  /// affords it; the lower rungs force a cheap match up front.
  DiffRung start_rung = DiffRung::kFastMatch;

  /// Share-map pre-pass mode (see ShareMode). kOff preserves the exact
  /// pre-share pipeline; kIndexed is the incremental fast path. The
  /// pre-pass runs uncharged (its work is bounded, like the low ladder
  /// rungs) but is skipped entirely when the budget is already exhausted.
  ShareMode share_mode = ShareMode::kOff;

  /// A phase-1 matching to reuse verbatim: the matcher ladder is skipped
  /// and script generation runs directly on a copy of this matching, with
  /// no settled region skipped. The caller asserts it was produced by
  /// DiffTrees over these same two trees (same node-id spaces), which makes
  /// the re-diff byte-identical by construction. Must outlive the call.
  /// Ignored when null. The service caches finished answers instead; the
  /// perfbench replay (perfbench/driver.cc) compiles against this field
  /// to mirror the server's cache hits.
  const Matching* reuse_matching = nullptr;
};

/// Everything one DiffTrees invocation shares across its stages: the two
/// input trees with one TreeIndex each (built once, consumed by matching,
/// criteria evaluation, Zhang-Shasha, and script generation), the resolved
/// comparator, the criteria evaluator with its instrumentation counters,
/// and the caller's options/budget/cost model. Matchers receive a const
/// DiffContext& (see matcher.h) rather than raw trees, so no stage redoes
/// per-tree traversal precomputation.
///
/// The context borrows `t1`, `t2`, and everything referenced by `options`;
/// all must outlive it. One context is not thread-safe (its counters and
/// any *owned* indexes mutate under the hood), but two contexts over the
/// same frozen trees with warmed borrowed indexes (DiffOptions::index1/2)
/// may run concurrently — the arrangement the DiffService relies on.
class DiffContext {
 public:
  DiffContext(const Tree& t1, const Tree& t2, const DiffOptions& options);

  const Tree& t1() const { return t1_; }
  const Tree& t2() const { return t2_; }
  const DiffOptions& options() const { return options_; }
  const TreeIndex& index1() const { return *index1_; }
  const TreeIndex& index2() const { return *index2_; }

  /// The caller's comparator, or the owned default WordLcsComparator.
  const ValueComparator& comparator() const { return *comparator_; }

  const CriteriaEvaluator& evaluator() const { return evaluator_; }

  const Budget* budget() const { return options_.budget; }

 private:
  const Tree& t1_;
  const Tree& t2_;
  DiffOptions options_;
  std::unique_ptr<WordLcsComparator> owned_comparator_;
  const ValueComparator* comparator_;
  // Built here unless DiffOptions::index1/index2 lend pre-built ones (the
  // tree-cache fast path); index1_/index2_ point at whichever is in use.
  std::unique_ptr<TreeIndex> owned_index1_;
  std::unique_ptr<TreeIndex> owned_index2_;
  const TreeIndex* index1_;
  const TreeIndex* index2_;
  CriteriaEvaluator evaluator_;
};

}  // namespace treediff

#endif  // TREEDIFF_CORE_DIFF_CONTEXT_H_
