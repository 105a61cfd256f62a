#ifndef TREEDIFF_CORE_CRITERIA_H_
#define TREEDIFF_CORE_CRITERIA_H_

#include <cstddef>
#include <memory>

#include "core/compare.h"
#include "core/matching.h"
#include "tree/tree.h"
#include "tree/tree_index.h"
#include "util/budget.h"

namespace treediff {

/// Parameters of the matching criteria (Section 5.1).
struct MatchOptions {
  /// Matching Criterion 1: leaves x, y may match only if l(x) = l(y) and
  /// compare(v(x), v(y)) <= f, with 0 <= f <= 1.
  double leaf_threshold_f = 0.5;

  /// Matching Criterion 2: internal nodes x, y may match only if l(x) = l(y)
  /// and |common(x, y)| / max(|x|, |y|) > t, with 1/2 <= t <= 1.
  double internal_threshold_t = 0.6;
};

/// Evaluates the leaf and internal equality predicates of Section 5.2 over a
/// fixed pair of trees, with the instrumentation counters the Section 8
/// evaluation reports:
///
///  * leaf compare probes (r1) — every LeafEqual call that passes the
///    label check, whether or not the comparator runs — are counted here;
///  * partner checks (r2) — the integer comparisons performed while
///    intersecting leaf descendants for |common(x, y)| — are counted here.
///
/// All per-tree precomputation (leaf counts, ancestry intervals, the leaf
/// sequence) is served by one TreeIndex per tree. In the pipeline those
/// indexes live in the DiffContext and are borrowed; the legacy tree-pair
/// constructor builds and owns a private pair for standalone use. Each
/// |common(x, y)| reads the contiguous leaf range of x from the T1 index and
/// checks each leaf's partner for containment under y in O(1).
///
/// Both trees must share one LabelTable and must not be mutated while the
/// evaluator is alive.
class CriteriaEvaluator {
 public:
  /// Standalone form: builds and owns a TreeIndex per tree. `budget`, when
  /// non-null, is charged one comparison per compare() call and per partner
  /// check; it must outlive the evaluator.
  CriteriaEvaluator(const Tree& t1, const Tree& t2,
                    const ValueComparator* comparator, MatchOptions options,
                    const Budget* budget = nullptr);

  /// Pipeline form: borrows the DiffContext's per-tree indexes (which must
  /// outlive the evaluator).
  CriteriaEvaluator(const TreeIndex& index1, const TreeIndex& index2,
                    const ValueComparator* comparator, MatchOptions options,
                    const Budget* budget = nullptr);

  /// Matching Criterion 1 for a leaf pair (x in T1, y in T2). Each call
  /// past the label check is one compare probe: charged to the budget and
  /// counted in r1. `may_pass` = false is the caller's proof (FastMatch's
  /// word-bag bound) that compare(x, y) > f: the probe is charged and
  /// counted as usual and fails without running the comparator.
  bool LeafEqual(NodeId x, NodeId y, bool may_pass = true) const;

  /// Matching Criterion 2 for an internal pair (x in T1, y in T2), given the
  /// leaf matches recorded in `m` so far.
  bool InternalEqual(NodeId x, NodeId y, const Matching& m) const;

  /// |common(x, y)| under matching `m`: the number of matched leaf pairs
  /// (w, z) with w under x and z under y.
  int CommonLeaves(NodeId x, NodeId y, const Matching& m) const;

  /// |x| for T1 / T2 nodes (number of leaf descendants; a leaf counts itself).
  int LeafCount1(NodeId x) const { return index1_->LeafCount(x); }
  int LeafCount2(NodeId y) const { return index2_->LeafCount(y); }

  /// The per-tree indexes this evaluator reads (borrowed or owned).
  const TreeIndex& index1() const { return *index1_; }
  const TreeIndex& index2() const { return *index2_; }

  const MatchOptions& options() const { return options_; }
  const ValueComparator& comparator() const { return *comparator_; }

  /// Number of leaf compare probes so far (r1).
  size_t compare_calls() const { return compare_calls_; }

  /// Number of partner checks so far (r2).
  size_t partner_checks() const { return partner_checks_; }

  const Budget* budget() const { return budget_; }

 private:
  std::unique_ptr<TreeIndex> owned_index1_;
  std::unique_ptr<TreeIndex> owned_index2_;
  const TreeIndex* index1_;
  const TreeIndex* index2_;
  const Tree& t1_;
  const Tree& t2_;
  const ValueComparator* comparator_;
  MatchOptions options_;
  const Budget* budget_;
  mutable size_t compare_calls_ = 0;
  mutable size_t partner_checks_ = 0;
};

}  // namespace treediff

#endif  // TREEDIFF_CORE_CRITERIA_H_
