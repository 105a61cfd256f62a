#include "core/criteria.h"

#include <algorithm>
#include <cassert>

namespace treediff {

CriteriaEvaluator::CriteriaEvaluator(const Tree& t1, const Tree& t2,
                                     const ValueComparator* comparator,
                                     MatchOptions options,
                                     const Budget* budget)
    : owned_index1_(std::make_unique<TreeIndex>(t1)),
      owned_index2_(std::make_unique<TreeIndex>(t2)),
      index1_(owned_index1_.get()),
      index2_(owned_index2_.get()),
      t1_(t1),
      t2_(t2),
      comparator_(comparator),
      options_(options),
      budget_(budget) {
  assert(comparator_ != nullptr);
  assert(t1.label_table().get() == t2.label_table().get() &&
         "trees being compared must share one LabelTable");
}

CriteriaEvaluator::CriteriaEvaluator(const TreeIndex& index1,
                                     const TreeIndex& index2,
                                     const ValueComparator* comparator,
                                     MatchOptions options,
                                     const Budget* budget)
    : index1_(&index1),
      index2_(&index2),
      t1_(index1.tree()),
      t2_(index2.tree()),
      comparator_(comparator),
      options_(options),
      budget_(budget) {
  assert(comparator_ != nullptr);
  assert(t1_.label_table().get() == t2_.label_table().get() &&
         "trees being compared must share one LabelTable");
}

bool CriteriaEvaluator::LeafEqual(NodeId x, NodeId y, bool may_pass) const {
  if (t1_.label(x) != t2_.label(y)) return false;
  BudgetChargeComparisons(budget_);
  ++compare_calls_;
  return may_pass &&
         comparator_->Compare(t1_, x, t2_, y) <= options_.leaf_threshold_f;
}

int CriteriaEvaluator::CommonLeaves(NodeId x, NodeId y,
                                    const Matching& m) const {
  // The leaves under x form a contiguous slice of the T1 index's leaf
  // sequence; for each matched leaf w, check whether its partner lies under
  // y. Each containment test is the pair of integer comparisons the paper
  // calls a "partner check" (Section 8).
  int common = 0;
  const std::vector<NodeId>& leaves = index1_->Leaves();
  const int end = index1_->LeafRangeEnd(x);
  for (int i = index1_->LeafRangeBegin(x); i < end; ++i) {
    NodeId w = leaves[static_cast<size_t>(i)];
    NodeId z = m.PartnerOfT1(w);
    ++partner_checks_;
    BudgetChargeComparisons(budget_);
    if (z != kInvalidNode && index2_->Contains(y, z)) ++common;
  }
  return common;
}

bool CriteriaEvaluator::InternalEqual(NodeId x, NodeId y,
                                      const Matching& m) const {
  if (t1_.label(x) != t2_.label(y)) return false;
  const int max_size = std::max(LeafCount1(x), LeafCount2(y));
  if (max_size == 0) return true;  // Two childless interior nodes.
  const int common = CommonLeaves(x, y, m);
  return static_cast<double>(common) >
         options_.internal_threshold_t * static_cast<double>(max_size);
}

}  // namespace treediff
