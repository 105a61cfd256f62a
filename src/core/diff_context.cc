#include "core/diff_context.h"

namespace treediff {

const char* DiffRungName(DiffRung rung) {
  switch (rung) {
    case DiffRung::kOptimalZs:
      return "OptimalZs";
    case DiffRung::kFastMatch:
      return "FastMatch";
    case DiffRung::kKeyedStructural:
      return "KeyedStructural";
    case DiffRung::kTopLevelReplace:
      return "TopLevelReplace";
  }
  return "?";
}

namespace {

const ValueComparator* ResolveComparator(
    const DiffOptions& options,
    std::unique_ptr<WordLcsComparator>* owned) {
  if (options.comparator != nullptr) return options.comparator;
  *owned = std::make_unique<WordLcsComparator>(options.token_memo);
  return owned->get();
}

/// A lent index is used only when it really indexes `tree` (a mismatched
/// pointer would silently answer for the wrong tree); otherwise a fresh
/// index is built into `owned`.
const TreeIndex* ResolveIndex(const Tree& tree, const TreeIndex* lent,
                              std::unique_ptr<TreeIndex>* owned) {
  if (lent != nullptr && lent->attached() && &lent->tree() == &tree) {
    return lent;
  }
  *owned = std::make_unique<TreeIndex>(tree);
  return owned->get();
}

}  // namespace

DiffContext::DiffContext(const Tree& t1, const Tree& t2,
                         const DiffOptions& options)
    : t1_(t1),
      t2_(t2),
      options_(options),
      comparator_(ResolveComparator(options_, &owned_comparator_)),
      index1_(ResolveIndex(t1, options_.index1, &owned_index1_)),
      index2_(ResolveIndex(t2, options_.index2, &owned_index2_)),
      evaluator_(*index1_, *index2_, comparator_,
                 MatchOptions{options_.leaf_threshold_f,
                              options_.internal_threshold_t},
                 options_.budget) {}

}  // namespace treediff
