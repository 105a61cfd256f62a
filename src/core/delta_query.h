#ifndef TREEDIFF_CORE_DELTA_QUERY_H_
#define TREEDIFF_CORE_DELTA_QUERY_H_

#include <functional>
#include <string>
#include <vector>

#include "core/delta_tree.h"
#include "tree/label.h"

namespace treediff {

/// Query and browsing facilities over delta trees — the Section 9 direction
/// ("designing and implementing query, browsing, and active rule languages
/// for hierarchical data based on our edit scripts and delta trees").
/// ActiveRules select delta nodes by annotation, label, and a user
/// predicate (the warehouse-trigger scenario of the introduction); change
/// summaries and reports browse the changes per subtree.

/// A bitmask of annotations (1 << static_cast<int>(DeltaAnnotation)).
using AnnotationMask = unsigned;

/// Mask helpers.
constexpr AnnotationMask MaskOf(DeltaAnnotation ann) {
  return 1u << static_cast<unsigned>(ann);
}
inline constexpr AnnotationMask kAnyChange =
    MaskOf(DeltaAnnotation::kUpdated) | MaskOf(DeltaAnnotation::kInserted) |
    MaskOf(DeltaAnnotation::kDeleted) | MaskOf(DeltaAnnotation::kMoved) |
    MaskOf(DeltaAnnotation::kMoveMarker);

/// One query hit: the delta node index and its path from the root, rendered
/// as "label[i]/label[j]/..." with sibling ordinals.
struct DeltaHit {
  int node = -1;
  std::string path;
};

/// Per-subtree change counts, the "browsing" summary: how many inserts /
/// deletes / updates / moves occurred at or below each delta node.
struct ChangeSummary {
  size_t inserted = 0;
  size_t deleted = 0;
  size_t updated = 0;
  size_t moved = 0;  // Counted once per move (markers, not tombstones).

  size_t total() const { return inserted + deleted + updated + moved; }
};

/// Computes the summary for the subtree rooted at delta node `index` (the
/// whole delta when index is the root).
ChangeSummary SummarizeSubtree(const DeltaTree& delta, int index);

/// Renders a browsable change report: one line per *changed region* (a
/// maximal changed subtree), with its path and summary. Unchanged regions
/// are elided — the "browsing over changes" use case.
std::string RenderChangeReport(const DeltaTree& delta,
                               const LabelTable& labels);

/// An active rule (the introduction's warehouse/trigger scenario): fires
/// once per delta node whose annotation is in `mask` and whose label
/// matches (kInvalidLabel = any). A node whose value was updated counts as
/// kUpdated even when its positional annotation is kMoveMarker.
/// `condition`, if set, further filters on the node.
struct ActiveRule {
  std::string name;
  AnnotationMask mask = kAnyChange;
  LabelId label = kInvalidLabel;
  std::function<bool(const DeltaNode&)> condition;
};

/// One rule firing.
struct RuleFiring {
  const ActiveRule* rule = nullptr;
  DeltaHit hit;
};

/// Evaluates every rule against the delta; firings are ordered by document
/// position, then by rule order.
std::vector<RuleFiring> EvaluateRules(const DeltaTree& delta,
                                      const LabelTable& labels,
                                      const std::vector<ActiveRule>& rules);

}  // namespace treediff

#endif  // TREEDIFF_CORE_DELTA_QUERY_H_
