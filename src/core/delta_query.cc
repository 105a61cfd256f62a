#include "core/delta_query.h"

#include <vector>

namespace treediff {

namespace {

/// Effective annotation mask of a node: positional annotation plus kUpdated
/// when the value changed on a moved node.
AnnotationMask NodeMask(const DeltaNode& n) {
  AnnotationMask mask = MaskOf(n.annotation);
  if (n.value_updated) mask |= MaskOf(DeltaAnnotation::kUpdated);
  return mask;
}

/// Depth-first walk carrying the path; calls fn(index, path) in document
/// order.
void Walk(const DeltaTree& delta, const LabelTable& labels, int index,
          const std::string& parent_path, int ordinal,
          const std::function<void(int, const std::string&)>& fn) {
  const DeltaNode& n = delta.node(index);
  std::string path = parent_path;
  if (!path.empty()) path += "/";
  path += labels.Name(n.label) + "[" + std::to_string(ordinal) + "]";
  fn(index, path);
  for (size_t i = 0; i < n.children.size(); ++i) {
    Walk(delta, labels, n.children[i], path, static_cast<int>(i), fn);
  }
}

}  // namespace

ChangeSummary SummarizeSubtree(const DeltaTree& delta, int index) {
  ChangeSummary summary;
  std::vector<int> stack = {index};
  while (!stack.empty()) {
    const int current = stack.back();
    stack.pop_back();
    const DeltaNode& n = delta.node(current);
    switch (n.annotation) {
      case DeltaAnnotation::kInserted:
        ++summary.inserted;
        break;
      case DeltaAnnotation::kDeleted:
        ++summary.deleted;
        break;
      case DeltaAnnotation::kUpdated:
        ++summary.updated;
        break;
      case DeltaAnnotation::kMoveMarker:
        ++summary.moved;
        if (n.value_updated) ++summary.updated;
        break;
      case DeltaAnnotation::kMoved:  // Tombstone; the marker counts.
      case DeltaAnnotation::kIdentical:
        break;
    }
    for (int c : n.children) stack.push_back(c);
  }
  return summary;
}

std::string RenderChangeReport(const DeltaTree& delta,
                               const LabelTable& labels) {
  std::string out;
  if (delta.empty()) return out;

  // A changed region is a node that is itself changed, reported at the
  // highest changed ancestor; descend into IDN nodes only.
  std::function<void(int, const std::string&, int)> visit =
      [&](int index, const std::string& parent_path, int ordinal) {
        const DeltaNode& n = delta.node(index);
        std::string path = parent_path;
        if (!path.empty()) path += "/";
        path += labels.Name(n.label) + "[" + std::to_string(ordinal) + "]";
        if (NodeMask(n) != MaskOf(DeltaAnnotation::kIdentical)) {
          ChangeSummary s = SummarizeSubtree(delta, index);
          out += path;
          out += ": ";
          out += DeltaAnnotationName(n.annotation);
          if (n.value_updated &&
              n.annotation != DeltaAnnotation::kUpdated) {
            out += "+UPD";
          }
          out += " (subtree: " + std::to_string(s.inserted) + " ins, " +
                 std::to_string(s.deleted) + " del, " +
                 std::to_string(s.updated) + " upd, " +
                 std::to_string(s.moved) + " mov)";
          if (!n.value.empty()) {
            out += " \"" + n.value.substr(0, 40) +
                   (n.value.size() > 40 ? "...\"" : "\"");
          }
          out += "\n";
          return;  // Do not descend: the region is reported wholesale.
        }
        for (size_t i = 0; i < n.children.size(); ++i) {
          visit(n.children[i], path, static_cast<int>(i));
        }
      };
  visit(delta.root(), "", 0);
  return out;
}

std::vector<RuleFiring> EvaluateRules(const DeltaTree& delta,
                                      const LabelTable& labels,
                                      const std::vector<ActiveRule>& rules) {
  std::vector<RuleFiring> firings;
  if (delta.empty()) return firings;
  Walk(delta, labels, delta.root(), "", 0,
       [&](int index, const std::string& path) {
         const DeltaNode& n = delta.node(index);
         const AnnotationMask mask = NodeMask(n);
         for (const ActiveRule& rule : rules) {
           if ((mask & rule.mask) == 0) continue;
           if (rule.label != kInvalidLabel && n.label != rule.label) {
             continue;
           }
           if (rule.condition && !rule.condition(n)) continue;
           firings.push_back({&rule, {index, path}});
         }
       });
  return firings;
}

}  // namespace treediff
