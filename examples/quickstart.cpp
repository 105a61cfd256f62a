// Quickstart: build two small document trees, diff them, and print the
// matching, the minimum-cost edit script, the delta tree, and the marked-up
// rendering — the full pipeline of the paper in ~60 lines.

#include <cstdio>
#include <memory>

#include "core/diff.h"
#include "doc/markup.h"
#include "tree/builder.h"

int main() {
  using namespace treediff;

  // Both versions share one label table (labels are interned ids).
  auto labels = std::make_shared<LabelTable>();

  // The paper's running example (Figure 1), as document trees.
  StatusOr<Tree> t1 = ParseSexpr(
      "(document"
      " (paragraph (sentence \"The old first sentence.\")"
      "            (sentence \"A doomed sentence.\"))"
      " (paragraph (sentence \"Body text stays put.\")"
      "            (sentence \"Another body sentence.\")"
      "            (sentence \"The closing thought.\"))"
      " (paragraph (sentence \"A lonely paragraph.\")))",
      labels);
  StatusOr<Tree> t2 = ParseSexpr(
      "(document"
      " (paragraph (sentence \"The old first sentence.\"))"
      " (paragraph (sentence \"A lonely paragraph.\"))"
      " (paragraph (sentence \"Body text stays put.\")"
      "            (sentence \"Another body sentence.\")"
      "            (sentence \"A brand new insertion.\")"
      "            (sentence \"The closing thought.\")))",
      labels);
  if (!t1.ok() || !t2.ok()) {
    std::fprintf(stderr, "parse error\n");
    return 1;
  }

  // Phase 1 + 2: good matching (FastMatch) and minimum conforming edit
  // script (EditScript).
  StatusOr<DiffResult> diff = DiffTrees(*t1, *t2);
  if (!diff.ok()) {
    std::fprintf(stderr, "diff failed: %s\n",
                 diff.status().ToString().c_str());
    return 1;
  }

  std::printf("== Old tree ==\n%s\n\n", t1->ToDebugString().c_str());
  std::printf("== New tree ==\n%s\n\n", t2->ToDebugString().c_str());

  std::printf("== Matching (%zu pairs) ==\n", diff->matching.size());
  for (auto [x, y] : diff->matching.Pairs()) {
    std::printf("  %d <-> %d  (%s)\n", x, y, t1->label_name(x).c_str());
  }

  std::printf("\n== Edit script (cost %.1f) ==\n%s",
              diff->script.TotalCost(),
              diff->script.ToString(*labels).c_str());

  // The delta tree superimposes old and new (Section 6).
  StatusOr<DeltaTree> delta = BuildDeltaTree(*t1, *t2, *diff);
  if (!delta.ok()) {
    std::fprintf(stderr, "delta failed: %s\n",
                 delta.status().ToString().c_str());
    return 1;
  }
  std::printf("\n== Delta tree ==\n%s\n", delta->ToDebugString(*labels).c_str());

  std::printf("\n== Marked-up rendering ==\n%s",
              RenderMarkup(*delta, *labels, MarkupFormat::kText).c_str());

  std::printf("\nstats: %zu compares, %zu partner checks, d=%zu, e=%zu\n",
              diff->report.compare_calls, diff->report.partner_checks,
              diff->script.size(), diff->report.weighted_edit_distance);
  return 0;
}
