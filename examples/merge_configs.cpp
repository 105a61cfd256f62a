// The full configuration-management loop from the paper's introduction: the
// architect's and the electrician's databases evolve independently from the
// last agreed configuration; a new consistent configuration is produced by
// merging both deltas and highlighting the conflicts for human review.

#include <cstdio>
#include <memory>

#include "store/three_way.h"
#include "tree/builder.h"

int main() {
  using namespace treediff;

  auto labels = std::make_shared<LabelTable>();

  StatusOr<Tree> base = ParseSexpr(
      "(building"
      " (floor (room"
      "   (record \"pillar p1 at 3 4 height 300\")"
      "   (record \"wall north length 500 material brick\")"
      "   (record \"outlet o1 on north wall\"))"
      "  (room"
      "   (record \"pillar p2 at 8 8 height 300\")"
      "   (record \"conduit c1 along east wall\"))))",
      labels);

  // The architect: raises pillar p1, re-materials the wall, adds a door.
  StatusOr<Tree> architect = ParseSexpr(
      "(building"
      " (floor (room"
      "   (record \"pillar p1 at 3 4 height 320\")"
      "   (record \"wall north length 500 material concrete\")"
      "   (record \"outlet o1 on north wall\")"
      "   (record \"door d1 in south wall\"))"
      "  (room"
      "   (record \"pillar p2 at 8 8 height 300\")"
      "   (record \"conduit c1 along east wall\"))))",
      labels);

  // The electrician: moves outlet o1 to the second room, re-materials the
  // SAME wall differently (conflict!), adds a breaker panel.
  StatusOr<Tree> electrician = ParseSexpr(
      "(building"
      " (floor (room"
      "   (record \"pillar p1 at 3 4 height 300\")"
      "   (record \"wall north length 500 material drywall\"))"
      "  (room"
      "   (record \"pillar p2 at 8 8 height 300\")"
      "   (record \"conduit c1 along east wall\")"
      "   (record \"outlet o1 on north wall\")"
      "   (record \"panel b1 beside the door\"))))",
      labels);

  if (!base.ok() || !architect.ok() || !electrician.ok()) {
    std::fprintf(stderr, "parse error\n");
    return 1;
  }

  DiffOptions options;
  options.internal_threshold_t = 0.5;
  StatusOr<ThreeWayResult> merge =
      ThreeWayMerge(*base, *architect, *electrician, options);
  if (!merge.ok()) {
    std::fprintf(stderr, "merge failed: %s\n",
                 merge.status().ToString().c_str());
    return 1;
  }

  std::printf("== Merged configuration ==\n%s\n\n",
              merge->merged.ToDebugString().c_str());

  std::printf("== Conflicts requiring review ==\n");
  if (merge->conflicts.empty()) std::printf("  (none)\n");
  for (const MergeConflict& c : merge->conflicts) {
    std::printf("  [%s] base record: \"%s\"\n      %s\n",
                ConflictKindName(c.kind),
                c.base_node != kInvalidNode && base->Alive(c.base_node)
                    ? std::string(base->value(c.base_node)).c_str()
                    : "<structure>",
                c.description.c_str());
  }

  std::printf(
      "\napplied %zu architect ops + %zu electrician ops "
      "(%zu skipped as conflicting/duplicate)\n",
      merge->ops_from_ours, merge->ops_from_theirs, merge->skipped_theirs);
  return 0;
}
