// The configuration-management scenario of the paper's introduction: an
// architect's database and an electrician's database describe the same
// building and are updated independently; periodic consistent
// configurations must be produced by computing deltas against the last
// configuration and highlighting conflicts.
//
// Records here carry keys ("key=<id> ..."), but — exactly as the paper
// warns — ids are NOT stable across versions for every object (the pillar
// that was 778899 may come back as 12345). The hybrid matcher uses keys
// where they exist and are stable, and falls back to value/structure
// matching for the rest.

#include <cstdio>
#include <memory>

#include "core/delta_query.h"
#include "core/diff.h"
#include "core/keyed_match.h"
#include "tree/builder.h"

int main() {
  using namespace treediff;

  auto labels = std::make_shared<LabelTable>();

  // Last agreed configuration.
  StatusOr<Tree> base = ParseSexpr(
      "(building"
      " (floor (room"
      "   (record \"key=p1 pillar at 3 4 height 300\")"
      "   (record \"key=w1 wall north length 500\")"
      "   (record \"pillar at 9 9 height 250\"))"  // Keyless legacy record.
      " (room"
      "   (record \"key=c1 conduit 220v along east wall\")))"
      " (floor (room"
      "   (record \"key=p2 pillar at 5 5 height 300\"))))",
      labels);

  // The architect's new version: p1's height changed, the keyless pillar
  // re-entered with a key, a wall was added, and p2's room moved floors.
  StatusOr<Tree> architect = ParseSexpr(
      "(building"
      " (floor (room"
      "   (record \"key=p1 pillar at 3 4 height 320\")"
      "   (record \"key=w1 wall north length 500\")"
      "   (record \"key=p9 pillar at 9 9 height 250\")"
      "   (record \"key=w2 wall south length 480\"))"
      " (room"
      "   (record \"key=c1 conduit 220v along east wall\")"
      "   (record \"key=p2 pillar at 5 5 height 300\"))))",
      labels);
  if (!base.ok() || !architect.ok()) {
    std::fprintf(stderr, "parse error\n");
    return 1;
  }

  // Hybrid matching: keys first (p1, w1, c1 pair instantly, however much
  // their values changed), values and structure for the rest (the renamed
  // pillar matches by content despite the new key).
  WordLcsComparator cmp;
  CriteriaEvaluator eval(*base, *architect, &cmp, {});
  Matching matching =
      ComputeHybridMatch(*base, *architect, ValuePrefixKey, eval);

  StatusOr<EditScriptResult> script =
      GenerateEditScript(*base, *architect, matching, &cmp);
  if (!script.ok()) {
    std::fprintf(stderr, "script failed: %s\n",
                 script.status().ToString().c_str());
    return 1;
  }

  std::printf("== Edit script (configuration delta) ==\n%s\n",
              script->script.ToString(*labels).c_str());

  StatusOr<DeltaTree> delta =
      BuildDeltaTree(*base, *architect, matching, script->script);
  if (!delta.ok()) {
    std::fprintf(stderr, "delta failed: %s\n",
                 delta.status().ToString().c_str());
    return 1;
  }

  std::printf("== Change report ==\n%s\n",
              RenderChangeReport(*delta, *labels).c_str());

  // Conflict highlighting: fire a rule on every updated record so the
  // electrician can review geometry changes that may affect conduits.
  std::vector<ActiveRule> rules;
  rules.push_back({"review-updated-record",
                   MaskOf(DeltaAnnotation::kUpdated), labels->Find("record"),
                   nullptr});
  std::printf("== Records needing review ==\n");
  for (const RuleFiring& f : EvaluateRules(*delta, *labels, rules)) {
    const DeltaNode& n = delta->node(f.hit.node);
    std::printf("  %s\n    was: %s\n    now: %s\n", f.hit.path.c_str(),
                n.old_value.c_str(), n.value.c_str());
  }

  std::printf("\nstats: %zu matched pairs, %zu compare calls (keys matched "
              "the rest for free)\n",
              matching.size(), eval.compare_calls());
  return 0;
}
