// The data-warehousing scenario of the paper's introduction: an
// "uncooperative" source only hands out periodic snapshots (dumps) of its
// hierarchical data, and the warehouse derives deltas by diffing consecutive
// snapshots. This example simulates a source evolving over several epochs
// and, per epoch:
//
//  1. diffs the two snapshots (FastMatch + EditScript);
//  2. serializes the edit script to its wire format, "ships" it, parses it
//     back, and applies it to the warehouse's materialized copy;
//  3. evaluates active rules over the delta tree (the trigger scenario) and
//     prints the browsable change report.
//
// Each epoch's diff runs under a wall-clock deadline (a warehouse ingest
// window): if the budget trips, the pipeline degrades down the DiffRung
// ladder and reports the rung it landed on instead of blowing the window.

#include <cstdio>
#include <memory>

#include "core/delta_query.h"
#include "core/diff.h"
#include "core/script_io.h"
#include "gen/doc_gen.h"
#include "gen/edit_sim.h"
#include "tree/schema.h"

int main() {
  using namespace treediff;

  const int kEpochs = 6;
  Vocabulary vocab(500, 1.0);
  Rng rng(2026);
  auto labels = std::make_shared<LabelTable>();

  DocGenParams params;
  params.sections = 5;
  Tree snapshot = GenerateDocument(params, vocab, &rng, labels);
  Tree warehouse = snapshot.Clone();  // The materialized copy.
  std::printf("epoch 0: initial snapshot with %zu nodes\n", snapshot.size());

  // Active rules the warehouse registers once: alert on any section-level
  // change and on deletions of long sentences.
  const LabelId section = labels->Intern(doc_labels::kSection);
  const LabelId sentence = labels->Intern(doc_labels::kSentence);
  std::vector<ActiveRule> rules;
  rules.push_back({"section-structure-change",
                   MaskOf(DeltaAnnotation::kInserted) |
                       MaskOf(DeltaAnnotation::kDeleted) |
                       MaskOf(DeltaAnnotation::kMoveMarker),
                   section, nullptr});
  rules.push_back({"long-sentence-deleted", MaskOf(DeltaAnnotation::kDeleted),
                   sentence,
                   [](const DeltaNode& n) { return n.value.size() > 80; }});

  size_t total_ops = 0, total_firings = 0;
  for (int epoch = 1; epoch <= kEpochs; ++epoch) {
    // The source mutates; the warehouse only sees the new dump (fresh node
    // ids — no keys survive across snapshots).
    const int churn = 2 + epoch * 2;
    SimulatedVersion next = SimulateNewVersion(snapshot, churn, {}, vocab,
                                               &rng);

    // The ingest window: 50 ms of wall clock per snapshot diff. Plenty for
    // these documents; on an oversized dump the diff would degrade to a
    // cheaper rung rather than stall the pipeline.
    Budget budget = Budget::Deadline(0.050);
    DiffOptions diff_options;
    diff_options.budget = &budget;
    StatusOr<DiffResult> diff =
        DiffTrees(snapshot, next.new_tree, diff_options);
    if (!diff.ok()) {
      std::fprintf(stderr, "diff failed at epoch %d: %s\n", epoch,
                   diff.status().ToString().c_str());
      return 1;
    }

    // Ship the delta: serialize, parse, apply at the warehouse.
    const std::string wire = FormatEditScript(diff->script, *labels);
    StatusOr<EditScript> received = ParseEditScript(wire, labels.get());
    if (!received.ok()) {
      std::fprintf(stderr, "wire parse failed: %s\n",
                   received.status().ToString().c_str());
      return 1;
    }
    Status applied = received->ApplyTo(&warehouse);
    if (!applied.ok() || !Tree::Isomorphic(warehouse, next.new_tree)) {
      std::fprintf(stderr, "epoch %d: warehouse replay mismatch!\n", epoch);
      return 1;
    }
    // Re-densify the materialized copy so its node ids coincide with the
    // source's next dump (both sides number nodes in pre-order; scripts
    // address nodes by those positional ids).
    warehouse = RebuildFresh(warehouse);

    // Trigger evaluation over the delta tree.
    StatusOr<DeltaTree> delta =
        BuildDeltaTree(snapshot, next.new_tree, *diff);
    if (!delta.ok()) {
      std::fprintf(stderr, "delta failed: %s\n",
                   delta.status().ToString().c_str());
      return 1;
    }
    std::vector<RuleFiring> firings = EvaluateRules(*delta, *labels, rules);

    std::printf(
        "epoch %d: %3zu nodes | intended %2zu edits -> "
        "ins=%zu del=%zu upd=%zu mov=%zu (cost %.1f, e=%zu) | "
        "%zu bytes on the wire | %zu rule firings\n",
        epoch, next.new_tree.size(), next.intended_ops,
        diff->script.num_inserts(), diff->script.num_deletes(),
        diff->script.num_updates(), diff->script.num_moves(),
        diff->script.TotalCost(), diff->report.weighted_edit_distance,
        wire.size(), firings.size());
    if (diff->report.degraded) {
      std::printf("    (budget degraded the diff to the %s rung: %s)\n",
                  DiffRungName(diff->report.rung),
                  budget.exhaustion_detail().c_str());
    }
    for (const RuleFiring& f : firings) {
      std::printf("    [%s] %s\n", f.rule->name.c_str(), f.hit.path.c_str());
    }

    total_ops += diff->script.size();
    total_firings += firings.size();
    snapshot = std::move(next.new_tree);
  }

  std::printf(
      "ingested %zu edit operations across %d epochs; %zu rule firings\n",
      total_ops, kEpochs, total_firings);
  return 0;
}
