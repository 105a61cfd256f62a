// Quality ablations on duplicate-rich workloads (Matching Criterion 3
// violations, the Section 8 discussion):
//
//  (1) the post-processing repair pass: script cost with and without it;
//  (2) the A(k) fallback window (Section 9 future work): comparisons vs
//      script cost as k shrinks.

#include <cstdio>

#include "bench/bench_common.h"
#include "core/diff.h"
#include "util/stats.h"
#include "util/table.h"

int main() {
  using namespace treediff;

  Vocabulary vocab(2000, 1.0);
  auto labels = std::make_shared<LabelTable>();
  DocGenParams params;
  params.sections = 8;
  params.duplicate_sentence_probability = 0.06;  // Criterion 3 violations.
  const EditMix mix = bench::PaperEditMix();
  Rng rng(321);

  std::printf(
      "Ablation 1: Section 8 post-processing repair "
      "(documents with ~6%% duplicated sentences)\n\n");
  {
    TablePrinter table({"trial", "cost w/o repair", "cost w/ repair",
                        "repaired pairs", "moves w/o", "moves w/"});
    StatAccumulator gain;
    for (int trial = 0; trial < 8; ++trial) {
      Tree base = GenerateDocument(params, vocab, &rng, labels);
      SimulatedVersion v = SimulateNewVersion(base, 20, mix, vocab, &rng);

      DiffOptions off;
      off.post_process = false;
      auto without = DiffTrees(base, v.new_tree, off);
      DiffOptions on;
      on.post_process = true;
      auto with = DiffTrees(base, v.new_tree, on);
      if (!without.ok() || !with.ok()) {
        std::fprintf(stderr, "diff failed\n");
        return 1;
      }
      gain.Add(without->script.TotalCost() - with->script.TotalCost());
      table.AddRow({TablePrinter::Fmt(static_cast<size_t>(trial)),
                    TablePrinter::Fmt(without->script.TotalCost(), 1),
                    TablePrinter::Fmt(with->script.TotalCost(), 1),
                    TablePrinter::Fmt(with->report.post_process_rematched),
                    TablePrinter::Fmt(without->script.num_moves()),
                    TablePrinter::Fmt(with->script.num_moves())});
    }
    table.Print();
    std::printf(
        "\nmean cost reduction from repair: %.2f "
        "[expected: >= 0 — the repair removes spurious cross-parent moves "
        "caused by near-duplicate leaves]\n\n",
        gain.Mean());
  }

  std::printf("Ablation 2: the A(k) fallback window\n\n");
  {
    Tree base = GenerateDocument(params, vocab, &rng, labels);
    SimulatedVersion v = SimulateNewVersion(base, 25, mix, vocab, &rng);
    TablePrinter table({"k", "compare calls", "script cost", "script ops"});
    for (int k : {1, 2, 4, 16, 64, 0}) {
      DiffOptions options;
      options.fallback_limit_k = k;
      auto diff = DiffTrees(base, v.new_tree, options);
      if (!diff.ok()) {
        std::fprintf(stderr, "diff failed\n");
        return 1;
      }
      table.AddRow({k == 0 ? "inf" : TablePrinter::Fmt(static_cast<size_t>(k)),
                    TablePrinter::Fmt(diff->report.compare_calls),
                    TablePrinter::Fmt(diff->script.TotalCost(), 1),
                    TablePrinter::Fmt(diff->script.size())});
    }
    table.Print();
    std::printf(
        "\n[expected: comparisons grow and script cost shrinks toward the "
        "unlimited window — the optimality/efficiency dial of Section 9]\n");
  }
  return 0;
}
