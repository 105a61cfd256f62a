// Section 4 complexity: Algorithm EditScript runs in O(ND) — linear in the
// total number of nodes N for a fixed number of misaligned nodes D. This
// bench grows n with the edit count fixed and verifies the end-to-end
// pipeline time grows near-linearly (R^2 of a linear fit close to 1), the
// core efficiency claim against the O(n^2 log^2 n) baseline.

#include <cstdio>

#include "bench/bench_common.h"
#include "core/diff.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

int main() {
  using namespace treediff;

  Vocabulary vocab(20000, 0.5);
  auto labels = std::make_shared<LabelTable>();
  const EditMix mix = bench::SentenceEditMix();
  Rng rng(31);

  std::printf("Pipeline scaling: fixed 12 edits, growing n\n\n");

  TablePrinter table({"n (nodes)", "leaves", "e", "comparisons",
                      "match ms", "script ms", "total ms"});
  std::vector<double> ns, ts, cmps;

  for (int sections : {4, 8, 16, 32, 64, 96}) {
    DocGenParams params;
    params.sections = sections;
    // Paragraphs of at least 4 sentences: a single sentence edit leaves at
    // least 3/4 of a paragraph intact, so paragraphs stay matched and the
    // misalignment D is governed by the edit count, not paragraph size
    // (this is what keeps the workload in the fixed-D regime the O(ND)
    // claim is about).
    params.min_sentences_per_paragraph = 4;
    params.max_sentences_per_paragraph = 6;
    Tree base = GenerateDocument(params, vocab, &rng, labels);

    // Average over several version pairs: comparison counts vary with where
    // the edits land (the "high variance" the paper itself reports for
    // Figure 13(b)), and wall times are noisy at the sub-ms scale.
    const int kPairs = 15;
    double sum_cmp = 0.0, sum_e = 0.0, sum_match = 0.0, sum_script = 0.0;
    double best_total = 1e100;
    for (int pair = 0; pair < kPairs; ++pair) {
      SimulatedVersion v = SimulateNewVersion(base, 12, mix, vocab, &rng);
      WallTimer timer;
      auto diff = DiffTrees(base, v.new_tree);
      const double total = timer.ElapsedSeconds();
      if (!diff.ok()) {
        std::fprintf(stderr, "diff failed: %s\n",
                     diff.status().ToString().c_str());
        return 1;
      }
      sum_cmp += static_cast<double>(diff->report.compare_calls +
                                     diff->report.partner_checks);
      sum_e += static_cast<double>(diff->report.weighted_edit_distance);
      sum_match += diff->report.match_seconds;
      sum_script += diff->report.script_seconds;
      if (total < best_total) best_total = total;
    }

    const double n = static_cast<double>(base.size()) * 2.0;
    const double comparisons = sum_cmp / kPairs;
    ns.push_back(n);
    ts.push_back(best_total * 1e3);
    cmps.push_back(comparisons);
    table.AddRow({TablePrinter::Fmt(n, 0),
                  TablePrinter::Fmt(base.Leaves().size()),
                  TablePrinter::Fmt(sum_e / kPairs, 0),
                  TablePrinter::Fmt(comparisons, 0),
                  TablePrinter::Fmt(sum_match / kPairs * 1e3, 2),
                  TablePrinter::Fmt(sum_script / kPairs * 1e3, 2),
                  TablePrinter::Fmt(best_total * 1e3, 2)});
  }

  table.Print();
  // Comparisons are deterministic; wall time is reported but noisy at the
  // sub-millisecond scale.
  LinearFit work = FitLine(ns, cmps);
  LinearFit time = FitLine(ns, ts);
  std::printf(
      "\nlinear fit of comparisons vs n: %.1f per node, R^2 = %.3f "
      "[expected: close to 1 — work is near-linear in n for fixed e, "
      "matching the O(ne + e^2) analysis]\n"
      "linear fit of time vs n: %.4f ms per 1000 nodes, R^2 = %.3f\n",
      work.slope, work.r_squared, time.slope * 1000.0, time.r_squared);
  return 0;
}
