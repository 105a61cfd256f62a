// Section 2 comparison: our FastMatch + EditScript pipeline — O(ne + e^2) —
// versus the optimal Zhang-Shasha tree edit distance [ZS89] — O(n^2 log^2 n)
// for balanced trees. The paper's claim: for large structures with few
// changes, our algorithm is dramatically faster while producing scripts of
// comparable (usually equal or better) cost, because the MOV operation
// captures reorganizations ZS must pay delete+insert for.

#include <cstdio>

#include "bench/bench_common.h"
#include "core/diff.h"
#include "util/table.h"
#include "util/timer.h"
#include "zs/zhang_shasha.h"

int main() {
  using namespace treediff;

  Vocabulary vocab(2000, 1.0);
  auto labels = std::make_shared<LabelTable>();
  const EditMix mix = bench::PaperEditMix();
  Rng rng(23);

  std::printf(
      "FastMatch+EditScript vs Zhang-Shasha [ZS89] (8 edits per pair)\n\n");

  TablePrinter table({"nodes", "ours ms", "ZS ms", "speedup", "ours ops",
                      "ours cost", "ZS cost", "ZS+moves cost"});

  for (int sections : {1, 2, 4, 8, 12}) {
    DocGenParams params;
    params.sections = sections;
    params.min_paragraphs_per_section = 2;
    params.max_paragraphs_per_section = 5;
    Tree base = GenerateDocument(params, vocab, &rng, labels);
    SimulatedVersion v = SimulateNewVersion(base, 8, mix, vocab, &rng);

    WallTimer timer;
    auto ours = DiffTrees(base, v.new_tree);
    const double ours_ms = timer.ElapsedMicros() / 1e3;
    if (!ours.ok()) {
      std::fprintf(stderr, "diff failed: %s\n",
                   ours.status().ToString().c_str());
      return 1;
    }

    // ZS with the same update pricing; relabels are effectively forbidden
    // (cost 2 = delete+insert) to mirror our operation set.
    WordLcsComparator cmp;
    ZsOptions zs_options;
    zs_options.comparator = &cmp;
    timer.Restart();
    const double zs_cost = ZhangShashaDistance(base, v.new_tree, zs_options);
    const double zs_ms = timer.ElapsedMicros() / 1e3;
    // The [WZS95] move-recovery post-processing narrows ZS's cost gap
    // (relocated subtrees re-priced as single moves) but not its runtime.
    const ZsWithMovesResult zs_moves =
        ZhangShashaWithMoves(base, v.new_tree, zs_options);

    table.AddRow({TablePrinter::Fmt(base.size() + v.new_tree.size()),
                  TablePrinter::Fmt(ours_ms, 2), TablePrinter::Fmt(zs_ms, 2),
                  TablePrinter::Fmt(ours_ms > 0 ? zs_ms / ours_ms : 0.0, 1),
                  TablePrinter::Fmt(ours->script.size()),
                  TablePrinter::Fmt(ours->script.TotalCost(), 2),
                  TablePrinter::Fmt(zs_cost, 2),
                  TablePrinter::Fmt(zs_moves.distance_with_moves, 2)});
  }

  table.Print();
  std::printf(
      "\n[expected: the speedup grows superlinearly with tree size — ZS is "
      "at least quadratic while ours scales with n*e. Script costs are "
      "comparable; where the delta contains moves, ours can be cheaper "
      "than ZS's delete+insert pairs.]\n");
  return 0;
}
