// Google-benchmark microbenchmarks for the hot paths: LCS (Myers vs DP),
// sentence comparison, parsing, matching, script generation, and the
// end-to-end pipeline. Run in Release mode for meaningful numbers.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "core/diff.h"
#include "core/fast_match.h"
#include "core/keyed_match.h"
#include "core/share_map.h"
#include "core/script_io.h"
#include "doc/latex_parser.h"
#include "doc/markdown_parser.h"
#include "doc/xml.h"
#include "store/version_store.h"
#include "gen/doc_gen.h"
#include "gen/edit_sim.h"
#include "tree/builder.h"
#include "tree/tree_index.h"
#include "lcs/lcs.h"
#include "zs/zhang_shasha.h"

namespace {

using namespace treediff;

std::vector<int> NearIdenticalSeq(int n, int changes, uint64_t seed) {
  Rng rng(seed);
  std::vector<int> v(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<size_t>(i)] = i;
  for (int c = 0; c < changes; ++c) {
    v[rng.Uniform(v.size())] = -static_cast<int>(rng.Uniform(1000)) - 1;
  }
  return v;
}

void BM_MyersLcsNearIdentical(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<int> a = NearIdenticalSeq(n, 0, 1);
  std::vector<int> b = NearIdenticalSeq(n, 10, 2);
  for (auto _ : state) {
    auto pairs = MyersLcs(n, n, [&](int i, int j) {
      return a[static_cast<size_t>(i)] == b[static_cast<size_t>(j)];
    });
    benchmark::DoNotOptimize(pairs);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MyersLcsNearIdentical)->Arg(256)->Arg(1024)->Arg(4096);

void BM_DpLcs(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<int> a = NearIdenticalSeq(n, 0, 1);
  std::vector<int> b = NearIdenticalSeq(n, 10, 2);
  for (auto _ : state) {
    auto pairs = DpLcs(n, n, [&](int i, int j) {
      return a[static_cast<size_t>(i)] == b[static_cast<size_t>(j)];
    });
    benchmark::DoNotOptimize(pairs);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DpLcs)->Arg(256)->Arg(1024);

void BM_WordLcsCompare(benchmark::State& state) {
  auto labels = std::make_shared<LabelTable>();
  Tree t(labels);
  NodeId root = t.AddRoot("D");
  NodeId a = t.AddChild(root, "S",
                        "the quick brown fox jumps over the lazy dog again");
  NodeId b = t.AddChild(root, "S",
                        "the quick brown wolf jumps over a lazy dog again");
  for (auto _ : state) {
    WordLcsComparator cmp;  // Fresh cache: measures tokenize + LCS.
    benchmark::DoNotOptimize(cmp.Compare(t, a, t, b));
  }
}
BENCHMARK(BM_WordLcsCompare);

void BM_WordLcsCompareCached(benchmark::State& state) {
  auto labels = std::make_shared<LabelTable>();
  Tree t(labels);
  NodeId root = t.AddRoot("D");
  NodeId a = t.AddChild(root, "S",
                        "the quick brown fox jumps over the lazy dog again");
  NodeId b = t.AddChild(root, "S",
                        "the quick brown wolf jumps over a lazy dog again");
  WordLcsComparator cmp;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cmp.Compare(t, a, t, b));
  }
}
BENCHMARK(BM_WordLcsCompareCached);

struct Workload {
  std::shared_ptr<LabelTable> labels;
  Tree old_tree;
  Tree new_tree;
};

Workload MakeWorkload(int sections, int edits) {
  static Vocabulary vocab(3000, 1.0);
  Workload w{std::make_shared<LabelTable>(), Tree(nullptr), Tree(nullptr)};
  Rng rng(static_cast<uint64_t>(sections) * 100 +
          static_cast<uint64_t>(edits));
  DocGenParams params;
  params.sections = sections;
  w.old_tree = GenerateDocument(params, vocab, &rng, w.labels);
  SimulatedVersion v =
      SimulateNewVersion(w.old_tree, edits, {}, vocab, &rng);
  w.new_tree = std::move(v.new_tree);
  return w;
}

void BM_FastMatch(benchmark::State& state) {
  Workload w = MakeWorkload(static_cast<int>(state.range(0)), 10);
  for (auto _ : state) {
    WordLcsComparator cmp;
    CriteriaEvaluator eval(w.old_tree, w.new_tree, &cmp, {});
    Matching m = ComputeFastMatch(w.old_tree, w.new_tree, eval);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.old_tree.size()));
}
BENCHMARK(BM_FastMatch)->Arg(4)->Arg(16)->Arg(48);

void BM_EndToEndDiff(benchmark::State& state) {
  Workload w = MakeWorkload(static_cast<int>(state.range(0)), 10);
  for (auto _ : state) {
    auto diff = DiffTrees(w.old_tree, w.new_tree);
    benchmark::DoNotOptimize(diff);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.old_tree.size()));
}
BENCHMARK(BM_EndToEndDiff)->Arg(4)->Arg(16)->Arg(48);

// Same workload as BM_EndToEndDiff but with an (unlimited) budget attached:
// the delta against BM_EndToEndDiff is the pure probe overhead of the
// resource-budget plumbing on the Figure 13 path. Should stay under ~1%.
void BM_EndToEndDiffBudgeted(benchmark::State& state) {
  Workload w = MakeWorkload(static_cast<int>(state.range(0)), 10);
  for (auto _ : state) {
    Budget budget;  // No caps: every probe runs, nothing ever trips.
    DiffOptions options;
    options.budget = &budget;
    auto diff = DiffTrees(w.old_tree, w.new_tree, options);
    benchmark::DoNotOptimize(diff);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.old_tree.size()));
}
BENCHMARK(BM_EndToEndDiffBudgeted)->Arg(4)->Arg(16)->Arg(48);

/// The share-map pre-pass (PrematchSharedSubtrees, kIndexed) alone, over
/// warm indexes as the service runs it: the map build, the top-down walk
/// and the wholesale settles. "chain64" is a 64-section document with 10%
/// duplicate sentences against its 1%-edit successor (perfbench's `chain`
/// shape); "fanout16000" is 16,000 identical sentences against the same
/// plus one, where every lookup lands on one 16,001-node fingerprint chain.
Workload SharePrepassWorkload(bool fan_out) {
  static Vocabulary vocab(3000, 1.0);
  Workload w{std::make_shared<LabelTable>(), Tree(nullptr), Tree(nullptr)};
  if (fan_out) {
    w.old_tree = Tree(w.labels);
    w.new_tree = Tree(w.labels);
    const NodeId r1 = w.old_tree.AddRoot("D");
    const NodeId r2 = w.new_tree.AddRoot("D");
    for (int i = 0; i < 16000; ++i) {
      w.old_tree.AddChild(r1, "S", "the same sentence again");
      w.new_tree.AddChild(r2, "S", "the same sentence again");
    }
    w.new_tree.AddChild(r2, "S", "the same sentence again");
    return w;
  }
  Rng rng(64);
  DocGenParams params;
  params.sections = 64;
  params.min_paragraphs_per_section = 4;
  params.max_paragraphs_per_section = 8;
  params.duplicate_sentence_probability = 0.1;
  w.old_tree = GenerateDocument(params, vocab, &rng, w.labels);
  const int edits = static_cast<int>(w.old_tree.Leaves().size() / 100) + 1;
  SimulatedVersion v =
      SimulateNewVersion(w.old_tree, edits, {}, vocab, &rng);
  w.new_tree = std::move(v.new_tree);
  return w;
}

void BM_SharePrepass(benchmark::State& state, bool fan_out) {
  Workload w = SharePrepassWorkload(fan_out);
  TreeIndex i1(w.old_tree);
  TreeIndex i2(w.new_tree);
  i1.WarmAll();
  i2.WarmAll();
  DiffOptions options;
  options.share_mode = ShareMode::kIndexed;
  options.index1 = &i1;
  options.index2 = &i2;
  DiffContext ctx(w.old_tree, w.new_tree, options);
  size_t settled = 0;
  for (auto _ : state) {
    ShareStats stats;
    std::vector<std::pair<NodeId, NodeId>> pairs;
    Matching seed = PrematchSharedSubtrees(ctx, true, &stats, &pairs);
    benchmark::DoNotOptimize(seed);
    settled = stats.settled_subtrees;
  }
  state.counters["settled"] = static_cast<double>(settled);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.new_tree.size()));
}
BENCHMARK_CAPTURE(BM_SharePrepass, chain64, false);
BENCHMARK_CAPTURE(BM_SharePrepass, fanout16000, true);

void BM_ZhangShasha(benchmark::State& state) {
  Workload w = MakeWorkload(static_cast<int>(state.range(0)), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ZhangShashaDistance(w.old_tree, w.new_tree));
  }
}
BENCHMARK(BM_ZhangShasha)->Arg(2)->Arg(4)->Arg(8);

void BM_ParseLatex(benchmark::State& state) {
  // Build a LaTeX source from a generated document, then time the parser.
  Workload w = MakeWorkload(8, 0);
  std::string text;
  for (NodeId sec : w.old_tree.children(w.old_tree.root())) {
    text += "\\section{" + w.old_tree.value(sec) + "}\n";
    for (NodeId p : w.old_tree.children(sec)) {
      for (NodeId s : w.old_tree.children(p)) {
        if (w.old_tree.IsLeaf(s)) {
          text += w.old_tree.value(s) + " ";
        } else {
          for (NodeId q : w.old_tree.children(s)) {
            text += w.old_tree.value(q) + " ";
          }
        }
      }
      text += "\n\n";
    }
  }
  for (auto _ : state) {
    auto tree = ParseLatex(text);
    benchmark::DoNotOptimize(tree);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ParseLatex);

void BM_ApplyScript(benchmark::State& state) {
  Workload w = MakeWorkload(16, 20);
  auto diff = DiffTrees(w.old_tree, w.new_tree);
  if (!diff.ok()) {
    state.SkipWithError("diff failed");
    return;
  }
  for (auto _ : state) {
    Tree replay = w.old_tree.Clone();
    benchmark::DoNotOptimize(diff->script.ApplyTo(&replay));
  }
}
BENCHMARK(BM_ApplyScript);

void BM_ParseXml(benchmark::State& state) {
  // A data-bearing catalog with 200 records.
  std::string text = "<catalog>";
  for (int i = 0; i < 200; ++i) {
    text += "<item id=\"" + std::to_string(i) + "\"><name>item name " +
            std::to_string(i) + "</name><qty>" + std::to_string(i * 3) +
            "</qty></item>";
  }
  text += "</catalog>";
  for (auto _ : state) {
    auto tree = ParseXml(text);
    benchmark::DoNotOptimize(tree);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ParseXml);

void BM_ParseSexpr(benchmark::State& state) {
  // A generated document of range(0) sections, shaped like the service
  // benchmark's (4 to 8 paragraphs a section), parsed into one shared
  // label table as the service does.
  static Vocabulary vocab(3000, 1.0);
  auto labels = std::make_shared<LabelTable>();
  Rng rng(static_cast<uint64_t>(state.range(0)));
  DocGenParams params;
  params.sections = static_cast<int>(state.range(0));
  params.min_paragraphs_per_section = 4;
  params.max_paragraphs_per_section = 8;
  const Tree doc = GenerateDocument(params, vocab, &rng, labels);
  const std::string text = doc.ToDebugString();
  for (auto _ : state) {
    auto tree = ParseSexpr(text, labels);
    benchmark::DoNotOptimize(tree);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_ParseSexpr)->Arg(4)->Arg(64);

void BM_ParseMarkdown(benchmark::State& state) {
  std::string text;
  for (int s = 0; s < 10; ++s) {
    text += "# Section " + std::to_string(s) + "\n\n";
    for (int p = 0; p < 5; ++p) {
      text += "A sentence about things. Another one follows here. ";
      text += "And a third to round out the paragraph.\n\n";
    }
    text += "- First bullet point.\n- Second bullet point.\n\n";
  }
  for (auto _ : state) {
    auto tree = ParseMarkdown(text);
    benchmark::DoNotOptimize(tree);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ParseMarkdown);

void BM_KeyedMatch(benchmark::State& state) {
  auto labels = std::make_shared<LabelTable>();
  Tree t1(labels), t2(labels);
  NodeId r1 = t1.AddRoot("db");
  NodeId r2 = t2.AddRoot("db");
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    t1.AddChild(r1, "rec", "key=k" + std::to_string(i) + " value a");
    // Reversed order in t2: keys still pair in O(n).
    t2.AddChild(r2, "rec", "key=k" + std::to_string(n - 1 - i) + " value b");
  }
  for (auto _ : state) {
    Matching m = ComputeKeyedMatch(t1, t2, ValuePrefixKey);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KeyedMatch)->Arg(256)->Arg(2048);

void BM_InvertScript(benchmark::State& state) {
  Workload w = MakeWorkload(8, 15);
  auto diff = DiffTrees(w.old_tree, w.new_tree);
  if (!diff.ok()) {
    state.SkipWithError("diff failed");
    return;
  }
  for (auto _ : state) {
    auto inverse = InvertScript(diff->script, w.old_tree);
    benchmark::DoNotOptimize(inverse);
  }
}
BENCHMARK(BM_InvertScript);

void BM_ScriptWireRoundTrip(benchmark::State& state) {
  Workload w = MakeWorkload(8, 15);
  auto diff = DiffTrees(w.old_tree, w.new_tree);
  if (!diff.ok()) {
    state.SkipWithError("diff failed");
    return;
  }
  for (auto _ : state) {
    std::string wire = FormatEditScript(diff->script, *w.labels);
    auto parsed = ParseEditScript(wire, w.labels.get());
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_ScriptWireRoundTrip);

void BM_VersionStoreCommit(benchmark::State& state) {
  static Vocabulary vocab(2000, 1.0);
  auto labels = std::make_shared<LabelTable>();
  Rng rng(999);
  DocGenParams params;
  params.sections = 8;
  Tree base = GenerateDocument(params, vocab, &rng, labels);
  SimulatedVersion next = SimulateNewVersion(base, 10, {}, vocab, &rng);
  for (auto _ : state) {
    VersionStore store(base.Clone());
    benchmark::DoNotOptimize(store.Commit(next.new_tree));
  }
}
BENCHMARK(BM_VersionStoreCommit);

}  // namespace
