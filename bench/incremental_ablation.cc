// Incremental ablation: pruned (ShareMode::kIndexed) against unpruned
// (ShareMode::kOff) diffing over version chains — v0 -> v1 -> ... -> vN,
// each version derived from the previous one at a fixed edit rate (1%, 5%,
// 20% of leaves touched). This is the O(changed) claim: with the share-map
// pre-pass, matching and generation cost should track the edit rate rather
// than the document size, so the 1%-chain speedup is the headline number.
//
// The byte-identity discipline rides along: for every chain link the
// kReference pre-pass (document-order scan, no fingerprint index) and the
// kIndexed pre-pass must produce byte-identical edit scripts, or the run
// exits 1. This is the same invariant tests/prune_identity_test.cc pins
// down, re-checked here on the benchmark's larger documents (including a
// chain where half the sentences repeat an earlier one), so the CI smoke
// step catches divergence at scale.
//
// A duplicate fan-out row rides along too: 64,000 identical sentences with
// one appended, diffed under kIndexed with a 500 ms deadline. The run
// exits 1 if that diff leaves the FastMatch rung, i.e. if the share-map
// pre-pass (which runs before the budget is consulted) stops being linear
// in duplicate content.
//
// Usage: incremental_ablation [--json] [--tiny]
//   --json   machine-readable rows (EXPERIMENTS.md / CI parsing)
//   --tiny   small documents and short chains (CI smoke: identity checking
//            matters, timings do not)

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/diff.h"
#include "core/script_io.h"
#include "util/budget.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace treediff;

struct Chain {
  std::string name;
  double edit_rate = 0.0;
  int leaves = 0;
  int edits_per_version = 0;
  std::vector<Tree> versions;  // versions[0] is the base.
};

std::vector<Chain> MakeChains(bool tiny, std::shared_ptr<LabelTable> labels) {
  Vocabulary vocab(3000, 1.0);
  Rng rng(20260808);
  const EditMix mix = bench::PaperEditMix();
  const int chain_length = tiny ? 3 : 8;

  DocGenParams params;
  params.sections = tiny ? 4 : 64;
  params.min_paragraphs_per_section = 4;
  params.max_paragraphs_per_section = 8;
  // A few duplicate sentences keep the share-map honest (near-collision
  // labels and values), matching the adversarial property-test workload.
  params.duplicate_sentence_probability = 0.1;
  Tree base = GenerateDocument(params, vocab, &rng, labels);
  // Half the sentences repeating an earlier one: long fingerprint chains
  // whose cursors travel far, the duplicate-heavy identity check. Its own
  // generator leaves the other chains' documents as they were.
  params.duplicate_sentence_probability = 0.5;
  Rng dup_rng(20260809);
  Tree dup_base = GenerateDocument(params, vocab, &dup_rng, labels);

  struct Spec {
    std::string name;
    double rate;
    const Tree* base;
  };
  const std::vector<Spec> specs = {{"1% edits", 0.01, &base},
                                   {"5% edits", 0.05, &base},
                                   {"20% edits", 0.20, &base},
                                   {"5% edits, dup 0.5", 0.05, &dup_base}};
  std::vector<Chain> chains;
  for (const Spec& spec : specs) {
    Chain chain;
    chain.name = spec.name;
    chain.edit_rate = spec.rate;
    chain.leaves = static_cast<int>(spec.base->Leaves().size());
    chain.edits_per_version = std::max(
        1, static_cast<int>(spec.rate * static_cast<double>(chain.leaves)));
    chain.versions.push_back(spec.base->Clone());
    for (int v = 0; v < chain_length; ++v) {
      SimulatedVersion next =
          SimulateNewVersion(chain.versions.back(), chain.edits_per_version,
                             mix, vocab, &rng);
      chain.versions.push_back(std::move(next.new_tree));
    }
    chains.push_back(std::move(chain));
  }
  return chains;
}

/// The duplicate fan-out: kLeaves identical sentences, one more in the new
/// version, diffed under kIndexed with a 500 ms deadline.
struct FanOut {
  static constexpr int kLeaves = 64000;
  double ms = 0.0;
  DiffRung rung = DiffRung::kFastMatch;
  size_t ops = 0;
};

FanOut RunFanOut(std::shared_ptr<LabelTable> labels) {
  Tree t1(labels);
  Tree t2(labels);
  const NodeId r1 = t1.AddRoot("D");
  const NodeId r2 = t2.AddRoot("D");
  for (int i = 0; i < FanOut::kLeaves; ++i) {
    t1.AddChild(r1, "S", "the same sentence again");
    t2.AddChild(r2, "S", "the same sentence again");
  }
  t2.AddChild(r2, "S", "the same sentence again");
  Budget budget = Budget::Deadline(0.5);
  DiffOptions options;
  options.share_mode = ShareMode::kIndexed;
  options.budget = &budget;
  WallTimer timer;
  auto result = DiffTrees(t1, t2, options);
  FanOut run;
  run.ms = timer.ElapsedMicros() / 1e3;
  if (!result.ok()) {
    std::fprintf(stderr, "DiffTrees failed (fan-out): %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  run.rung = result->report.rung;
  run.ops = result->script.size();
  return run;
}

/// Mean milliseconds per chain link for one ShareMode, plus the scripts so
/// the caller can assert identity across modes.
struct ModeRun {
  double total_ms = 0.0;
  size_t total_ops = 0;
  size_t settled_subtrees = 0;
  std::vector<std::string> scripts;
};

ModeRun RunChain(const Chain& chain, ShareMode mode, int reps) {
  ModeRun run;
  const LabelTable& labels = *chain.versions.front().label_table();
  for (size_t v = 0; v + 1 < chain.versions.size(); ++v) {
    const Tree& t1 = chain.versions[v];
    const Tree& t2 = chain.versions[v + 1];
    DiffOptions options;
    options.share_mode = mode;
    std::optional<DiffResult> result;
    WallTimer timer;
    for (int r = 0; r < reps; ++r) {
      auto attempt = DiffTrees(t1, t2, options);
      if (!attempt.ok()) {
        std::fprintf(stderr, "DiffTrees failed (%s): %s\n", chain.name.c_str(),
                     attempt.status().ToString().c_str());
        std::exit(1);
      }
      result.emplace(std::move(*attempt));
    }
    run.total_ms += timer.ElapsedMicros() / 1e3 / reps;
    run.total_ops += result->script.size();
    run.settled_subtrees += result->report.prune_settled_subtrees;
    run.scripts.push_back(FormatEditScript(result->script, labels));
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--tiny") == 0) {
      tiny = true;
    } else {
      std::fprintf(stderr, "usage: incremental_ablation [--json] [--tiny]\n");
      return 2;
    }
  }

  auto labels = std::make_shared<LabelTable>();
  std::vector<Chain> chains = MakeChains(tiny, labels);
  const int reps = tiny ? 1 : 5;

  struct Row {
    std::string name;
    int leaves, edits, links;
    double off_ms, idx_ms, speedup;
    size_t ops, settled;
  };
  std::vector<Row> rows;
  bool all_identical = true;

  for (const Chain& chain : chains) {
    const ModeRun off = RunChain(chain, ShareMode::kOff, reps);
    const ModeRun ref = RunChain(chain, ShareMode::kReference, /*reps=*/1);
    const ModeRun idx = RunChain(chain, ShareMode::kIndexed, reps);

    // The pruned-vs-unpruned identity discipline: reference and indexed
    // pre-passes must serve byte-identical scripts on every chain link.
    for (size_t v = 0; v < idx.scripts.size(); ++v) {
      if (ref.scripts[v] != idx.scripts[v]) {
        std::fprintf(stderr,
                     "IDENTITY FAILURE: %s link v%zu->v%zu: kReference and "
                     "kIndexed scripts diverge\n",
                     chain.name.c_str(), v, v + 1);
        all_identical = false;
      }
    }

    Row row;
    row.name = chain.name;
    row.leaves = chain.leaves;
    row.edits = chain.edits_per_version;
    row.links = static_cast<int>(chain.versions.size()) - 1;
    row.off_ms = off.total_ms;
    row.idx_ms = idx.total_ms;
    row.speedup = idx.total_ms > 0 ? off.total_ms / idx.total_ms : 0.0;
    row.ops = idx.total_ops;
    row.settled = idx.settled_subtrees;
    rows.push_back(std::move(row));
  }

  if (!all_identical) {
    std::fprintf(stderr, "incremental_ablation: FAILED (script divergence)\n");
    return 1;
  }

  const FanOut fan_out = RunFanOut(labels);
  if (fan_out.rung != DiffRung::kFastMatch) {
    std::fprintf(stderr,
                 "incremental_ablation: FAILED (duplicate fan-out fell to %s "
                 "after %.1f ms)\n",
                 DiffRungName(fan_out.rung), fan_out.ms);
    return 1;
  }

  if (json) {
    std::printf("[\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::printf(
          "  {\"chain\": \"%s\", \"leaves\": %d, \"edits_per_version\": %d, "
          "\"links\": %d, \"unpruned_ms\": %.3f, \"pruned_ms\": %.3f, "
          "\"speedup\": %.2f, \"ops\": %zu, \"settled_subtrees\": %zu, "
          "\"identical\": true},\n",
          r.name.c_str(), r.leaves, r.edits, r.links, r.off_ms, r.idx_ms,
          r.speedup, r.ops, r.settled);
    }
    std::printf(
        "  {\"chain\": \"duplicate fan-out\", \"leaves\": %d, "
        "\"deadline_ms\": 500, \"pruned_ms\": %.3f, \"rung\": \"%s\", "
        "\"ops\": %zu}\n",
        FanOut::kLeaves, fan_out.ms, DiffRungName(fan_out.rung), fan_out.ops);
    std::printf("]\n");
    return 0;
  }

  std::printf("Incremental ablation: pruned (share-map) vs unpruned diffing "
              "over version chains\n");
  std::printf("(%d links per chain, scripts byte-identical reference vs "
              "indexed)\n\n",
              rows.empty() ? 0 : rows.front().links);
  TablePrinter table({"chain", "leaves", "edits/v", "unpruned ms",
                      "pruned ms", "speedup", "ops", "settled"});
  for (const Row& r : rows) {
    table.AddRow({r.name, TablePrinter::Fmt(static_cast<int64_t>(r.leaves)),
                  TablePrinter::Fmt(static_cast<int64_t>(r.edits)),
                  TablePrinter::Fmt(r.off_ms, 2),
                  TablePrinter::Fmt(r.idx_ms, 2),
                  TablePrinter::Fmt(r.speedup, 2) + "x",
                  TablePrinter::Fmt(r.ops), TablePrinter::Fmt(r.settled)});
  }
  table.Print();
  std::printf("\nAll chain links byte-identical across pre-pass "
              "implementations.\n");
  std::printf("Duplicate fan-out (%d identical sentences + 1, kIndexed, "
              "500 ms deadline): %.2f ms, rung %s, %zu op(s).\n",
              FanOut::kLeaves, fan_out.ms, DiffRungName(fan_out.rung),
              fan_out.ops);
  return 0;
}
