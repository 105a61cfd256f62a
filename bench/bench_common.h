#ifndef TREEDIFF_BENCH_BENCH_COMMON_H_
#define TREEDIFF_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "gen/doc_gen.h"
#include "gen/edit_sim.h"
#include "tree/tree.h"
#include "util/random.h"

namespace treediff {
namespace bench {

/// A synthetic "document set" standing in for one of the paper's three sets
/// of conference-paper versions (Section 8): a base document plus the knobs
/// used to derive versions from it.
struct DocumentSet {
  std::string name;
  Tree base;
  int leaves = 0;
};

/// The edit mix used by the Section 8 experiments: mostly sentence rewrites,
/// some structural churn, and occasional section-level restructuring (whose
/// large subtree moves are what make the weighted distance e exceed the op
/// count d in Figure 13(a)).
inline EditMix PaperEditMix() {
  EditMix mix;
  mix.update_sentence = 0.32;
  mix.insert_sentence = 0.13;
  mix.delete_sentence = 0.13;
  mix.move_sentence = 0.08;
  mix.move_paragraph = 0.14;
  mix.insert_paragraph = 0.04;
  mix.delete_paragraph = 0.04;
  mix.move_section = 0.12;
  return mix;
}

/// A sentence-level-only mix (no subtree moves): the regime where e stays
/// small and proportional to the edit count, used by the scaling and
/// Match-vs-FastMatch benches to isolate the O(ne) behaviour from the
/// chain-shuffling that large subtree moves cause.
inline EditMix SentenceEditMix() {
  EditMix mix;
  mix.update_sentence = 0.40;
  mix.insert_sentence = 0.25;
  mix.delete_sentence = 0.25;
  mix.move_sentence = 0.10;
  mix.move_paragraph = 0.0;
  mix.insert_paragraph = 0.0;
  mix.delete_paragraph = 0.0;
  mix.move_section = 0.0;
  return mix;
}

/// Builds the three document sets (small/medium/large), all sharing one
/// label table so versions can be diffed.
inline std::vector<DocumentSet> MakeDocumentSets(
    const Vocabulary& vocab, std::shared_ptr<LabelTable> labels) {
  std::vector<DocumentSet> sets;
  struct Shape {
    const char* name;
    int sections;
    int min_paras, max_paras;
  };
  // Section shapes are identical across sets (only the section count
  // differs), so the per-edit weight distribution — and hence e/d — should
  // be insensitive to document size, the property Figure 13(a) reports.
  const Shape shapes[] = {{"set-1 (small)", 4, 4, 8},
                          {"set-2 (medium)", 10, 4, 8},
                          {"set-3 (large)", 20, 4, 8}};
  uint64_t seed = 1000;
  for (const Shape& shape : shapes) {
    Rng rng(seed++);
    DocGenParams params;
    params.sections = shape.sections;
    params.min_paragraphs_per_section = shape.min_paras;
    params.max_paragraphs_per_section = shape.max_paras;
    DocumentSet set;
    set.name = shape.name;
    set.base = GenerateDocument(params, vocab, &rng, labels);
    set.leaves = static_cast<int>(set.base.Leaves().size());
    sets.push_back(std::move(set));
  }
  return sets;
}

/// `doc`, a generated s-expression document, with its root value set to
/// "request <index>": a text no other index produces, with the same diff
/// as the untagged pair (equal root values cost nothing). The generated
/// root carries no value, so this only inserts one after the root label.
/// Exits the program if `doc` is not such a document.
inline std::string TagRoot(const std::string& doc, uint64_t index) {
  static const std::string kRoot = "(document ";
  if (doc.compare(0, kRoot.size(), kRoot) != 0) {
    std::fprintf(stderr, "bench: document does not start with %s\n",
                 kRoot.c_str());
    std::exit(1);
  }
  return kRoot + "\"request " + std::to_string(index) + "\" " +
         doc.substr(kRoot.size());
}

}  // namespace bench
}  // namespace treediff

#endif  // TREEDIFF_BENCH_BENCH_COMMON_H_
