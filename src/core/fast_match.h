#ifndef TREEDIFF_CORE_FAST_MATCH_H_
#define TREEDIFF_CORE_FAST_MATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/criteria.h"
#include "core/matching.h"
#include "tree/schema.h"
#include "tree/tree.h"

namespace treediff {

/// Matching Criterion 1's word-bag bound over one leaf chain (`s1` from T1,
/// `s2` from T2). An LCS of two word sequences never exceeds the multiset
/// intersection c of their bags, and WordDistance falls as c rises, so a
/// pair whose WordDistance(|x|, |y|, c) is already above f fails
/// compare(x, y) <= f exactly as the full comparison would. The comparator
/// supplies the bags (ValueComparator::WordBag); with one that supplies
/// none, every pair may pass.
///
/// Everything is built on demand, so a chain whose probes all meet equal
/// values (nearly identical, unseeded documents) pays nothing: the first
/// probe of unequal values reads s2's bags once (from the comparator's
/// token memo, so values an earlier diff tokenized are not tokenized
/// again), by chain position, into an inverted index from word id to (s2
/// position, count), and the first such probe in each s1 row fills that
/// row's candidate bitset from the index. Every later probe in the row is
/// a bit test. FastMatch keeps one per chain, so the scratch is freed when
/// the chain ends.
class LeafChainBound {
 public:
  /// Borrows all three arguments; they must outlive the bound.
  LeafChainBound(const CriteriaEvaluator& eval, const std::vector<NodeId>& s1,
                 const std::vector<NodeId>& s2)
      : eval_(eval), s1_(s1), s2_(s2) {}

  /// False only when compare(s1[i], s2[j]) > f is certain.
  bool MayPass(size_t i, size_t j);

 private:
  enum class State { kUnbuilt, kBuilt, kNoBound };
  static constexpr size_t kUnfilled = static_cast<size_t>(-1);

  /// `count` copies of word `word` in the bag at s2 position `pos`. Sorted
  /// by word, then position, the postings are the inverted index.
  struct Posting {
    int32_t word;
    uint32_t pos;
    uint32_t count;
  };

  /// Reads s2's bags into the inverted index. False (and no bound for the
  /// rest of the chain) when the comparator supplies no bags.
  bool Build();

  /// Sets bit j of row i iff WordDistance(|s1[i]|, |s2[j]|, c) <= f, where
  /// c is the multiset intersection of the two bags.
  void FillRow(size_t i);

  bool Bit(size_t i, size_t j) const {
    return (bits_[row_[i] + j / 64] >> (j % 64)) & 1;
  }

  const CriteriaEvaluator& eval_;
  const std::vector<NodeId>& s1_;
  const std::vector<NodeId>& s2_;
  State state_ = State::kUnbuilt;
  std::vector<uint32_t> words2_;     // Bag size per s2 position.
  std::vector<Posting> postings_;    // The inverted index.
  std::vector<uint32_t> by_size_;    // s2 positions ordered by bag size.
  std::vector<size_t> size_starts_;  // Where each size starts, plus the end.
  std::vector<size_t> row_;          // Offset of each s1 row in bits_.
  size_t row_words_ = 0;             // uint64_t words per row.
  std::vector<uint64_t> bits_;       // Filled candidate rows.
  std::vector<uint32_t> common_;     // Per-s2 intersection, row scratch.
  std::vector<uint32_t> touched_;    // Positions with common_ > 0.
  std::vector<int32_t> bag_;         // Tokenization scratch.
};

/// Algorithm FastMatch (Section 5.3, Figure 11). For each label l, the nodes
/// labeled l are chained in document order in both trees and an LCS of the
/// two chains (under the criteria equality) matches the nodes that appear in
/// the same relative order; only the leftovers fall back to the quadratic
/// Algorithm Match scan. When the trees are nearly alike — the common case —
/// almost everything is matched by the LCS pass, giving the
/// O((ne + e^2)c + 2lne) bound of Appendix B.
///
/// Leaf chains are processed before internal chains so that the
/// internal-node criterion (which counts matched leaf descendants) is
/// well-defined. If `schema` is non-null, labels are processed in ascending
/// schema rank for determinism; otherwise in label-id order.
///
/// `eval` carries thresholds, comparator, and instrumentation counters.
/// Leaf probes go through a LeafChainBound per chain, so only pairs the
/// word-bag bound cannot reject run the comparator; every probe is still
/// charged and counted in r1 exactly as without the bound.
///
/// `fallback_limit_k` implements the paper's Section 9 "parameterized
/// algorithm A(k)": each node left unmatched by the LCS pass examines at
/// most k candidates in the quadratic fallback scan (0 = unlimited, the
/// exact Figure 11 behaviour). Smaller k bounds the worst case at the cost
/// of possibly missing out-of-order matches — a controlled
/// optimality-for-efficiency trade (the result is still a correct matching,
/// only potentially smaller).
/// `seed`, when non-null, is the pre-matched region (the share-map
/// pre-pass's wholesale pairs): the returned matching extends a copy of it,
/// and every label chain is filtered down to unsettled nodes before the LCS
/// runs — the chains shrink to the changed regions, which is where the
/// incremental pipeline's work-proportional-to-edit behaviour comes from.
Matching ComputeFastMatch(const Tree& t1, const Tree& t2,
                          const CriteriaEvaluator& eval,
                          const LabelSchema* schema = nullptr,
                          int fallback_limit_k = 0,
                          const Matching* seed = nullptr);

}  // namespace treediff

#endif  // TREEDIFF_CORE_FAST_MATCH_H_
