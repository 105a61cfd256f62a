#ifndef TREEDIFF_CORE_COMPARE_H_
#define TREEDIFF_CORE_COMPARE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tree/tree.h"

namespace treediff {

/// The paper's `compare` function (Section 3.2): given two nodes, returns a
/// distance in [0, 2] between their values. Distances <= 1 mean "similar
/// enough that move+update beats delete+insert"; distances > 1 mean the
/// opposite. Implementations must be symmetric in the values.
///
/// Calls are counted (the r1 term of the Section 8 cost model); counters are
/// mutable so that const evaluators can be instrumented. Counting happens in
/// the non-virtual Compare wrapper, before any memoization, so cached and
/// uncached invocations are indistinguishable to the counter.
class ValueComparator {
 public:
  virtual ~ValueComparator() = default;

  /// Returns the distance in [0, 2] between v(x) in `t1` and v(y) in `t2`.
  double Compare(const Tree& t1, NodeId x, const Tree& t2, NodeId y) const {
    ++calls_;
    return CompareImpl(t1, x, t2, y);
  }

  /// Number of Compare invocations since construction or ResetCalls.
  size_t calls() const { return calls_; }
  void ResetCalls() { calls_ = 0; }

 protected:
  virtual double CompareImpl(const Tree& t1, NodeId x, const Tree& t2,
                             NodeId y) const = 0;

 private:
  mutable size_t calls_ = 0;
};

/// Exact comparison: distance 0 when the values are byte-identical, 2
/// otherwise. The natural choice for keyed or atomic values. When both trees
/// carry a TreeIndex, unequal value hashes answer "not equal" without
/// touching the strings.
class ExactComparator : public ValueComparator {
 protected:
  double CompareImpl(const Tree& t1, NodeId x, const Tree& t2,
                     NodeId y) const override;
};

/// The LaDiff sentence comparator (Section 7): computes the LCS of the words
/// of the two sentences and counts the words not in the LCS, normalized into
/// [0, 2] as (|a| + |b| - 2*|LCS|) / max(|a|, |b|). Identical sentences score
/// 0, disjoint sentences approach 2.
///
/// Three layers of memoization, all keyed by 64-bit value hashes (served
/// from an attached TreeIndex when present, recomputed otherwise):
///
///  * equality fast path — equal hashes short-circuit to a single string
///    compare; unequal hashes skip string equality entirely;
///  * tokenization memo — values tokenize once per distinct *content* (the
///    seed tokenized once per (tree, node), so identical sentences at
///    different nodes tokenized repeatedly). Words are interned to dense
///    int32 ids and each entry keeps its tokens' positions sorted by id, so
///    the LCS length is computed by Hunt–Szymanski (LIS over match
///    positions) in O(|a| log |b| + r log r), where r is the number of
///    matching position pairs.
///    Matching probes mostly compare unrelated sentences, for which r is
///    near zero — where Myers' O((|a| + |b|) * D) is at its quadratic
///    worst — and the LCS length (hence the distance) is exact either way;
///  * pair memo — the distance for an unordered pair of value hashes is
///    computed once, however many node pairs share that content.
///
/// Hash-keyed caching stays correct across value updates (a changed value
/// changes its hash) but, like any fingerprint scheme, trusts 64-bit hashes
/// not to collide. Compare() counting is unaffected by cache hits.
class WordLcsComparator : public ValueComparator {
 public:
  /// If `normalize_words` is true, words are lowercased and stripped of
  /// surrounding punctuation before comparison, so small editorial changes
  /// ("The," vs "the") do not register.
  explicit WordLcsComparator(bool normalize_words = false)
      : normalize_words_(normalize_words) {}

 protected:
  double CompareImpl(const Tree& t1, NodeId x, const Tree& t2,
                     NodeId y) const override;

 private:
  /// One memoized tokenization: the word-id sequence plus every (id,
  /// position) pair sorted by id, then position — each distinct id's
  /// ascending positions, contiguous, for the Hunt–Szymanski LCS. One flat
  /// array, so tokenizing a value allocates per entry, not per word.
  struct TokenEntry {
    std::vector<int32_t> ids;
    std::vector<std::pair<int32_t, int32_t>> positions;
  };

  /// Tokenizes v(x) (memoized by `value_hash`) into interned word ids.
  const TokenEntry& Tokens(const Tree& t, NodeId x, uint64_t value_hash) const;

  bool normalize_words_;
  mutable std::unordered_map<uint64_t, TokenEntry> token_cache_;
  mutable std::unordered_map<uint64_t, double> pair_cache_;
  mutable std::unordered_map<std::string, int32_t> word_ids_;
};

}  // namespace treediff

#endif  // TREEDIFF_CORE_COMPARE_H_
