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
/// A comparator keeps no counters: the r1 term of the Section 8 cost model
/// is counted per CriteriaEvaluator, so one stateless comparator may serve
/// concurrent diffs.
class ValueComparator {
 public:
  virtual ~ValueComparator() = default;

  /// Returns the distance in [0, 2] between v(x) in `t1` and v(y) in `t2`.
  double Compare(const Tree& t1, NodeId x, const Tree& t2, NodeId y) const {
    return CompareImpl(t1, x, t2, y);
  }

  /// FastMatch's leaf bound. A comparator that returns true appends the
  /// word ids of v(x), ascending, to `*ids`, and promises that for any two
  /// values with such bags a and b, Compare is never below
  /// WordDistance(|a|, |b|, |a ∩ b|) (multiset sizes). FastMatch then skips
  /// the Compare of a pair whose bound already exceeds f. The default,
  /// false, means "no bound": every probe runs Compare.
  virtual bool WordBag(const Tree& /*t*/, NodeId /*x*/,
                       std::vector<int32_t>* /*ids*/) const {
    return false;
  }

 protected:
  virtual double CompareImpl(const Tree& t1, NodeId x, const Tree& t2,
                             NodeId y) const = 0;
};

/// The LaDiff sentence distance over word counts: (|a| + |b| - 2 * common)
/// / max(|a|, |b|), or 0 when both values have no words. Falls as `common`
/// rises, so a larger `common` (a bag intersection bounding the LCS) can
/// only lower it.
double WordDistance(size_t a_words, size_t b_words, size_t common);

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
/// [0, 2] as WordDistance(|a|, |b|, |LCS|). Identical sentences score 0,
/// disjoint sentences approach 2.
///
/// Three layers of memoization, all keyed by 64-bit value hashes (served
/// from an attached TreeIndex when present, recomputed otherwise):
///
///  * equality fast path — equal hashes short-circuit to a single string
///    compare; unequal hashes skip string equality entirely;
///  * tokenization memo — values tokenize once per distinct *content*.
///    Words are interned to dense int32 ids and each entry keeps its
///    tokens' positions sorted by id, so the LCS length is computed by
///    Hunt–Szymanski (LIS over match positions) in O(|a| log |b| + r log r),
///    where r is the number of matching position pairs;
///  * pair memo — the distance for an unordered pair of value hashes is
///    computed once, however many node pairs share that content.
///
/// WordBag serves the same memoized tokens as a sorted id bag. An LCS never
/// exceeds the multiset intersection of the two bags, so WordDistance over
/// that intersection bounds the distance from below: FastMatch uses it to
/// reject, without an LCS or a memo entry, the unrelated sentence pairs
/// that make up most of its probes.
///
/// Hash-keyed caching stays correct across value updates (a changed value
/// changes its hash) but, like any fingerprint scheme, trusts 64-bit hashes
/// not to collide. Not thread-safe: the memos mutate under const calls, so
/// each diff owns one (the DiffContext default).
class WordLcsComparator : public ValueComparator {
 public:
  /// If `normalize_words` is true, words are lowercased and stripped of
  /// surrounding punctuation before comparison, so small editorial changes
  /// ("The," vs "the") do not register.
  explicit WordLcsComparator(bool normalize_words = false)
      : normalize_words_(normalize_words) {}

  bool WordBag(const Tree& t, NodeId x,
               std::vector<int32_t>* ids) const override;

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
