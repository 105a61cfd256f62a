#ifndef TREEDIFF_CORE_COMPARE_H_
#define TREEDIFF_CORE_COMPARE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tree/tree.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

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

/// One value's tokenization: the word-id sequence plus every (id,
/// position) pair sorted by id, then position — each distinct id's
/// ascending positions, contiguous, for the Hunt–Szymanski LCS. It keeps
/// the bytes it was made from, so a memo hit is confirmed against the value
/// it stands for, never trusted on its hash alone. Immutable once
/// published.
struct TokenEntry {
  std::string value;
  std::vector<int32_t> ids;
  std::vector<std::pair<int32_t, int32_t>> positions;
};

/// The shared part of the LaDiff comparator: a thread-safe, bounded memo of
/// tokenized values and the word dictionary their ids come from, so a value
/// is tokenized once per memo rather than once per diff. Entries are keyed
/// by 64-bit value hash and confirmed by their bytes on every lookup: a
/// colliding hash is tokenized afresh, so a collision can never change a
/// distance. Word ids are exactly interned within one generation, so
/// distances, bounds and scripts are those of a fresh comparator.
///
/// The word mode belongs to the memo: every entry of one memo is tokenized
/// the same way (see WordLcsComparator for `normalize_words`), so the
/// comparators that share a memo share its mode.
///
/// Memory is bounded by generations. Once a generation's entries and words
/// reach `capacity_bytes` it stops publishing, and the next Pin starts a
/// fresh one; the full one is freed wholesale when the last diff pinned to
/// it ends. A diff pins one generation for its whole run, so ids from two
/// dictionaries never meet in one comparison. The first generation is
/// allocated on the first Pin.
class TokenMemo {
 public:
  class Generation;

  struct Stats {
    uint64_t generations = 0;  // Generations started so far.
    uint64_t hits = 0;         // Lookups served by a published entry.
    uint64_t misses = 0;       // Lookups that tokenized.
    uint64_t collisions = 0;   // Misses whose hash held other bytes.
    size_t bytes = 0;          // Charged to the current generation.
    size_t entries = 0;        // Published in the current generation.
  };

  explicit TokenMemo(size_t capacity_bytes, bool normalize_words = false)
      : capacity_bytes_(capacity_bytes), normalize_words_(normalize_words) {}

  TokenMemo(const TokenMemo&) = delete;
  TokenMemo& operator=(const TokenMemo&) = delete;

  /// The generation a new diff uses: the current one, or a fresh one when
  /// there is none yet or the current one is full.
  std::shared_ptr<Generation> Pin() EXCLUDES(mu_);

  Stats stats() const EXCLUDES(mu_);

 private:
  /// Lookup outcomes, summed over every generation.
  struct Counters {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> collisions{0};
  };

  const size_t capacity_bytes_;
  const bool normalize_words_;
  Counters counters_;
  mutable Mutex mu_;
  std::shared_ptr<Generation> current_ GUARDED_BY(mu_);
  uint64_t generations_ GUARDED_BY(mu_) = 0;
};

/// One dictionary and the entries tokenized against it. Thread-safe: one
/// mutex guards the entry table and the dictionary, taken once per lookup
/// and once more per tokenized value. Published entries never move or
/// change until the generation is destroyed.
class TokenMemo::Generation {
 public:
  Generation(size_t capacity_bytes, bool normalize_words, Counters* counters)
      : capacity_bytes_(capacity_bytes),
        normalize_words_(normalize_words),
        counters_(counters) {}

  Generation(const Generation&) = delete;
  Generation& operator=(const Generation&) = delete;

  /// The tokenization of `value` (whose hash is `hash`). A published entry
  /// is returned when its bytes match; otherwise the value is tokenized and
  /// the new entry published, unless the generation is full or `hash`
  /// already holds other bytes — then the entry is moved into
  /// `*unpublished` and returned from there, owned by the caller.
  const TokenEntry* Tokens(uint64_t hash, std::string_view value,
                           std::unique_ptr<TokenEntry>* unpublished)
      EXCLUDES(mu_);

  /// True once the charged bytes reach the capacity: nothing more is
  /// published, and TokenMemo::Pin replaces the generation.
  bool full() const {
    return bytes_.load(std::memory_order_relaxed) >= capacity_bytes_;
  }

 private:
  friend class TokenMemo;

  /// Appends the ids of `words` to `*ids`, interning those seen for the
  /// first time (moved out of `*words`).
  void Intern(std::vector<std::string>* words, std::vector<int32_t>* ids)
      REQUIRES(mu_);

  const size_t capacity_bytes_;
  const bool normalize_words_;
  Counters* const counters_;
  Mutex mu_;
  std::unordered_map<uint64_t, TokenEntry> entries_ GUARDED_BY(mu_);
  std::unordered_map<std::string, int32_t> words_ GUARDED_BY(mu_);
  std::atomic<size_t> bytes_{0};
  std::atomic<size_t> published_{0};
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
///  * tokenization memo — values tokenize once per distinct *content*, in a
///    TokenMemo that may outlive the comparator and serve many diffs.
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
/// The comparator itself is the per-diff part: the pair memo and a hash ->
/// entry map over the generation it pinned at construction. Within one
/// comparator a hash stands for one value, as in any fingerprint scheme; a
/// shared memo entry is only taken after its bytes match. Not thread-safe:
/// the per-diff maps mutate under const calls, so each diff constructs its
/// own (the DiffContext default), over the TokenMemo it is lent
/// (DiffOptions::token_memo) or over a private one.
class WordLcsComparator : public ValueComparator {
 public:
  /// Tokenizes into a private memo of its own. If `normalize_words` is
  /// true, words are lowercased and stripped of surrounding punctuation
  /// before comparison, so small editorial changes ("The," vs "the") do not
  /// register.
  explicit WordLcsComparator(bool normalize_words = false);

  /// Tokenizes through `memo`, in its word mode, pinning its current
  /// generation for the comparator's lifetime; a private memo in the
  /// default mode when null. `memo` must outlive the comparator.
  explicit WordLcsComparator(TokenMemo* memo);

  bool WordBag(const Tree& t, NodeId x,
               std::vector<int32_t>* ids) const override;

 protected:
  double CompareImpl(const Tree& t1, NodeId x, const Tree& t2,
                     NodeId y) const override;

 private:
  /// The tokenization of v(x), whose hash is `value_hash`.
  const TokenEntry& Tokens(const Tree& t, NodeId x, uint64_t value_hash) const;

  std::unique_ptr<TokenMemo> owned_memo_;
  std::shared_ptr<TokenMemo::Generation> generation_;
  // Entries this diff tokenized but could not publish.
  mutable std::vector<std::unique_ptr<TokenEntry>> unpublished_;
  mutable std::unordered_map<uint64_t, const TokenEntry*> entries_;
  mutable std::unordered_map<uint64_t, double> pair_cache_;
};

}  // namespace treediff

#endif  // TREEDIFF_CORE_COMPARE_H_
