#include "core/compare.h"

#include <algorithm>

#include "tree/tree_index.h"
#include "util/tokenize.h"

namespace treediff {

double ExactComparator::CompareImpl(const Tree& t1, NodeId x, const Tree& t2,
                                    NodeId y) const {
  // Hash-first: with indexed trees an unequal hash proves inequality for
  // free; only equal hashes fall through to the byte compare. Without
  // indexes, hashing would cost as much as comparing, so don't.
  const TreeIndex* i1 = t1.attached_index();
  const TreeIndex* i2 = t2.attached_index();
  if (i1 != nullptr && i2 != nullptr && i1->ValueHash(x) != i2->ValueHash(y)) {
    return 2.0;
  }
  return t1.value(x) == t2.value(y) ? 0.0 : 2.0;
}

const WordLcsComparator::TokenEntry& WordLcsComparator::Tokens(
    const Tree& t, NodeId x, uint64_t value_hash) const {
  auto it = token_cache_.find(value_hash);
  if (it != token_cache_.end()) return it->second;
  TokenEntry entry;
  for (std::string& word : SplitWords(t.value(x), normalize_words_)) {
    auto [w, inserted] = word_ids_.try_emplace(
        std::move(word), static_cast<int32_t>(word_ids_.size()));
    entry.ids.push_back(w->second);
  }
  entry.positions.reserve(entry.ids.size());
  for (size_t i = 0; i < entry.ids.size(); ++i) {
    entry.positions.emplace_back(entry.ids[i], static_cast<int32_t>(i));
  }
  std::sort(entry.positions.begin(), entry.positions.end());
  return token_cache_.emplace(value_hash, std::move(entry)).first->second;
}

double WordDistance(size_t a_words, size_t b_words, size_t common) {
  if (a_words == 0 && b_words == 0) return 0.0;
  const double total_off = static_cast<double>(a_words + b_words) -
                           2.0 * static_cast<double>(common);
  return total_off / static_cast<double>(std::max(a_words, b_words));
}

bool WordLcsComparator::WordBag(const Tree& t, NodeId x,
                                std::vector<int32_t>* ids) const {
  // `positions` is sorted by id, so its first members are the bag in order.
  const TokenEntry& entry = Tokens(t, x, NodeValueHash(t, x));
  for (const auto& [id, position] : entry.positions) ids->push_back(id);
  return true;
}

namespace {

/// Hunt–Szymanski LCS length: for each token of `a` in order, take its
/// positions in `b` in descending order; the LCS is the longest strictly
/// increasing subsequence of that stream, found by patience sorting. Exact
/// for any inputs, and O(|a| log |b| + r log r) where r is the number of
/// matching position pairs — near zero for the unrelated sentences that
/// dominate matching probes (exactly where Myers' O((|a| + |b|) * D) is
/// quadratic).
size_t LcsLengthByPositions(
    const std::vector<int32_t>& a,
    const std::vector<std::pair<int32_t, int32_t>>& b_positions) {
  std::vector<int32_t> tails;
  for (int32_t token : a) {
    // b's positions of `token`: a contiguous run, ascending.
    const auto first = std::lower_bound(
        b_positions.begin(), b_positions.end(), token,
        [](const std::pair<int32_t, int32_t>& e, int32_t id) {
          return e.first < id;
        });
    auto p = first;
    while (p != b_positions.end() && p->first == token) ++p;
    while (p != first) {
      --p;
      const auto slot =
          std::lower_bound(tails.begin(), tails.end(), p->second);
      if (slot == tails.end()) {
        tails.push_back(p->second);
      } else {
        *slot = p->second;
      }
    }
  }
  return tails.size();
}

/// Order-insensitive combination of two value hashes into one pair key.
uint64_t PairKey(uint64_t ha, uint64_t hb) {
  const uint64_t lo = std::min(ha, hb);
  const uint64_t hi = std::max(ha, hb);
  return lo ^ (hi + 0x9e3779b97f4a7c15ULL + (lo << 6) + (lo >> 2));
}

}  // namespace

double WordLcsComparator::CompareImpl(const Tree& t1, NodeId x, const Tree& t2,
                                      NodeId y) const {
  const uint64_t hx = NodeValueHash(t1, x);
  const uint64_t hy = NodeValueHash(t2, y);
  // Fast path: identical strings need no tokenization. Unequal hashes prove
  // the strings differ, so the byte compare runs only on a hash match.
  if (hx == hy && t1.value(x) == t2.value(y)) return 0.0;
  const uint64_t pair = PairKey(hx, hy);
  auto hit = pair_cache_.find(pair);
  if (hit != pair_cache_.end()) return hit->second;
  // Materialize both token entries before taking references: the second
  // Tokens call may rehash token_cache_.
  Tokens(t1, x, hx);
  Tokens(t2, y, hy);
  const TokenEntry& a = token_cache_.find(hx)->second;
  const TokenEntry& b = token_cache_.find(hy)->second;
  const size_t common = LcsLengthByPositions(a.ids, b.positions);
  const double d = WordDistance(a.ids.size(), b.ids.size(), common);
  pair_cache_.emplace(pair, d);
  return d;
}

}  // namespace treediff
