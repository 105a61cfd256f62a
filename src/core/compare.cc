#include "core/compare.h"

#include <algorithm>
#include <cstdint>

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

namespace {

/// Approximate heap cost of a published entry or an interned word: the
/// owned buffers plus per-node hash-table overhead.
constexpr size_t kNodeOverhead = 48;

size_t EntryBytes(const TokenEntry& entry) {
  return sizeof(TokenEntry) + kNodeOverhead + entry.value.capacity() +
         entry.ids.capacity() * sizeof(int32_t) +
         entry.positions.capacity() * sizeof(std::pair<int32_t, int32_t>);
}

}  // namespace

std::shared_ptr<TokenMemo::Generation> TokenMemo::Pin() {
  std::shared_ptr<Generation> retired;  // Freed after the lock drops.
  MutexLock lock(&mu_);
  if (current_ == nullptr || current_->full()) {
    retired = std::exchange(current_, std::make_shared<Generation>(
                                          capacity_bytes_, normalize_words_,
                                          &counters_));
    ++generations_;
  }
  return current_;
}

TokenMemo::Stats TokenMemo::stats() const {
  Stats s;
  s.hits = counters_.hits.load(std::memory_order_relaxed);
  s.misses = counters_.misses.load(std::memory_order_relaxed);
  s.collisions = counters_.collisions.load(std::memory_order_relaxed);
  MutexLock lock(&mu_);
  s.generations = generations_;
  if (current_ != nullptr) {
    s.bytes = current_->bytes_.load(std::memory_order_relaxed);
    s.entries = current_->published_.load(std::memory_order_relaxed);
  }
  return s;
}

void TokenMemo::Generation::Intern(std::vector<std::string>* words,
                                   std::vector<int32_t>* ids) {
  ids->reserve(words->size());
  for (std::string& word : *words) {
    auto [it, inserted] = words_.try_emplace(
        std::move(word), static_cast<int32_t>(words_.size()));
    if (inserted) {
      bytes_.fetch_add(
          sizeof(std::string) + kNodeOverhead + it->first.capacity(),
          std::memory_order_relaxed);
    }
    ids->push_back(it->second);
  }
}

const TokenEntry* TokenMemo::Generation::Tokens(
    uint64_t hash, std::string_view value,
    std::unique_ptr<TokenEntry>* unpublished) {
  const TokenEntry* found = nullptr;
  {
    MutexLock lock(&mu_);
    auto it = entries_.find(hash);
    if (it != entries_.end()) found = &it->second;
  }
  // Published entries never change, so the byte check needs no lock.
  if (found != nullptr && found->value == value) {
    counters_->hits.fetch_add(1, std::memory_order_relaxed);
    return found;
  }
  counters_->misses.fetch_add(1, std::memory_order_relaxed);

  TokenEntry entry;
  entry.value.assign(value);
  std::vector<std::string> words = SplitWords(value, normalize_words_);
  {
    MutexLock lock(&mu_);
    Intern(&words, &entry.ids);
  }
  entry.positions.reserve(entry.ids.size());
  for (size_t i = 0; i < entry.ids.size(); ++i) {
    entry.positions.emplace_back(entry.ids[i], static_cast<int32_t>(i));
  }
  std::sort(entry.positions.begin(), entry.positions.end());

  if (found == nullptr && !full()) {
    const size_t charge = EntryBytes(entry);
    MutexLock lock(&mu_);
    // try_emplace leaves `entry` untouched when a racing diff got there
    // first; that entry is used if it holds the same bytes.
    auto [it, inserted] = entries_.try_emplace(hash, std::move(entry));
    if (inserted) {
      bytes_.fetch_add(charge, std::memory_order_relaxed);
      published_.fetch_add(1, std::memory_order_relaxed);
      return &it->second;
    }
    found = &it->second;
    if (found->value == value) return found;
  }
  if (found != nullptr) {
    counters_->collisions.fetch_add(1, std::memory_order_relaxed);
  }
  *unpublished = std::make_unique<TokenEntry>(std::move(entry));
  return unpublished->get();
}

WordLcsComparator::WordLcsComparator(bool normalize_words)
    : owned_memo_(std::make_unique<TokenMemo>(SIZE_MAX, normalize_words)),
      generation_(owned_memo_->Pin()) {}

WordLcsComparator::WordLcsComparator(TokenMemo* memo) {
  if (memo == nullptr) {
    owned_memo_ = std::make_unique<TokenMemo>(SIZE_MAX);
    memo = owned_memo_.get();
  }
  generation_ = memo->Pin();
}

const TokenEntry& WordLcsComparator::Tokens(const Tree& t, NodeId x,
                                            uint64_t value_hash) const {
  auto [it, inserted] = entries_.try_emplace(value_hash, nullptr);
  if (!inserted) return *it->second;
  std::unique_ptr<TokenEntry> unpublished;
  it->second = generation_->Tokens(value_hash, t.value(x), &unpublished);
  if (unpublished != nullptr) unpublished_.push_back(std::move(unpublished));
  return *it->second;
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
  const TokenEntry& a = Tokens(t1, x, hx);
  const TokenEntry& b = Tokens(t2, y, hy);
  const size_t common = LcsLengthByPositions(a.ids, b.positions);
  const double d = WordDistance(a.ids.size(), b.ids.size(), common);
  pair_cache_.emplace(pair, d);
  return d;
}

}  // namespace treediff
