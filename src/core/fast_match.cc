#include "core/fast_match.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <vector>

#include "lcs/lcs.h"

namespace treediff {

bool LeafChainBound::MayPass(size_t i, size_t j) {
  if (state_ == State::kNoBound) return true;
  if (state_ == State::kBuilt && row_[i] != kUnfilled) return Bit(i, j);
  // Equal values take the comparator's own equality fast path; no row is
  // worth filling for them.
  const uint64_t h1 = eval_.index1().ValueHash(s1_[i]);
  if (h1 == eval_.index2().ValueHash(s2_[j])) return true;
  if (state_ == State::kUnbuilt && !Build()) return true;
  if (row_[i] == kUnfilled) FillRow(i);
  return Bit(i, j);
}

namespace {

/// Calls fn(word, count) for each distinct word of an ascending bag.
template <typename Fn>
void ForEachRun(const std::vector<int32_t>& bag, Fn fn) {
  for (size_t k = 0; k < bag.size();) {
    size_t end = k + 1;
    while (end < bag.size() && bag[end] == bag[k]) ++end;
    fn(bag[k], static_cast<uint32_t>(end - k));
    k = end;
  }
}

}  // namespace

bool LeafChainBound::Build() {
  const ValueComparator& cmp = eval_.comparator();
  const Tree& t2 = eval_.index2().tree();
  words2_.resize(s2_.size());
  for (size_t j = 0; j < s2_.size(); ++j) {
    bag_.clear();
    if (!cmp.WordBag(t2, s2_[j], &bag_)) {
      state_ = State::kNoBound;
      return false;
    }
    words2_[j] = static_cast<uint32_t>(bag_.size());
    ForEachRun(bag_, [&](int32_t word, uint32_t count) {
      postings_.push_back({word, static_cast<uint32_t>(j), count});
    });
  }
  std::sort(postings_.begin(), postings_.end(),
            [](const Posting& a, const Posting& b) {
              return a.word != b.word ? a.word < b.word : a.pos < b.pos;
            });
  // s2 positions grouped by bag size: a row decides every position it
  // shares no word with from the two sizes alone.
  by_size_.resize(s2_.size());
  std::iota(by_size_.begin(), by_size_.end(), 0u);
  std::sort(by_size_.begin(), by_size_.end(), [&](uint32_t a, uint32_t b) {
    return words2_[a] != words2_[b] ? words2_[a] < words2_[b] : a < b;
  });
  for (size_t k = 0; k < by_size_.size(); ++k) {
    if (k == 0 || words2_[by_size_[k]] != words2_[by_size_[k - 1]]) {
      size_starts_.push_back(k);
    }
  }
  size_starts_.push_back(by_size_.size());
  common_.assign(s2_.size(), 0);
  row_.assign(s1_.size(), kUnfilled);
  row_words_ = (s2_.size() + 63) / 64;
  state_ = State::kBuilt;
  return true;
}

void LeafChainBound::FillRow(size_t i) {
  bag_.clear();
  eval_.comparator().WordBag(eval_.index1().tree(), s1_[i], &bag_);
  const size_t words1 = bag_.size();
  const double f = eval_.options().leaf_threshold_f;
  row_[i] = bits_.size();
  bits_.resize(bits_.size() + row_words_, 0);
  uint64_t* row = bits_.data() + row_[i];
  auto set = [row](uint32_t j) { row[j / 64] |= uint64_t{1} << (j % 64); };

  // Positions sharing no word: the bound depends on the sizes only.
  for (size_t g = 0; g + 1 < size_starts_.size(); ++g) {
    const size_t begin = size_starts_[g];
    if (WordDistance(words1, words2_[by_size_[begin]], 0) > f) continue;
    for (size_t k = begin; k < size_starts_[g + 1]; ++k) set(by_size_[k]);
  }
  // Positions sharing words: accumulate the intersection per position from
  // the postings of each of this row's words.
  ForEachRun(bag_, [&](int32_t word, uint32_t count) {
    auto p = std::lower_bound(
        postings_.begin(), postings_.end(), word,
        [](const Posting& e, int32_t w) { return e.word < w; });
    for (; p != postings_.end() && p->word == word; ++p) {
      if (common_[p->pos] == 0) touched_.push_back(p->pos);
      common_[p->pos] += std::min(count, p->count);
    }
  });
  for (uint32_t j : touched_) {
    if (WordDistance(words1, words2_[j], common_[j]) <= f) set(j);
    common_[j] = 0;
  }
  touched_.clear();
}

namespace {

/// Runs steps 2a-2e of Figure 11 on one label chain (`s1` from T1, `s2` from
/// T2, both in document order — the paper's chain_T(l)): LCS first, then the
/// Match-style scan over the leftovers.
void MatchChain(const std::vector<NodeId>& s1, const std::vector<NodeId>& s2,
                bool leaves, const CriteriaEvaluator& eval,
                int fallback_limit_k, Matching* m) {
  const Budget* budget = eval.budget();
  if (!BudgetChargeNodes(budget, s1.size() + s2.size())) return;
  LeafChainBound bound(eval, s1, s2);
  auto equal = [&](size_t i, size_t j) {
    // Once the budget trips, the whole matching will be discarded by the
    // degradation ladder — but the LCS in flight cannot be aborted from its
    // equality callback. Answering "equal" makes Myers snake straight down
    // the diagonal, so it terminates in O(s1 + s2) instead of grinding out a
    // full-divergence run. The bogus pairs it yields are still label-legal
    // (a chain holds one label) and are thrown away with the rest.
    if (!BudgetOk(budget)) return true;
    if (!leaves) return eval.InternalEqual(s1[i], s2[j], *m);
    return eval.LeafEqual(s1[i], s2[j], bound.MayPass(i, j));
  };

  // Step 2c: lcs <- LCS(S1, S2, equal).
  std::vector<LcsPair> lcs =
      Lcs(static_cast<int>(s1.size()), static_cast<int>(s2.size()),
          [&](int i, int j) {
            return equal(static_cast<size_t>(i), static_cast<size_t>(j));
          });

  // Step 2d: adopt the LCS pairs.
  for (const LcsPair& p : lcs) {
    m->Add(s1[static_cast<size_t>(p.a_index)],
           s2[static_cast<size_t>(p.b_index)]);
  }

  // Step 2e: pair remaining unmatched nodes as in Algorithm Match. With a
  // positive fallback limit (the A(k) trade-off), each node examines at
  // most k candidates.
  for (size_t i = 0; i < s1.size(); ++i) {
    if (!BudgetCheck(budget)) return;
    if (m->HasT1(s1[i])) continue;
    int examined = 0;
    for (size_t j = 0; j < s2.size(); ++j) {
      if (!BudgetCheck(budget)) return;
      if (m->HasT2(s2[j])) continue;
      if (fallback_limit_k > 0 && ++examined > fallback_limit_k) break;
      if (equal(i, j)) {
        m->Add(s1[i], s2[j]);
        break;
      }
    }
  }
}

/// Labels present in either tree's chain map, ascending (both maps are
/// LabelId-ordered, so this is a linear merge).
std::vector<LabelId> MergedLabels(
    const std::map<LabelId, std::vector<NodeId>>& a,
    const std::map<LabelId, std::vector<NodeId>>& b) {
  std::vector<LabelId> labels;
  labels.reserve(a.size() + b.size());
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() || ib != b.end()) {
    if (ib == b.end() || (ia != a.end() && ia->first < ib->first)) {
      labels.push_back((ia++)->first);
    } else if (ia == a.end() || ib->first < ia->first) {
      labels.push_back((ib++)->first);
    } else {
      labels.push_back(ia->first);
      ++ia;
      ++ib;
    }
  }
  return labels;
}

}  // namespace

Matching ComputeFastMatch(const Tree& t1, const Tree& t2,
                          const CriteriaEvaluator& eval,
                          const LabelSchema* schema, int fallback_limit_k,
                          const Matching* seed) {
  Matching m = seed != nullptr ? *seed
                               : Matching(t1.id_bound(), t2.id_bound());

  // The per-(label, kind) document-order chains are maintained by the
  // per-tree indexes; the seed rebuilt them here on every call.
  const TreeIndex& index1 = eval.index1();
  const TreeIndex& index2 = eval.index2();

  auto ordered_labels = [&](const std::map<LabelId, std::vector<NodeId>>& c1,
                            const std::map<LabelId, std::vector<NodeId>>& c2) {
    std::vector<LabelId> labels = MergedLabels(c1, c2);
    if (schema != nullptr) {
      std::stable_sort(labels.begin(), labels.end(),
                       [&](LabelId a, LabelId b) {
                         return schema->Rank(a) < schema->Rank(b);
                       });
    }
    return labels;
  };

  // With a pre-matched seed, each chain is filtered down to its unsettled
  // nodes before the LCS sees it: the settled region is invisible to the
  // chain algebra, so LCS cost tracks the edit, not the document. A node's
  // chain is processed exactly once, so filtering against the growing `m`
  // is filtering against the seed for that chain.
  const bool extend = seed != nullptr;
  std::vector<NodeId> f1;
  std::vector<NodeId> f2;
  auto unsettled = [&m](const std::vector<NodeId>& chain, bool first,
                        std::vector<NodeId>* out) -> const std::vector<NodeId>& {
    out->clear();
    for (NodeId v : chain) {
      if (first ? !m.HasT1(v) : !m.HasT2(v)) out->push_back(v);
    }
    return *out;
  };

  // Step 2: leaf labels first (the internal criterion needs leaf matches).
  // Exhaustion mid-way returns the partial matching built so far; callers
  // detect it via the budget itself.
  const Budget* budget = eval.budget();
  for (LabelId label : ordered_labels(index1.LeafChains(),
                                      index2.LeafChains())) {
    if (!BudgetCheckNow(budget)) break;
    const std::vector<NodeId>& s1 =
        extend ? unsettled(index1.LeafChain(label), true, &f1)
               : index1.LeafChain(label);
    const std::vector<NodeId>& s2 =
        extend ? unsettled(index2.LeafChain(label), false, &f2)
               : index2.LeafChain(label);
    MatchChain(s1, s2, /*leaves=*/true, eval, fallback_limit_k, &m);
  }
  // Step 3: internal labels.
  for (LabelId label : ordered_labels(index1.InternalChains(),
                                      index2.InternalChains())) {
    if (!BudgetCheckNow(budget)) break;
    const std::vector<NodeId>& s1 =
        extend ? unsettled(index1.InternalChain(label), true, &f1)
               : index1.InternalChain(label);
    const std::vector<NodeId>& s2 =
        extend ? unsettled(index2.InternalChain(label), false, &f2)
               : index2.InternalChain(label);
    MatchChain(s1, s2, /*leaves=*/false, eval, fallback_limit_k, &m);
  }
  return m;
}

}  // namespace treediff
