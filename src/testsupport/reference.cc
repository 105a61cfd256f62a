#include "testsupport/reference.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <utility>
#include <vector>

#include "core/compare.h"
#include "lcs/lcs.h"
#include "util/tokenize.h"

namespace treediff {

namespace {

/// Memoized recursion over forests (ordered lists of disjoint subtrees),
/// the textbook formulation of ordered-forest edit distance. Exponential
/// state space in principle; fine for the tiny trees used in validation.
class BruteForcer {
 public:
  BruteForcer(const Tree& t1, const Tree& t2, const ZsOptions& opts)
      : t1_(t1), t2_(t2), opts_(opts) {}

  double Run() {
    return ForestDist({t1_.root()}, {t2_.root()});
  }

 private:
  double Rename(NodeId x, NodeId y) const {
    if (t1_.label(x) != t2_.label(y)) return opts_.relabel_cost;
    if (opts_.comparator != nullptr) {
      return std::clamp(opts_.comparator->Compare(t1_, x, t2_, y), 0.0, 2.0);
    }
    return t1_.value(x) == t2_.value(y) ? 0.0 : opts_.update_cost;
  }

  static size_t CountNodes(const Tree& t, const std::vector<NodeId>& forest) {
    size_t count = 0;
    std::vector<NodeId> stack = forest;
    while (!stack.empty()) {
      NodeId x = stack.back();
      stack.pop_back();
      ++count;
      for (NodeId c : t.children(x)) stack.push_back(c);
    }
    return count;
  }

  double ForestDist(const std::vector<NodeId>& f1,
                    const std::vector<NodeId>& f2) {
    if (f1.empty()) {
      return static_cast<double>(CountNodes(t2_, f2)) * opts_.insert_cost;
    }
    if (f2.empty()) {
      return static_cast<double>(CountNodes(t1_, f1)) * opts_.delete_cost;
    }
    auto key = std::make_pair(f1, f2);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;

    const NodeId v = f1.back();
    const NodeId w = f2.back();

    // Delete v: its children are promoted in place.
    std::vector<NodeId> f1_del(f1.begin(), f1.end() - 1);
    for (NodeId c : t1_.children(v)) f1_del.push_back(c);
    double best = ForestDist(f1_del, f2) + opts_.delete_cost;

    // Insert w.
    std::vector<NodeId> f2_ins(f2.begin(), f2.end() - 1);
    for (NodeId c : t2_.children(w)) f2_ins.push_back(c);
    best = std::min(best, ForestDist(f1, f2_ins) + opts_.insert_cost);

    // Match v with w: the subtrees pair off, the rests pair off.
    std::vector<NodeId> f1_rest(f1.begin(), f1.end() - 1);
    std::vector<NodeId> f2_rest(f2.begin(), f2.end() - 1);
    const std::span<const NodeId> c1 = t1_.children(v);
    const std::span<const NodeId> c2 = t2_.children(w);
    best = std::min(best, ForestDist(f1_rest, f2_rest) +
                              ForestDist({c1.begin(), c1.end()},
                                         {c2.begin(), c2.end()}) +
                              Rename(v, w));

    memo_.emplace(std::move(key), best);
    return best;
  }

  const Tree& t1_;
  const Tree& t2_;
  ZsOptions opts_;
  std::map<std::pair<std::vector<NodeId>, std::vector<NodeId>>, double> memo_;
};

}  // namespace

double BruteForceEditDistance(const Tree& t1, const Tree& t2,
                              const ZsOptions& options) {
  assert(t1.root() != kInvalidNode && t2.root() != kInvalidNode);
  BruteForcer bf(t1, t2, options);
  return bf.Run();
}

double WordLcsDistance(std::string_view a, std::string_view b,
                       bool normalize_words) {
  if (a == b) return 0.0;
  const std::vector<std::string> ta = SplitWords(a, normalize_words);
  const std::vector<std::string> tb = SplitWords(b, normalize_words);
  if (ta.empty() && tb.empty()) return 0.0;
  const double total_off = static_cast<double>(ta.size() + tb.size()) -
                           2.0 * static_cast<double>(LcsLength(ta, tb));
  return total_off / static_cast<double>(std::max(ta.size(), tb.size()));
}

}  // namespace treediff
