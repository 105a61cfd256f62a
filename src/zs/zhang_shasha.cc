#include "zs/zhang_shasha.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <map>

namespace treediff {

namespace {

constexpr double kEps = 1e-9;

bool ApproxEq(double a, double b) { return std::fabs(a - b) < kEps; }

/// Postorder view of a Tree, the indexing scheme of the ZS dynamic program.
/// Postorder positions are 1-based; lml[i] is the postorder position of the
/// leftmost leaf of the subtree rooted at position i; keyroots are the
/// positions with no ancestor sharing their leftmost leaf.
struct PostorderView {
  std::vector<NodeId> node;  // node[i], i in 1..n.
  std::vector<int> lml;      // lml[i], i in 1..n.
  std::vector<int> keyroots;
  int n = 0;

  explicit PostorderView(const Tree& t, const TreeIndex* index = nullptr) {
    if (index == nullptr) index = t.attached_index();
    const std::vector<NodeId> order =
        index != nullptr ? index->PostOrder() : t.PostOrder();
    n = static_cast<int>(order.size());
    node.assign(static_cast<size_t>(n) + 1, kInvalidNode);
    lml.assign(static_cast<size_t>(n) + 1, 0);
    std::vector<int> pos(t.id_bound(), 0);
    for (int i = 1; i <= n; ++i) {
      node[static_cast<size_t>(i)] = order[static_cast<size_t>(i - 1)];
      pos[static_cast<size_t>(order[static_cast<size_t>(i - 1)])] = i;
    }
    // Leftmost leaf of a leaf is itself; of an internal node, the leftmost
    // leaf of its first child — whose postorder position precedes the
    // parent's, so one ascending pass closes the recurrence in O(n).
    for (int i = 1; i <= n; ++i) {
      const NodeId x = node[static_cast<size_t>(i)];
      const auto& kids = t.children(x);
      lml[static_cast<size_t>(i)] =
          kids.empty()
              ? i
              : lml[static_cast<size_t>(
                    pos[static_cast<size_t>(kids.front())])];
    }
    // Keyroots: for each distinct lml value, the largest position having it.
    std::vector<int> largest(static_cast<size_t>(n) + 1, 0);
    for (int i = 1; i <= n; ++i) {
      largest[static_cast<size_t>(lml[static_cast<size_t>(i)])] = i;
    }
    for (int i = 1; i <= n; ++i) {
      if (largest[static_cast<size_t>(lml[static_cast<size_t>(i)])] == i) {
        keyroots.push_back(i);
      }
    }
  }
};

class ZsSolver {
 public:
  ZsSolver(const Tree& t1, const Tree& t2, const ZsOptions& opts)
      : t1_(t1),
        t2_(t2),
        opts_(opts),
        v1_(t1, opts.index1),
        v2_(t2, opts.index2) {
    treedist_bytes_ = static_cast<size_t>(v1_.n + 1) *
                      static_cast<size_t>(v2_.n + 1) * sizeof(double);
    if (!BudgetChargeArena(opts_.budget, treedist_bytes_) ||
        !BudgetChargeNodes(opts_.budget,
                           static_cast<size_t>(v1_.n + v2_.n))) {
      aborted_ = true;
      return;
    }
    treedist_.assign(
        static_cast<size_t>(v1_.n + 1),
        std::vector<double>(static_cast<size_t>(v2_.n + 1), 0.0));
  }

  ~ZsSolver() { BudgetReleaseArena(opts_.budget, treedist_bytes_); }

  double Solve() {
    if (aborted_) return 0.0;
    for (int i : v1_.keyroots) {
      if (!BudgetCheckNow(opts_.budget)) {
        aborted_ = true;
        return 0.0;
      }
      for (int j : v2_.keyroots) {
        ForestDist(i, j, /*fd_out=*/nullptr);
        if (aborted_) return 0.0;
      }
    }
    return treedist_[static_cast<size_t>(v1_.n)][static_cast<size_t>(v2_.n)];
  }

  /// True if the budget exhausted mid-run; the computed values are invalid.
  bool aborted() const { return aborted_; }

  std::vector<std::pair<NodeId, NodeId>> Backtrack() {
    std::vector<std::pair<NodeId, NodeId>> mapping;
    BacktrackTreePair(v1_.n, v2_.n, &mapping);
    std::reverse(mapping.begin(), mapping.end());
    return mapping;
  }

 private:
  double Rename(int i, int j) const {
    const NodeId x = v1_.node[static_cast<size_t>(i)];
    const NodeId y = v2_.node[static_cast<size_t>(j)];
    BudgetChargeComparisons(opts_.budget);
    if (t1_.label(x) != t2_.label(y)) return opts_.relabel_cost;
    if (opts_.comparator != nullptr) {
      return std::clamp(opts_.comparator->Compare(t1_, x, t2_, y), 0.0, 2.0);
    }
    return t1_.value(x) == t2_.value(y) ? 0.0 : opts_.update_cost;
  }

  /// Computes the forest distances for the keyroot (or backtrack) pair
  /// (i, j), filling treedist_ for all subtree pairs it closes. If `fd_out`
  /// is non-null the full forest-distance matrix is copied out for
  /// backtracking.
  void ForestDist(int i, int j, std::vector<std::vector<double>>* fd_out) {
    const int li = v1_.lml[static_cast<size_t>(i)];
    const int lj = v2_.lml[static_cast<size_t>(j)];
    const int rows = i - li + 2;  // index 0 = empty forest.
    const int cols = j - lj + 2;
    const size_t fd_bytes =
        static_cast<size_t>(rows) * static_cast<size_t>(cols) * sizeof(double);
    if (!BudgetChargeArena(opts_.budget, fd_bytes)) {
      aborted_ = true;
      BudgetReleaseArena(opts_.budget, fd_bytes);
      return;
    }
    std::vector<std::vector<double>> fd(
        static_cast<size_t>(rows),
        std::vector<double>(static_cast<size_t>(cols), 0.0));
    for (int di = 1; di < rows; ++di) {
      fd[static_cast<size_t>(di)][0] =
          fd[static_cast<size_t>(di - 1)][0] + opts_.delete_cost;
    }
    for (int dj = 1; dj < cols; ++dj) {
      fd[0][static_cast<size_t>(dj)] =
          fd[0][static_cast<size_t>(dj - 1)] + opts_.insert_cost;
    }
    for (int di = li; di <= i; ++di) {
      if (!BudgetCheck(opts_.budget)) {
        aborted_ = true;
        BudgetReleaseArena(opts_.budget, fd_bytes);
        return;
      }
      for (int dj = lj; dj <= j; ++dj) {
        const int r = di - li + 1;
        const int c = dj - lj + 1;
        const double del =
            fd[static_cast<size_t>(r - 1)][static_cast<size_t>(c)] +
            opts_.delete_cost;
        const double ins =
            fd[static_cast<size_t>(r)][static_cast<size_t>(c - 1)] +
            opts_.insert_cost;
        if (v1_.lml[static_cast<size_t>(di)] == li &&
            v2_.lml[static_cast<size_t>(dj)] == lj) {
          const double ren =
              fd[static_cast<size_t>(r - 1)][static_cast<size_t>(c - 1)] +
              Rename(di, dj);
          const double best = std::min({del, ins, ren});
          fd[static_cast<size_t>(r)][static_cast<size_t>(c)] = best;
          treedist_[static_cast<size_t>(di)][static_cast<size_t>(dj)] = best;
        } else {
          const int pr = v1_.lml[static_cast<size_t>(di)] - li;
          const int pc = v2_.lml[static_cast<size_t>(dj)] - lj;
          const double cross =
              fd[static_cast<size_t>(pr)][static_cast<size_t>(pc)] +
              treedist_[static_cast<size_t>(di)][static_cast<size_t>(dj)];
          fd[static_cast<size_t>(r)][static_cast<size_t>(c)] =
              std::min({del, ins, cross});
        }
      }
    }
    BudgetReleaseArena(opts_.budget, fd_bytes);
    if (fd_out != nullptr) *fd_out = std::move(fd);
  }

  /// Decodes an optimal mapping for the subtree pair (i, j) (postorder
  /// positions), appending matched pairs. treedist_ must be fully computed.
  void BacktrackTreePair(int i, int j,
                         std::vector<std::pair<NodeId, NodeId>>* mapping) {
    const int li = v1_.lml[static_cast<size_t>(i)];
    const int lj = v2_.lml[static_cast<size_t>(j)];
    std::vector<std::vector<double>> fd;
    ForestDist(i, j, &fd);
    if (aborted_) return;  // fd is empty; nothing sound to decode.

    // On cost ties, prefer the mapping (rename / subtree-cross) branch over
    // delete+insert: equal-cost optima then keep as much structure mapped
    // as possible, which reads better and gives the [WZS95] move recovery
    // coherent unmapped regions to pair up.
    int di = i, dj = j;
    while (di >= li || dj >= lj) {
      const int r = di - li + 1;
      const int c = dj - lj + 1;
      const double cur = fd[static_cast<size_t>(r)][static_cast<size_t>(c)];
      if (di >= li && dj >= lj) {
        if (v1_.lml[static_cast<size_t>(di)] == li &&
            v2_.lml[static_cast<size_t>(dj)] == lj) {
          if (ApproxEq(cur, fd[static_cast<size_t>(r - 1)]
                              [static_cast<size_t>(c - 1)] +
                                Rename(di, dj))) {
            mapping->emplace_back(v1_.node[static_cast<size_t>(di)],
                                  v2_.node[static_cast<size_t>(dj)]);
            --di;
            --dj;
            continue;
          }
        } else {
          const int pr = v1_.lml[static_cast<size_t>(di)] - li;
          const int pc = v2_.lml[static_cast<size_t>(dj)] - lj;
          if (ApproxEq(cur,
                       fd[static_cast<size_t>(pr)][static_cast<size_t>(pc)] +
                           treedist_[static_cast<size_t>(di)]
                                    [static_cast<size_t>(dj)])) {
            BacktrackTreePair(di, dj, mapping);
            di = v1_.lml[static_cast<size_t>(di)] - 1;
            dj = v2_.lml[static_cast<size_t>(dj)] - 1;
            continue;
          }
        }
      }
      if (di >= li &&
          ApproxEq(cur, fd[static_cast<size_t>(r - 1)][static_cast<size_t>(
                            c)] +
                            opts_.delete_cost)) {
        --di;  // di is deleted.
        continue;
      }
      assert(dj >= lj);
      --dj;  // dj is inserted (the only branch left).
    }
  }

  const Tree& t1_;
  const Tree& t2_;
  ZsOptions opts_;
  PostorderView v1_;
  PostorderView v2_;
  std::vector<std::vector<double>> treedist_;
  size_t treedist_bytes_ = 0;
  bool aborted_ = false;
};

}  // namespace

ZsResult ZhangShasha(const Tree& t1, const Tree& t2,
                     const ZsOptions& options) {
  assert(t1.root() != kInvalidNode && t2.root() != kInvalidNode);
  ZsSolver solver(t1, t2, options);
  ZsResult result;
  result.distance = solver.Solve();
  // On budget exhaustion the DP table is partial; skip the backtrack (it
  // would decode garbage) and return an empty mapping.
  if (!solver.aborted()) result.mapping = solver.Backtrack();
  return result;
}

double ZhangShashaDistance(const Tree& t1, const Tree& t2,
                           const ZsOptions& options) {
  assert(t1.root() != kInvalidNode && t2.root() != kInvalidNode);
  ZsSolver solver(t1, t2, options);
  return solver.Solve();
}

namespace {

/// True if every node of the subtree at `x` satisfies `unmapped`.
bool SubtreeAllUnmapped(const Tree& t, NodeId x,
                        const std::vector<char>& unmapped) {
  std::vector<NodeId> stack = {x};
  while (!stack.empty()) {
    NodeId w = stack.back();
    stack.pop_back();
    if (!unmapped[static_cast<size_t>(w)]) return false;
    for (NodeId c : t.children(w)) stack.push_back(c);
  }
  return true;
}

size_t SubtreeSize(const Tree& t, NodeId x, const TreeIndex* index) {
  if (index != nullptr) return static_cast<size_t>(index->SubtreeSize(x));
  size_t count = 0;
  std::vector<NodeId> stack = {x};
  while (!stack.empty()) {
    NodeId w = stack.back();
    stack.pop_back();
    ++count;
    for (NodeId c : t.children(w)) stack.push_back(c);
  }
  return count;
}

/// Pre-order served from the caller-supplied or attached index when one
/// exists, computed otherwise.
std::vector<NodeId> PreOrderOf(const Tree& t, const TreeIndex* index) {
  if (index == nullptr) index = t.attached_index();
  return index != nullptr ? index->PreOrder() : t.PreOrder();
}

/// Structural fingerprint of a subtree (labels + values, pre-order) used to
/// bucket isomorphic candidates cheaply before the exact check.
std::string SubtreeFingerprint(const Tree& t, NodeId x) {
  std::string fp;
  std::vector<std::pair<NodeId, bool>> stack = {{x, false}};
  while (!stack.empty()) {
    auto [w, closing] = stack.back();
    stack.pop_back();
    if (closing) {
      fp.push_back(')');
      continue;
    }
    fp.push_back('(');
    fp += t.label_name(w);
    fp.push_back('=');
    fp += t.value(w);
    stack.push_back({w, true});
    const auto& kids = t.children(w);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back({*it, false});
    }
  }
  return fp;
}

/// True if the subtrees are exactly equal (labels, values, order).
bool SubtreesEqual(const Tree& t1, NodeId x, const Tree& t2, NodeId y) {
  std::vector<std::pair<NodeId, NodeId>> stack = {{x, y}};
  const bool same_table = t1.label_table().get() == t2.label_table().get();
  while (!stack.empty()) {
    auto [a, b] = stack.back();
    stack.pop_back();
    if (same_table) {
      if (t1.label(a) != t2.label(b)) return false;
    } else if (t1.label_name(a) != t2.label_name(b)) {
      return false;
    }
    if (t1.value(a) != t2.value(b)) return false;
    const auto& ka = t1.children(a);
    const auto& kb = t2.children(b);
    if (ka.size() != kb.size()) return false;
    for (size_t i = 0; i < ka.size(); ++i) stack.push_back({ka[i], kb[i]});
  }
  return true;
}

}  // namespace

ZsWithMovesResult ZhangShashaWithMoves(const Tree& t1, const Tree& t2,
                                       const ZsOptions& options) {
  ZsWithMovesResult result;
  ZsResult zs = ZhangShasha(t1, t2, options);
  result.base_distance = zs.distance;
  result.distance_with_moves = zs.distance;

  std::vector<char> unmapped1(t1.id_bound(), 1), unmapped2(t2.id_bound(), 1);
  for (auto [x, y] : zs.mapping) {
    unmapped1[static_cast<size_t>(x)] = 0;
    unmapped2[static_cast<size_t>(y)] = 0;
  }

  // Maximal fully-unmapped T2 subtrees, bucketed by fingerprint.
  std::map<std::string, std::vector<NodeId>> candidates;
  std::vector<char> used2(t2.id_bound(), 0);
  for (NodeId y : PreOrderOf(t2, options.index2)) {
    const NodeId p = t2.parent(y);
    const bool parent_unmapped =
        p != kInvalidNode && unmapped2[static_cast<size_t>(p)];
    if (parent_unmapped) continue;  // Not maximal.
    if (!unmapped2[static_cast<size_t>(y)]) continue;
    if (!SubtreeAllUnmapped(t2, y, unmapped2)) continue;
    candidates[SubtreeFingerprint(t2, y)].push_back(y);
  }

  // Greedily pair maximal unmapped T1 subtrees with isomorphic candidates.
  for (NodeId x : PreOrderOf(t1, options.index1)) {
    const NodeId p = t1.parent(x);
    const bool parent_unmapped =
        p != kInvalidNode && unmapped1[static_cast<size_t>(p)];
    if (parent_unmapped) continue;
    if (!unmapped1[static_cast<size_t>(x)]) continue;
    if (!SubtreeAllUnmapped(t1, x, unmapped1)) continue;
    auto it = candidates.find(SubtreeFingerprint(t1, x));
    if (it == candidates.end()) continue;
    for (NodeId y : it->second) {
      if (used2[static_cast<size_t>(y)]) continue;
      if (!SubtreesEqual(t1, x, t2, y)) continue;  // Hash-collision guard.
      used2[static_cast<size_t>(y)] = 1;
      ZsMove move;
      move.from = x;
      move.to = y;
      move.subtree_size =
          SubtreeSize(t1, x,
                      options.index1 != nullptr ? options.index1
                                                : t1.attached_index());
      // delete_cost * |subtree| + insert_cost * |subtree| re-priced as one
      // unit-cost move.
      move.savings = static_cast<double>(move.subtree_size) *
                         (options.delete_cost + options.insert_cost) -
                     1.0;
      result.distance_with_moves -= move.savings;
      result.moves.push_back(move);
      break;
    }
  }
  return result;
}

}  // namespace treediff
