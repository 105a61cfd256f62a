#include "core/edit_script_gen.h"

#include <cassert>
#include <optional>
#include <vector>

#include "lcs/lcs.h"
#include "tree/tree_index.h"

namespace treediff {

namespace {

/// The working state of Algorithm EditScript: `work` is the mutating copy of
/// the old tree; p1/p2 are the growing total matching M'; in_order marks are
/// the alignment bookkeeping of Figure 9. `work_index_` rides along on the
/// working tree: its eagerly-patched scalar tier serves the O(1) ChildIndex
/// lookups behind FindPos and the O(1) subtree leaf counts behind the
/// weighted edit distance. When T1 carries an attached index the scalar
/// tier is copied from it rather than recomputed; the order and fingerprint
/// tiers are never read during generation and stay unbuilt.
class ScriptGenerator {
 public:
  ScriptGenerator(const Tree& t1, const Tree& t2, const Matching& matching,
                  const ValueComparator* cmp, bool lcs_align,
                  const CostModel* costs, const Budget* budget,
                  const std::vector<std::pair<NodeId, NodeId>>* settled)
      : t2_(t2),
        work_(t1.Clone()),
        cmp_(cmp),
        costs_(costs),
        budget_(budget),
        lcs_align_(lcs_align),
        p1_(t1.id_bound(), kInvalidNode),
        p2_(t2.id_bound(), kInvalidNode),
        in_order1_(t1.id_bound(), 0),
        in_order2_(t2.id_bound(), 0) {
    if (const TreeIndex* i1 = t1.attached_index()) {
      work_index_.emplace(work_, *i1);
    } else {
      work_index_.emplace(work_);
    }
    for (NodeId x = 0; x < static_cast<NodeId>(t1.id_bound()); ++x) {
      const NodeId y = matching.PartnerOfT1(x);
      if (y == kInvalidNode) continue;
      p1_[static_cast<size_t>(x)] = y;
      p2_[static_cast<size_t>(y)] = x;
    }
    // Settled regions are op-free for the BFS scan below their roots (see
    // the header contract): mark every settled T2 root, whose children need
    // no alignment, and its strict descendants, which are skipped outright;
    // mark the T1 roots for the delete phase. Disabled under weighted
    // alignment — a zero-move-cost model can emit zero-cost moves even
    // inside identical regions.
    if (settled != nullptr && !settled->empty() &&
        !(lcs_align && costs != nullptr)) {
      skip2_.assign(static_cast<size_t>(t2.id_bound()), kScan);
      settled1_.assign(t1.id_bound(), 0);
      std::vector<NodeId> stack;
      for (const auto& [a, b] : *settled) {
        if (p2_[static_cast<size_t>(b)] != a) continue;  // Defensive.
        settled1_[static_cast<size_t>(a)] = 1;
        char& root_mark = skip2_[static_cast<size_t>(b)];
        if (root_mark == kScan) root_mark = kSettledRoot;
        for (NodeId c : t2.children(b)) stack.push_back(c);
        while (!stack.empty()) {
          const NodeId d = stack.back();
          stack.pop_back();
          skip2_[static_cast<size_t>(d)] = kSettledInterior;
          for (NodeId c : t2.children(d)) stack.push_back(c);
        }
      }
    }
  }

  Status Run() {
    // Phase 1 (Figure 8, step 2): one breadth-first scan of T2 combining the
    // update, insert, align, and move phases. A budget trip aborts: a
    // half-generated script does not conform to the matching. The scan order
    // comes from T2's index when the pipeline attached one (the DiffContext
    // case); standalone callers fall back to a fresh traversal.
    const TreeIndex* i2 = t2_.attached_index();
    std::vector<NodeId> own_bfs;
    if (i2 == nullptr) own_bfs = t2_.BfsOrder();
    const std::vector<NodeId>& bfs = i2 != nullptr ? i2->BfsOrder() : own_bfs;
    for (NodeId x : bfs) {
      // A settled interior charges nothing and emits nothing: the prune is
      // where generation cost drops from O(document) to O(changed).
      const char mark = skip2_.empty() ? kScan : skip2_[static_cast<size_t>(x)];
      if (mark == kSettledInterior) continue;
      if (!BudgetChargeNodes(budget_)) return BudgetStatus(budget_);
      NodeId w;
      if (x == t2_.root()) {
        w = Partner2(x);
        assert(w == work_.root());
      } else {
        const NodeId y = t2_.parent(x);
        const NodeId z = Partner2(y);  // (*) y was visited, hence matched.
        assert(z != kInvalidNode);
        if (Partner2(x) == kInvalidNode) {
          w = DoInsert(x, z);
        } else {
          w = Partner2(x);
          DoUpdateIfNeeded(w, x);
          if (Partner2(y) != work_.parent(w)) {
            DoMove(w, x, z);
          }
        }
      }
      // A settled root may move as a unit, but its children are the
      // settled interior: all matched to x's children, in the same order,
      // so alignment would keep every one of them in place.
      if (mark != kSettledRoot) AlignChildren(w, x);
    }

    // Phase 2 (step 3): post-order delete of unmatched nodes. Snapshot the
    // order first in one walk of the working tree (the deletes change it);
    // children precede parents, so every delete is a leaf delete by the
    // time it runs (Theorem C.2, second stage).
    const std::vector<NodeId> order = DeletePhaseOrder();
    for (NodeId w : order) {
      if (budget_ != nullptr && IsSettledRoot1(w)) {
        // The interior the walk left out: charged one node at a time, just
        // as if it had been visited.
        for (int i = 1; i < work_index_->SubtreeSize(w); ++i) {
          if (!BudgetChargeNodes(budget_)) return BudgetStatus(budget_);
        }
      }
      if (!BudgetChargeNodes(budget_)) return BudgetStatus(budget_);
      if (p1_[static_cast<size_t>(w)] != kInvalidNode) continue;
      EditOp op = EditOp::Delete(w);
      if (costs_ != nullptr) op.cost = costs_->DeleteCost(work_, w);
      script_.Append(std::move(op));
      weighted_ += 1;
      TREEDIFF_RETURN_IF_ERROR(work_.DeleteLeaf(w));
    }
    return Status::Ok();
  }

  EditScriptResult TakeResult() && {
    return EditScriptResult{std::move(script_), std::move(work_), weighted_,
                            intra_moves_, inter_moves_};
  }

 private:
  NodeId Partner2(NodeId y) const { return p2_[static_cast<size_t>(y)]; }

  bool IsSettledRoot1(NodeId w) const {
    return static_cast<size_t>(w) < settled1_.size() &&
           settled1_[static_cast<size_t>(w)];
  }

  /// Post-order of the working tree that lists settled T1 roots but not
  /// their interiors. A settled region leaves the scan intact — nothing is
  /// inserted, moved or aligned inside it — so its interior holds only
  /// matched nodes and no deletes.
  std::vector<NodeId> DeletePhaseOrder() const {
    std::vector<NodeId> order;
    order.reserve(work_.size());
    std::vector<std::pair<NodeId, size_t>> stack = {{work_.root(), 0}};
    while (!stack.empty()) {
      auto& [x, cursor] = stack.back();
      const auto& kids = work_.children(x);
      if (cursor < kids.size() && !IsSettledRoot1(x)) {
        const NodeId next = kids[cursor++];
        stack.push_back({next, 0});
      } else {
        order.push_back(x);
        stack.pop_back();
      }
    }
    return order;
  }
  NodeId Partner1(NodeId w) const { return p1_[static_cast<size_t>(w)]; }

  void AddMatch(NodeId w, NodeId x) {
    if (static_cast<size_t>(w) >= p1_.size()) {
      p1_.resize(static_cast<size_t>(w) + 1, kInvalidNode);
      in_order1_.resize(static_cast<size_t>(w) + 1, 0);
    }
    p1_[static_cast<size_t>(w)] = x;
    p2_[static_cast<size_t>(x)] = w;
  }

  /// Insert phase for one unmatched T2 node `x` whose parent's partner is
  /// `z`: INS((w, l(x), v(x)), z, k).
  NodeId DoInsert(NodeId x, NodeId z) {
    const int k = FindPos(x, kInvalidNode, z);
    StatusOr<NodeId> inserted =
        work_.InsertLeaf(t2_.label(x), t2_.value(x), z, k);
    assert(inserted.ok());
    const NodeId w = *inserted;
    EditOp op = EditOp::Insert(w, t2_.label(x), t2_.value(x), z, k);
    if (costs_ != nullptr) op.cost = costs_->InsertCost(t2_, x);
    script_.Append(std::move(op));
    weighted_ += 1;
    AddMatch(w, x);
    MarkInOrder(w, x);
    return w;
  }

  /// Update phase for a matched pair (w, x) with differing values.
  void DoUpdateIfNeeded(NodeId w, NodeId x) {
    if (work_.value(w) == t2_.value(x)) return;
    const double cost =
        cmp_ != nullptr ? cmp_->Compare(work_, w, t2_, x) : 1.0;
    script_.Append(EditOp::Update(w, t2_.value(x), cost));
    TREEDIFF_CHECK_OK(work_.UpdateValue(w, t2_.value(x)));
  }

  /// Move phase for a matched pair (w, x) whose parents are not matched:
  /// MOV(w, z, k) with z the partner of x's parent.
  void DoMove(NodeId w, NodeId x, NodeId z) {
    const int k = FindPos(x, w, z);
    EditOp op = EditOp::Move(w, z, k);
    if (costs_ != nullptr) op.cost = costs_->MoveCost(work_, w);
    script_.Append(std::move(op));
    weighted_ += static_cast<size_t>(work_index_->LeafCount(w));
    ++inter_moves_;
    TREEDIFF_CHECK_OK(work_.MoveSubtree(w, z, k));
    MarkInOrder(w, x);
  }

  void MarkInOrder(NodeId w, NodeId x) {
    in_order1_[static_cast<size_t>(w)] = 1;
    in_order2_[static_cast<size_t>(x)] = 1;
  }

  /// Function FindPos (Figure 9), generalized to return an absolute 1-based
  /// insertion position in the working tree. `x` is the T2 node being
  /// placed; `w` is its partner in the working tree (kInvalidNode for an
  /// insert, where the node does not exist yet); `z` is the target parent in
  /// the working tree.
  ///
  /// The paper's step 5 counts only "in order" children of u's parent; we
  /// return the absolute position immediately to the right of u instead,
  /// which places the node correctly even when unmatched (doomed) siblings
  /// are interleaved, and compensates for the pending detachment when `w` is
  /// already a child of `z` to the left of the anchor.
  int FindPos(NodeId x, NodeId w, NodeId z) {
    const NodeId y = t2_.parent(x);
    // Rightmost in-order sibling of x to its left (Figure 9, steps 2-3).
    NodeId v = kInvalidNode;
    for (NodeId s : t2_.children(y)) {
      if (s == x) break;
      if (in_order2_[static_cast<size_t>(s)]) v = s;
    }
    if (v == kInvalidNode) return 1;
    const NodeId u = Partner2(v);
    assert(u != kInvalidNode);
    if (work_.parent(u) != z) {
      // Cannot happen when the invariants of Theorem C.2 hold; append at the
      // end as a safe fallback.
      assert(false && "FindPos anchor is not under the target parent");
      return static_cast<int>(work_.children(z).size()) + 1;
    }
    const int i = work_.ChildIndex(u);
    if (w != kInvalidNode && work_.parent(w) == z &&
        work_.ChildIndex(w) < i) {
      // w sits left of the anchor and will be detached first, shifting the
      // anchor one slot left.
      return i + 1;
    }
    return i + 2;
  }

  /// Function AlignChildren (Figure 9): aligns the mutual children of the
  /// matched pair (w, x) with the minimum number of intra-parent moves, via
  /// an LCS of the two child sequences (Lemma C.1).
  void AlignChildren(NodeId w, NodeId x) {
    // Step 1: mark all children of w and x "out of order".
    for (NodeId c : work_.children(w)) in_order1_[static_cast<size_t>(c)] = 0;
    for (NodeId c : t2_.children(x)) in_order2_[static_cast<size_t>(c)] = 0;

    // Step 2: S1 = children of w whose partners are children of x; S2
    // symmetric.
    std::vector<NodeId> s1, s2;
    for (NodeId c : work_.children(w)) {
      const NodeId partner = Partner1(c);
      if (partner != kInvalidNode && t2_.parent(partner) == x) {
        s1.push_back(c);
      }
    }
    for (NodeId c : t2_.children(x)) {
      const NodeId partner = Partner2(c);
      if (partner != kInvalidNode && work_.parent(partner) == w) {
        s2.push_back(c);
      }
    }
    if (s1.empty() && s2.empty()) return;

    // Steps 3-5: the set of children that stay put. The paper's strategy
    // is an LCS under equal(a, b) <=> (a, b) in M' (minimum moves, Lemma
    // C.1); the ablation baseline keeps a greedy increasing chain instead.
    // Under a non-uniform cost model, minimizing alignment *cost* means
    // keeping the heaviest (by move cost) common subsequence rather than
    // the longest — the natural generalization of Lemma C.1.
    if (lcs_align_ && costs_ != nullptr) {
      WeightedAlign(s1, s2);
    } else if (lcs_align_) {
      std::vector<LcsPair> lcs =
          Lcs(static_cast<int>(s1.size()), static_cast<int>(s2.size()),
              [&](int i, int j) {
                return Partner1(s1[static_cast<size_t>(i)]) ==
                       s2[static_cast<size_t>(j)];
              });
      for (const LcsPair& p : lcs) {
        in_order1_[static_cast<size_t>(s1[static_cast<size_t>(p.a_index)])] =
            1;
        in_order2_[static_cast<size_t>(s2[static_cast<size_t>(p.b_index)])] =
            1;
      }
    } else {
      // Greedy: scan S2 left to right, keeping each child whose partner
      // appears after the previously kept one in S1.
      std::vector<int> pos_in_s1(work_.id_bound(), -1);
      for (size_t i = 0; i < s1.size(); ++i) {
        pos_in_s1[static_cast<size_t>(s1[i])] = static_cast<int>(i);
      }
      int last_kept = -1;
      for (NodeId b : s2) {
        const NodeId a = Partner2(b);
        const int pos = pos_in_s1[static_cast<size_t>(a)];
        if (pos > last_kept) {
          last_kept = pos;
          in_order1_[static_cast<size_t>(a)] = 1;
          in_order2_[static_cast<size_t>(b)] = 1;
        }
      }
    }

    // Step 6: move every remaining matched child into place, left to right
    // in T2 order so each FindPos anchor is already aligned.
    for (NodeId b : s2) {
      if (in_order2_[static_cast<size_t>(b)]) continue;
      const NodeId a = Partner2(b);
      const int k = FindPos(b, a, w);
      EditOp op = EditOp::Move(a, w, k);
      if (costs_ != nullptr) op.cost = costs_->MoveCost(work_, a);
      script_.Append(std::move(op));
      weighted_ += static_cast<size_t>(work_index_->LeafCount(a));
      ++intra_moves_;
      TREEDIFF_CHECK_OK(work_.MoveSubtree(a, w, k));
      MarkInOrder(a, b);
    }
  }

  /// Heaviest-increasing-subsequence alignment: s2[j]'s partner occupies a
  /// unique position in s1, so the children that may stay put form an
  /// increasing subsequence of that permutation; we keep the one whose kept
  /// nodes carry the largest total move cost (O(k^2) DP over the children).
  void WeightedAlign(const std::vector<NodeId>& s1,
                     const std::vector<NodeId>& s2) {
    const size_t k = s2.size();
    if (k == 0) return;
    std::vector<int> pos_in_s1(work_.id_bound(), -1);
    for (size_t i = 0; i < s1.size(); ++i) {
      pos_in_s1[static_cast<size_t>(s1[i])] = static_cast<int>(i);
    }
    std::vector<int> perm(k);
    std::vector<double> weight(k);
    for (size_t j = 0; j < k; ++j) {
      const NodeId a = Partner2(s2[j]);
      perm[j] = pos_in_s1[static_cast<size_t>(a)];
      weight[j] = costs_->MoveCost(work_, a);
    }
    std::vector<double> best(k);
    std::vector<int> prev(k, -1);
    size_t best_end = 0;
    for (size_t j = 0; j < k; ++j) {
      best[j] = weight[j];
      for (size_t i = 0; i < j; ++i) {
        if (perm[i] < perm[j] && best[i] + weight[j] > best[j]) {
          best[j] = best[i] + weight[j];
          prev[j] = static_cast<int>(i);
        }
      }
      if (best[j] > best[best_end]) best_end = j;
    }
    for (int j = static_cast<int>(best_end); j >= 0; j = prev[j]) {
      const NodeId b = s2[static_cast<size_t>(j)];
      in_order2_[static_cast<size_t>(b)] = 1;
      in_order1_[static_cast<size_t>(Partner2(b))] = 1;
    }
  }

  // skip2_ marks: scanned as usual, a settled region root (visited, not
  // aligned), or a settled interior node (not visited).
  static constexpr char kScan = 0;
  static constexpr char kSettledRoot = 1;
  static constexpr char kSettledInterior = 2;

  const Tree& t2_;
  Tree work_;
  // Attached to work_ in the constructor; detaches automatically when
  // TakeResult moves work_ out.
  std::optional<TreeIndex> work_index_;
  const ValueComparator* cmp_;
  const CostModel* costs_;
  const Budget* budget_;
  bool lcs_align_;
  std::vector<NodeId> p1_;
  std::vector<NodeId> p2_;
  std::vector<char> in_order1_;
  std::vector<char> in_order2_;
  std::vector<char> skip2_;
  std::vector<char> settled1_;  // Settled T1 roots, by T1 id.
  EditScript script_;
  size_t weighted_ = 0;
  size_t intra_moves_ = 0;
  size_t inter_moves_ = 0;
};

}  // namespace

StatusOr<EditScriptResult> GenerateEditScript(
    const Tree& t1, const Tree& t2, const Matching& matching,
    const ValueComparator* update_cost_comparator, bool use_lcs_alignment,
    const CostModel* cost_model, const Budget* budget,
    const std::vector<std::pair<NodeId, NodeId>>* settled_subtrees) {
  if (t1.root() == kInvalidNode || t2.root() == kInvalidNode) {
    return Status::FailedPrecondition("both trees must be non-empty");
  }
  if (t1.label_table().get() != t2.label_table().get()) {
    return Status::FailedPrecondition(
        "trees being diffed must share one LabelTable");
  }

  // Validate the matching: live nodes, equal labels.
  Matching m = matching;
  for (const auto& [x, y] : m.Pairs()) {
    if (!t1.Alive(x) || !t2.Alive(y)) {
      return Status::InvalidArgument("matching references a dead node");
    }
    if (t1.label(x) != t2.label(y)) {
      return Status::FailedPrecondition(
          "matched pair (" + std::to_string(x) + ", " + std::to_string(y) +
          ") has different labels; no edit operation relabels a node");
    }
  }

  // Root handling (Section 4.1, insert phase): the scan requires matched
  // roots. If both roots are unmatched and agree on label, match them; if
  // they cannot match, the caller must wrap both trees (Tree::WrapRoot).
  if (m.PartnerOfT2(t2.root()) != t1.root()) {
    const bool both_free = !m.HasT1(t1.root()) && !m.HasT2(t2.root());
    if (both_free && t1.label(t1.root()) == t2.label(t2.root())) {
      m.Add(t1.root(), t2.root());
    } else {
      return Status::FailedPrecondition(
          "the tree roots must be matched to each other (wrap both trees "
          "with Tree::WrapRoot to diff trees with unmatchable roots)");
    }
  }

  ScriptGenerator gen(t1, t2, m, update_cost_comparator, use_lcs_alignment,
                      cost_model, budget, settled_subtrees);
  TREEDIFF_RETURN_IF_ERROR(gen.Run());
  EditScriptResult result = std::move(gen).TakeResult();

  // Theorem C.2 guarantees isomorphism; verify as a cheap O(N) safety net.
  if (!Tree::Isomorphic(result.transformed, t2)) {
    return Status::Internal(
        "generated script did not transform T1 into a tree isomorphic to T2");
  }
  return result;
}

}  // namespace treediff
