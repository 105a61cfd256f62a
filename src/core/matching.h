#ifndef TREEDIFF_CORE_MATCHING_H_
#define TREEDIFF_CORE_MATCHING_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "tree/tree.h"

namespace treediff {

/// A one-to-one (partial) matching between the node identifiers of an old
/// tree T1 and a new tree T2 (Section 3.1). Stored as two dense partner
/// arrays for O(1) lookups in both directions. The T1 side can grow, because
/// Algorithm EditScript inserts new nodes into the working copy of T1 and
/// extends the matching to a total one.
class Matching {
 public:
  /// Creates an empty matching able to hold partners for T1 ids in
  /// [0, t1_id_bound) and T2 ids in [0, t2_id_bound).
  Matching(size_t t1_id_bound, size_t t2_id_bound);

  /// Records the pair (x, y), x in T1 and y in T2. Both must be currently
  /// unmatched (enforced with assert in debug builds).
  void Add(NodeId x, NodeId y);

  /// Removes the pair (x, y); it must be present.
  void Remove(NodeId x, NodeId y);

  bool HasT1(NodeId x) const {
    return PartnerOfT1(x) != kInvalidNode;
  }
  bool HasT2(NodeId y) const {
    return PartnerOfT2(y) != kInvalidNode;
  }

  /// Partner of T1 node `x` in T2, or kInvalidNode.
  NodeId PartnerOfT1(NodeId x) const {
    if (x < 0 || static_cast<size_t>(x) >= t1_to_t2_.size()) {
      return kInvalidNode;
    }
    return t1_to_t2_[static_cast<size_t>(x)];
  }

  /// Partner of T2 node `y` in T1, or kInvalidNode.
  NodeId PartnerOfT2(NodeId y) const {
    if (y < 0 || static_cast<size_t>(y) >= t2_to_t1_.size()) {
      return kInvalidNode;
    }
    return t2_to_t1_[static_cast<size_t>(y)];
  }

  /// True if (x, y) is in the matching.
  bool Contains(NodeId x, NodeId y) const { return PartnerOfT1(x) == y && y != kInvalidNode; }

  /// Number of matched pairs.
  size_t size() const { return size_; }

  /// All pairs (x, y) in ascending order of x.
  std::vector<std::pair<NodeId, NodeId>> Pairs() const;

 private:
  std::vector<NodeId> t1_to_t2_;
  std::vector<NodeId> t2_to_t1_;
  size_t size_ = 0;
};

}  // namespace treediff

#endif  // TREEDIFF_CORE_MATCHING_H_
