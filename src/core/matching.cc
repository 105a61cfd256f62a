#include "core/matching.h"

#include <cassert>

namespace treediff {

Matching::Matching(size_t t1_id_bound, size_t t2_id_bound)
    : t1_to_t2_(t1_id_bound, kInvalidNode),
      t2_to_t1_(t2_id_bound, kInvalidNode) {}

void Matching::Add(NodeId x, NodeId y) {
  assert(x >= 0 && static_cast<size_t>(x) < t1_to_t2_.size());
  assert(y >= 0 && static_cast<size_t>(y) < t2_to_t1_.size());
  assert(t1_to_t2_[static_cast<size_t>(x)] == kInvalidNode &&
         "T1 node already matched");
  assert(t2_to_t1_[static_cast<size_t>(y)] == kInvalidNode &&
         "T2 node already matched");
  t1_to_t2_[static_cast<size_t>(x)] = y;
  t2_to_t1_[static_cast<size_t>(y)] = x;
  ++size_;
}

void Matching::Remove(NodeId x, NodeId y) {
  assert(Contains(x, y));
  t1_to_t2_[static_cast<size_t>(x)] = kInvalidNode;
  t2_to_t1_[static_cast<size_t>(y)] = kInvalidNode;
  --size_;
}

std::vector<std::pair<NodeId, NodeId>> Matching::Pairs() const {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(size_);
  for (size_t x = 0; x < t1_to_t2_.size(); ++x) {
    if (t1_to_t2_[x] != kInvalidNode) {
      pairs.emplace_back(static_cast<NodeId>(x), t1_to_t2_[x]);
    }
  }
  return pairs;
}

}  // namespace treediff
