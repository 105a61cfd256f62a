#include "tree/tree_index.h"

#include <bit>
#include <cassert>
#include <cstring>
#include <utility>

namespace treediff {

namespace {

inline size_t Idx(NodeId x) {
  assert(x >= 0);
  return static_cast<size_t>(x);
}

/// Mixes `v` into `seed` (boost-style). Also used for subtree fingerprints;
/// order-sensitive, so sibling order matters as the paper's isomorphism
/// requires.
inline uint64_t HashCombine(uint64_t seed, uint64_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

// XXH64's primes.
constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

/// Unaligned little-endian loads (any start alignment is fine).
inline uint64_t Read64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

inline uint32_t Read32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

inline uint64_t Round(uint64_t acc, uint64_t input) {
  acc += input * kPrime2;
  return std::rotl(acc, 31) * kPrime1;
}

inline uint64_t MergeRound(uint64_t acc, uint64_t lane) {
  acc ^= Round(0, lane);
  return acc * kPrime1 + kPrime4;
}

}  // namespace

uint64_t HashValueBytes(std::string_view bytes) {
  // XXH64 with seed 0: four independent lanes over 32-byte stripes, then
  // the 8/4/1-byte tail and a final avalanche.
  const unsigned char* p = reinterpret_cast<const unsigned char*>(bytes.data());
  const unsigned char* const end = p + bytes.size();
  uint64_t h;
  if (bytes.size() >= 32) {
    uint64_t v1 = kPrime1 + kPrime2;
    uint64_t v2 = kPrime2;
    uint64_t v3 = 0;
    uint64_t v4 = 0 - kPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = Round(v1, Read64(p));
      v2 = Round(v2, Read64(p + 8));
      v3 = Round(v3, Read64(p + 16));
      v4 = Round(v4, Read64(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  } else {
    h = kPrime5;
  }
  h += bytes.size();
  for (; end - p >= 8; p += 8) {
    h ^= Round(0, Read64(p));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h ^= static_cast<uint64_t>(Read32(p)) * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= static_cast<uint64_t>(*p) * kPrime5;
    h = std::rotl(h, 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

uint64_t NodeValueHash(const Tree& t, NodeId x) {
  if (const TreeIndex* index = t.attached_index()) return index->ValueHash(x);
  return HashValueBytes(t.value(x));
}

TreeIndex::TreeIndex(const Tree& tree) : tree_(&tree) {
  tree.AttachIndex(this);
  // Scalars and orders are what nearly every stage reads; build them up
  // front. Fingerprints stay lazy (only the structural matcher wants them).
  EnsureScalars();
  EnsureOrders();
}

TreeIndex::TreeIndex(const Tree& tree, const TreeIndex& source)
    : tree_(&tree) {
  assert(source.attached() && source.tree().id_bound() == tree.id_bound() &&
         source.tree().root() == tree.root());
  tree.AttachIndex(this);
  source.EnsureScalars();
  subtree_size_ = source.subtree_size_;
  leaf_count_ = source.leaf_count_;
  child_index_ = source.child_index_;
  value_hash_ = source.value_hash_;
  scalars_dirty_ = false;
}

TreeIndex::~TreeIndex() {
  if (tree_ != nullptr) tree_->DetachIndex(this);
}

// ----- Scalar tier -----

int TreeIndex::SubtreeSize(NodeId x) const {
  EnsureScalars();
  return subtree_size_[Idx(x)];
}

int TreeIndex::LeafCount(NodeId x) const {
  EnsureScalars();
  return leaf_count_[Idx(x)];
}

int TreeIndex::ChildIndex(NodeId x) const {
  EnsureScalars();
  return child_index_[Idx(x)];
}

uint64_t TreeIndex::ValueHash(NodeId x) const {
  EnsureScalars();
  return value_hash_[Idx(x)];
}

// ----- Order tier -----

const std::vector<NodeId>& TreeIndex::PreOrder() const {
  EnsureOrders();
  return pre_order_;
}

const std::vector<NodeId>& TreeIndex::PostOrder() const {
  EnsureOrders();
  return post_order_;
}

const std::vector<NodeId>& TreeIndex::BfsOrder() const {
  EnsureOrders();
  return bfs_order_;
}

const std::vector<NodeId>& TreeIndex::Leaves() const {
  EnsureOrders();
  return leaves_;
}

bool TreeIndex::Contains(NodeId anc, NodeId desc) const {
  EnsureOrders();
  assert(tin_[Idx(anc)] >= 0 && tin_[Idx(desc)] >= 0);
  return tin_[Idx(anc)] <= tin_[Idx(desc)] &&
         tout_[Idx(desc)] <= tout_[Idx(anc)];
}

int TreeIndex::LeafRangeBegin(NodeId x) const {
  EnsureOrders();
  return leaf_begin_[Idx(x)];
}

int TreeIndex::LeafRangeEnd(NodeId x) const {
  EnsureOrders();
  return leaf_end_[Idx(x)];
}

const std::vector<NodeId>& TreeIndex::LeafChain(LabelId label) const {
  EnsureOrders();
  static const std::vector<NodeId> kEmpty;
  auto it = leaf_chains_.find(label);
  return it == leaf_chains_.end() ? kEmpty : it->second;
}

const std::vector<NodeId>& TreeIndex::InternalChain(LabelId label) const {
  EnsureOrders();
  static const std::vector<NodeId> kEmpty;
  auto it = internal_chains_.find(label);
  return it == internal_chains_.end() ? kEmpty : it->second;
}

const std::map<LabelId, std::vector<NodeId>>& TreeIndex::LeafChains() const {
  EnsureOrders();
  return leaf_chains_;
}

const std::map<LabelId, std::vector<NodeId>>& TreeIndex::InternalChains()
    const {
  EnsureOrders();
  return internal_chains_;
}

// ----- Fingerprint tier -----

uint64_t TreeIndex::StructuralHash(NodeId x) const {
  EnsureFingerprints();
  return structural_hash_[Idx(x)];
}

uint64_t TreeIndex::LiteralHash(NodeId x) const {
  EnsureFingerprints();
  return literal_hash_[Idx(x)];
}

uint64_t TreeIndex::SubtreeHash(NodeId x) const {
  EnsureFingerprints();
  return subtree_hash_[Idx(x)];
}

// ----- Rebuilds -----

void TreeIndex::EnsureScalars() const {
  if (scalars_dirty_) RebuildScalars();
}

void TreeIndex::EnsureOrders() const {
  EnsureScalars();
  if (orders_dirty_) RebuildOrders();
}

void TreeIndex::EnsureFingerprints() const {
  EnsureOrders();
  if (fingerprints_dirty_) RebuildFingerprints();
}

void TreeIndex::RebuildScalars() const {
  assert(tree_ != nullptr && "index used after its tree was destroyed");
  const Tree& t = *tree_;
  const size_t n = t.id_bound();
  subtree_size_.assign(n, 0);
  leaf_count_.assign(n, 0);
  child_index_.assign(n, -1);
  value_hash_.resize(n);
  // Dead slots keep their value (for ReviveLeaf), so they get hashes too.
  for (size_t i = 0; i < n; ++i) {
    value_hash_[i] = HashValueBytes(t.value(static_cast<NodeId>(i)));
  }
  if (t.root() != kInvalidNode) {
    std::vector<std::pair<NodeId, size_t>> stack = {{t.root(), 0}};
    while (!stack.empty()) {
      auto& [x, cursor] = stack.back();
      const auto& kids = t.children(x);
      if (cursor < kids.size()) {
        NodeId next = kids[cursor];
        child_index_[Idx(next)] = static_cast<int>(cursor);
        ++cursor;
        stack.push_back({next, 0});
      } else {
        int size = 1;
        int leaves = kids.empty() ? 1 : 0;
        for (NodeId c : kids) {
          size += subtree_size_[Idx(c)];
          leaves += leaf_count_[Idx(c)];
        }
        subtree_size_[Idx(x)] = size;
        leaf_count_[Idx(x)] = leaves;
        stack.pop_back();
      }
    }
  }
  scalars_dirty_ = false;
}

void TreeIndex::RebuildOrders() const {
  assert(tree_ != nullptr && "index used after its tree was destroyed");
  const Tree& t = *tree_;
  const size_t n = t.id_bound();
  pre_order_.clear();
  post_order_.clear();
  leaves_.clear();
  tin_.assign(n, -1);
  tout_.assign(n, -1);
  leaf_begin_.assign(n, 0);
  leaf_end_.assign(n, 0);
  leaf_chains_.clear();
  internal_chains_.clear();
  if (t.root() != kInvalidNode) {
    pre_order_.reserve(t.size());
    post_order_.reserve(t.size());
    int clock = 0;
    std::vector<std::pair<NodeId, size_t>> stack;
    auto enter = [&](NodeId y) {
      tin_[Idx(y)] = clock++;
      pre_order_.push_back(y);
      leaf_begin_[Idx(y)] = static_cast<int>(leaves_.size());
      if (t.IsLeaf(y)) {
        leaves_.push_back(y);
        leaf_chains_[t.label(y)].push_back(y);
      } else {
        internal_chains_[t.label(y)].push_back(y);
      }
      stack.push_back({y, 0});
    };
    enter(t.root());
    while (!stack.empty()) {
      auto& [x, cursor] = stack.back();
      const auto& kids = t.children(x);
      if (cursor < kids.size()) {
        enter(kids[cursor++]);
      } else {
        tout_[Idx(x)] = clock++;
        leaf_end_[Idx(x)] = static_cast<int>(leaves_.size());
        post_order_.push_back(x);
        stack.pop_back();
      }
    }
  }
  // Level walk, as Tree::BfsOrder: bfs_order_ doubles as the queue.
  bfs_order_.clear();
  if (t.root() != kInvalidNode) {
    bfs_order_.reserve(pre_order_.size());
    bfs_order_.push_back(t.root());
    for (size_t i = 0; i < bfs_order_.size(); ++i) {
      for (NodeId c : t.children(bfs_order_[i])) bfs_order_.push_back(c);
    }
  }
  orders_dirty_ = false;
}

void TreeIndex::RebuildFingerprints() const {
  assert(tree_ != nullptr && "index used after its tree was destroyed");
  const size_t n = tree_->id_bound();
  structural_hash_.assign(n, 0);
  literal_hash_.assign(n, 0);
  subtree_hash_.assign(n, 0);
  for (NodeId x : post_order_) {
    // Seed the structural hash with 1 so a leaf's structural hash differs
    // from the "no children" literal seed even when label == value hash.
    uint64_t sh = HashCombine(1, static_cast<uint64_t>(tree_->label(x)));
    uint64_t lh = HashCombine(2, value_hash_[Idx(x)]);
    for (NodeId c : tree_->children(x)) {
      sh = HashCombine(sh, structural_hash_[Idx(c)]);
      lh = HashCombine(lh, literal_hash_[Idx(c)]);
    }
    structural_hash_[Idx(x)] = sh;
    literal_hash_[Idx(x)] = lh;
    subtree_hash_[Idx(x)] = HashCombine(sh, lh);
  }
  fingerprints_dirty_ = false;
}

// ----- Eager scalar patches -----

void TreeIndex::GrowScalars() const {
  const size_t n = tree_->id_bound();
  if (subtree_size_.size() >= n) return;
  subtree_size_.resize(n, 0);
  leaf_count_.resize(n, 0);
  child_index_.resize(n, -1);
  value_hash_.resize(n, 0);
}

void TreeIndex::RepairPathUp(NodeId from) const {
  for (NodeId q = from; q != kInvalidNode; q = tree_->parent(q)) {
    const auto& kids = tree_->children(q);
    int size = 1;
    int leaves = kids.empty() ? 1 : 0;
    for (NodeId c : kids) {
      size += subtree_size_[Idx(c)];
      leaves += leaf_count_[Idx(c)];
    }
    subtree_size_[Idx(q)] = size;
    leaf_count_[Idx(q)] = leaves;
  }
}

void TreeIndex::RepairChildIndexes(NodeId parent) const {
  const auto& kids = tree_->children(parent);
  for (size_t i = 0; i < kids.size(); ++i) {
    child_index_[Idx(kids[i])] = static_cast<int>(i);
  }
}

// ----- Mutation hooks -----

void TreeIndex::OnInsertLeaf(NodeId x) {
  if (!scalars_dirty_) {
    GrowScalars();
    const NodeId p = tree_->parent(x);
    subtree_size_[Idx(x)] = 1;
    leaf_count_[Idx(x)] = 1;
    value_hash_[Idx(x)] = HashValueBytes(tree_->value(x));
    RepairChildIndexes(p);
    RepairPathUp(p);
  }
  orders_dirty_ = true;
  fingerprints_dirty_ = true;
}

void TreeIndex::OnDeleteLeaf(NodeId x, NodeId old_parent) {
  if (!scalars_dirty_) {
    subtree_size_[Idx(x)] = 0;
    leaf_count_[Idx(x)] = 0;
    child_index_[Idx(x)] = -1;
    if (old_parent != kInvalidNode) {
      RepairChildIndexes(old_parent);
      RepairPathUp(old_parent);
    }
  }
  orders_dirty_ = true;
  fingerprints_dirty_ = true;
}

void TreeIndex::OnReviveLeaf(NodeId x) {
  if (!scalars_dirty_) {
    const NodeId p = tree_->parent(x);
    // The revived slot kept its value, so value_hash_ is already current.
    subtree_size_[Idx(x)] = 1;
    leaf_count_[Idx(x)] = 1;
    if (p == kInvalidNode) {
      child_index_[Idx(x)] = -1;
    } else {
      RepairChildIndexes(p);
      RepairPathUp(p);
    }
  }
  orders_dirty_ = true;
  fingerprints_dirty_ = true;
}

void TreeIndex::OnUpdateValue(NodeId x) {
  if (!scalars_dirty_) {
    value_hash_[Idx(x)] = HashValueBytes(tree_->value(x));
  }
  fingerprints_dirty_ = true;
}

void TreeIndex::OnMoveSubtree(NodeId x, NodeId old_parent) {
  if (!scalars_dirty_) {
    const NodeId np = tree_->parent(x);
    RepairChildIndexes(old_parent);
    RepairChildIndexes(np);
    // Repair the old path first: any stale ancestors it leaves on the
    // shared suffix sit on the new path and are fixed by the second pass.
    RepairPathUp(old_parent);
    RepairPathUp(np);
  }
  orders_dirty_ = true;
  fingerprints_dirty_ = true;
}

void TreeIndex::OnTruncateDeadTail(size_t bound) {
  // Popped slots are all dead, so they appear in no order or chain; the
  // id-indexed arrays just shrink to the new bound.
  if (!scalars_dirty_) {
    subtree_size_.resize(bound);
    leaf_count_.resize(bound);
    child_index_.resize(bound);
    value_hash_.resize(bound);
  }
  if (!orders_dirty_) {
    tin_.resize(bound);
    tout_.resize(bound);
    leaf_begin_.resize(bound);
    leaf_end_.resize(bound);
  }
  if (!fingerprints_dirty_) {
    structural_hash_.resize(bound);
    literal_hash_.resize(bound);
    subtree_hash_.resize(bound);
  }
}

void TreeIndex::OnBulkStructureChange() {
  scalars_dirty_ = true;
  orders_dirty_ = true;
  fingerprints_dirty_ = true;
}

void TreeIndex::OnTreeGone() { tree_ = nullptr; }

}  // namespace treediff
