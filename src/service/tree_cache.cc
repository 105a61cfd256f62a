#include "service/tree_cache.h"

#include <algorithm>
#include <string>

#include "util/crc32c.h"

namespace treediff {

namespace {

/// Approximate footprint of a cached entry, charged by content so that
/// the same tree costs the same however it was built: a per-id constant
/// for the node record and the warmed index's per-node arrays, plus each
/// slot's value bytes and child ids. Dead slots count too; they keep their
/// record and value either way.
size_t ApproxFootprint(const Tree& tree) {
  // Per id: node record bookkeeping + index scalar/order/fingerprint
  // arrays (5 ints + 2 orders worth of ids + hashes), ~176 B together.
  size_t bytes = tree.id_bound() * 176;
  for (NodeId x = 0; x < static_cast<NodeId>(tree.id_bound()); ++x) {
    bytes += tree.value(x).size();
    bytes += tree.children(x).size() * sizeof(NodeId);
  }
  return bytes;
}

}  // namespace

CachedTree::CachedTree(Tree t, uint64_t cache_key)
    : tree(std::move(t)), index(tree), key(cache_key) {
  tree.Freeze();
  index.WarmAll();
  bytes = ApproxFootprint(tree);
}

TreeCache::TreeCache(Options options)
    : per_shard_capacity_(options.capacity_bytes /
                          static_cast<size_t>(std::max(options.shards, 1))) {
  const int n = std::max(options.shards, 1);
  shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

std::shared_ptr<const CachedTree> TreeCache::Lookup(uint64_t key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->second;
}

std::shared_ptr<const CachedTree> TreeCache::Insert(uint64_t key, Tree tree) {
  // Freeze + warm outside the shard lock: this is the expensive part, and a
  // racing duplicate insert merely wastes its own work.
  auto entry = std::make_shared<const CachedTree>(std::move(tree), key);
  // Evicted entries are destroyed here, after the shard lock is released
  // (declared before the lock, so it dies after it): freeing a tree is
  // O(nodes) and must not stall the shard's other requests.
  std::vector<std::shared_ptr<const CachedTree>> victims;
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->second;  // First insert won.
  }
  shard.lru.emplace_front(key, entry);
  shard.map.emplace(key, shard.lru.begin());
  shard.bytes += entry->bytes;
  insertions_.fetch_add(1, std::memory_order_relaxed);
  // Evict cold entries, but always keep the one just inserted: a single
  // over-budget document must still be served.
  while (shard.bytes > per_shard_capacity_ && shard.lru.size() > 1) {
    auto& victim = shard.lru.back();
    shard.bytes -= victim.second->bytes;
    shard.map.erase(victim.first);
    victims.push_back(std::move(victim.second));
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return entry;
}

TreeCache::Stats TreeCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    s.bytes += shard->bytes;
    s.entries += shard->lru.size();
  }
  return s;
}

uint64_t TreeCache::FingerprintText(std::string_view format_tag,
                                    std::string_view text) {
  uint64_t h = HashValueBytes(format_tag);
  h = (h * 1099511628211ull) ^ HashValueBytes(text);
  // Fold in CRC-32C as an independent second hash: a collision now needs
  // to defeat both functions at once.
  return h ^ (static_cast<uint64_t>(Crc32c(text)) << 32);
}

uint64_t TreeCache::FingerprintVersion(std::string_view doc_id, int version,
                                       uint64_t epoch) {
  uint64_t h = HashValueBytes("store-version");
  h = (h * 1099511628211ull) ^ HashValueBytes(doc_id);
  h = (h * 1099511628211ull) ^ epoch;
  return (h * 1099511628211ull) ^ static_cast<uint64_t>(version);
}

}  // namespace treediff
