#ifndef TREEDIFF_SERVICE_TREE_CACHE_H_
#define TREEDIFF_SERVICE_TREE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tree/tree.h"
#include "tree/tree_index.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace treediff {

/// One cache entry: a parsed tree plus its fully-built TreeIndex. The
/// constructor freezes the tree (Tree::Freeze — any later mutation fails
/// fast) and warms every index tier (TreeIndex::WarmAll), so a published
/// entry is safe to read from any number of request threads concurrently.
/// Pipeline stages that need a mutable tree (edit-script generation's
/// working copy) clone it; clones start unfrozen.
struct CachedTree {
  Tree tree;
  TreeIndex index;
  uint64_t key = 0;
  size_t bytes = 0;  // Approximate memory footprint, for the LRU budget.

  CachedTree(Tree t, uint64_t cache_key);

  CachedTree(const CachedTree&) = delete;
  CachedTree& operator=(const CachedTree&) = delete;
};

/// A sharded LRU cache of parsed trees keyed by content fingerprint, so a
/// diff against a hot base version skips parse + index entirely. Sharding
/// by key keeps the per-shard mutexes off each other's necks; entries are
/// handed out as shared_ptr<const CachedTree>, so eviction never invalidates
/// a request that is still diffing against the entry.
///
/// Keys are 64-bit content fingerprints (HashValueBytes, i.e. XXH64, of the
/// document text folded with its CRC-32C — two independent hashes).
/// Distinct documents collide with probability ~2^-64, which the service
/// accepts, as content-addressed stores do. The same keys address the
/// service's answer cache (DiffService), so a collision would serve another
/// document's tree and another pair's script alike.
class TreeCache {
 public:
  struct Options {
    size_t capacity_bytes = 64u << 20;  // Total across shards.
    int shards = 8;                     // Clamped to >= 1.
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    size_t bytes = 0;
    size_t entries = 0;
  };

  explicit TreeCache(Options options);

  /// The entry under `key`, or null. A hit refreshes LRU recency.
  std::shared_ptr<const CachedTree> Lookup(uint64_t key);

  /// Publishes `tree` under `key` (freezing + warming it) and returns the
  /// cached entry. If a concurrent insert won the race, the tree that got
  /// there first wins and is returned — both copies parsed from the same
  /// content, so either is correct.
  std::shared_ptr<const CachedTree> Insert(uint64_t key, Tree tree);

  /// Number of shards (for tests asserting the sharded layout).
  int shards() const { return static_cast<int>(shards_.size()); }

  Stats stats() const;

  /// Fingerprint of an inline document: its text plus a format tag (the
  /// same bytes parsed as s-expression vs. XML give different trees).
  static uint64_t FingerprintText(std::string_view format_tag,
                                  std::string_view text);

  /// Fingerprint of a stored version: `doc_id`, version number, and the
  /// store's replication epoch, each hashed as its own field.
  static uint64_t FingerprintVersion(std::string_view doc_id, int version,
                                     uint64_t epoch = 0);

 private:
  struct Shard {
    Mutex mu;
    // Front = most recently used.
    std::list<std::pair<uint64_t, std::shared_ptr<const CachedTree>>> lru
        GUARDED_BY(mu);
    std::unordered_map<
        uint64_t,
        std::list<std::pair<uint64_t,
                            std::shared_ptr<const CachedTree>>>::iterator>
        map GUARDED_BY(mu);
    size_t bytes GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(uint64_t key) {
    return *shards_[static_cast<size_t>(key) % shards_.size()];
  }

  size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace treediff

#endif  // TREEDIFF_SERVICE_TREE_CACHE_H_
