#include "service/tree_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "tree/builder.h"

namespace treediff {
namespace {

struct Fixture {
  std::shared_ptr<LabelTable> labels = std::make_shared<LabelTable>();
  Tree Parse(const std::string& s) { return *ParseSexpr(s, labels); }
};

TEST(TreeCacheTest, InsertThenLookupHits) {
  Fixture f;
  TreeCache cache({.capacity_bytes = 1u << 20, .shards = 4});
  const uint64_t key = TreeCache::FingerprintText("sexpr", "(D (S \"a\"))");
  EXPECT_EQ(cache.Lookup(key), nullptr);
  auto inserted = cache.Insert(key, f.Parse("(D (S \"a\"))"));
  ASSERT_NE(inserted, nullptr);
  auto found = cache.Lookup(key);
  EXPECT_EQ(found.get(), inserted.get());
  const TreeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(TreeCacheTest, EntriesArePublishedFrozenAndWarm) {
  Fixture f;
  TreeCache cache({.capacity_bytes = 1u << 20, .shards = 1});
  auto entry = cache.Insert(1, f.Parse("(D (P (S \"x\") (S \"y\")))"));
  EXPECT_TRUE(entry->tree.Frozen());
  EXPECT_TRUE(entry->index.attached());
  EXPECT_EQ(&entry->index.tree(), &entry->tree);
  // A clone of a frozen tree starts unfrozen (the generator's working-copy
  // path relies on this).
  Tree clone = entry->tree.Clone();
  EXPECT_FALSE(clone.Frozen());
  EXPECT_TRUE(clone.UpdateValue(clone.Leaves()[0], "edited").ok());
}

TEST(TreeCacheTest, DuplicateInsertFirstWins) {
  Fixture f;
  TreeCache cache({.capacity_bytes = 1u << 20, .shards = 2});
  auto first = cache.Insert(42, f.Parse("(D (S \"same\"))"));
  auto second = cache.Insert(42, f.Parse("(D (S \"same\"))"));
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(TreeCacheTest, EvictsLruButPinnedEntriesSurvive) {
  Fixture f;
  // Tiny budget: each parsed doc is a few hundred bytes, so a handful of
  // inserts must evict.
  TreeCache cache({.capacity_bytes = 2048, .shards = 1});
  auto pinned = cache.Insert(0, f.Parse("(D (S \"keep me pinned\"))"));
  for (uint64_t k = 1; k <= 16; ++k) {
    cache.Insert(k, f.Parse("(D (S \"filler number " + std::to_string(k) +
                            " with some padding text\"))"));
  }
  const TreeCache::Stats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.entries, 17u);
  // The evicted entry is gone from the cache but the shared_ptr keeps the
  // tree alive and readable.
  EXPECT_EQ(cache.Lookup(0), nullptr);
  EXPECT_EQ(pinned->tree.value(pinned->tree.Leaves()[0]), "keep me pinned");
}

TEST(TreeCacheTest, NeverEvictsBelowOneEntryPerShard) {
  Fixture f;
  TreeCache cache({.capacity_bytes = 1, .shards = 1});  // Absurdly small.
  auto entry = cache.Insert(7, f.Parse("(D (S \"oversized for budget\"))"));
  ASSERT_NE(entry, nullptr);
  // The over-budget entry is still served (a single huge document must not
  // make the cache useless).
  EXPECT_NE(cache.Lookup(7), nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(TreeCacheTest, FingerprintsSeparateFormatsAndContents) {
  const uint64_t sexpr = TreeCache::FingerprintText("sexpr", "(D)");
  const uint64_t xml = TreeCache::FingerprintText("xml", "(D)");
  const uint64_t other = TreeCache::FingerprintText("sexpr", "(P)");
  EXPECT_NE(sexpr, xml);  // Same bytes, different parser -> different tree.
  EXPECT_NE(sexpr, other);
  EXPECT_EQ(sexpr, TreeCache::FingerprintText("sexpr", "(D)"));

  EXPECT_NE(TreeCache::FingerprintVersion("doc", 1),
            TreeCache::FingerprintVersion("doc", 2));
  EXPECT_NE(TreeCache::FingerprintVersion("doc", 1),
            TreeCache::FingerprintVersion("cod", 1));
  EXPECT_NE(TreeCache::FingerprintVersion("doc", 1, 0),
            TreeCache::FingerprintVersion("doc", 1, 1));
}

TEST(TreeCacheTest, ConcurrentInsertAndLookupConverge) {
  Fixture f;
  TreeCache cache({.capacity_bytes = 4u << 20, .shards = 8});
  // Pre-parse in one thread: LabelTable interning order stays fixed.
  std::vector<std::string> docs;
  for (int i = 0; i < 16; ++i) {
    docs.push_back("(D (P (S \"doc " + std::to_string(i) + " text\")))");
  }
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 200; ++round) {
        const int i = (t + round) % 16;
        const uint64_t key = TreeCache::FingerprintText("sexpr", docs[i]);
        auto entry = cache.Lookup(key);
        if (entry == nullptr) {
          entry = cache.Insert(key, *ParseSexpr(docs[i], f.labels));
        }
        // Every thread must observe the same (frozen) content under a key.
        if (entry->tree.value(entry->tree.Leaves()[0]) !=
            "doc " + std::to_string(i) + " text") {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const TreeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 16u);
  EXPECT_GE(stats.hits, 8u * 200u - 16u * 8u);  // Most rounds hit.
}

}  // namespace
}  // namespace treediff
