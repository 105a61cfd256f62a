// Concurrent use of one token memo (core/compare.h). A DiffService's
// workers tokenize through the memo the service owns, and two threads may
// diff through one small lent memo while it rolls over. Answers must equal
// sequential memo-less diffs, and the TSan job (LABELS concurrency) checks
// the memo's publication and dictionary for races.

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/compare.h"
#include "core/diff.h"
#include "core/script_io.h"
#include "gen/doc_gen.h"
#include "gen/edit_sim.h"
#include "gen/vocab.h"
#include "service/diff_service.h"
#include "tree/builder.h"

namespace treediff {
namespace {

struct Pair {
  std::string old_doc, new_doc;
};

/// Pairs over one base document, so their values overlap and concurrent
/// diffs meet in the same memo entries and dictionary words.
std::vector<Pair> MakePairs(int count) {
  auto labels = std::make_shared<LabelTable>();
  Vocabulary vocab(600, 1.0);
  Rng rng(20261020);
  DocGenParams params;
  params.sections = 3;
  const Tree base = GenerateDocument(params, vocab, &rng, labels);
  std::vector<Pair> pairs;
  for (int i = 0; i < count; ++i) {
    SimulatedVersion next = SimulateNewVersion(base, 6, EditMix{}, vocab, &rng);
    pairs.push_back({base.ToDebugString(), next.new_tree.ToDebugString()});
  }
  return pairs;
}

/// `doc` with its root value set to `tag`: new text for the caches, the
/// same script (equal root values cost nothing).
std::string Tagged(const std::string& doc, int tag) {
  const std::string root = "(document ";
  EXPECT_EQ(doc.compare(0, root.size(), root), 0);
  return root + "\"round " + std::to_string(tag) + "\" " +
         doc.substr(root.size());
}

std::string ExpectedScript(const Pair& pair, TokenMemo* memo) {
  auto labels = std::make_shared<LabelTable>();
  StatusOr<Tree> t1 = ParseSexpr(pair.old_doc, labels);
  StatusOr<Tree> t2 = ParseSexpr(pair.new_doc, labels);
  EXPECT_TRUE(t1.ok() && t2.ok());
  DiffOptions options;
  options.share_mode = ShareMode::kIndexed;
  options.token_memo = memo;
  StatusOr<DiffResult> result = DiffTrees(*t1, *t2, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return FormatEditScript(result->script, *labels);
}

TEST(TokenMemoConcurrencyTest, TwoWorkersShareTheServiceMemo) {
  constexpr int kPairs = 16;
  constexpr int kRounds = 3;
  const std::vector<Pair> pairs = MakePairs(kPairs);
  std::vector<std::string> expected;
  for (const Pair& pair : pairs) {
    expected.push_back(ExpectedScript(pair, nullptr));
  }

  DiffServiceOptions options;
  options.num_threads = 2;
  DiffService service(options);
  // Every round tags the documents anew, so no answer comes from the diff
  // cache: each request diffs, through the one memo, beside the other worker.
  std::vector<std::future<DiffResponse>> futures;
  for (int round = 0; round < kRounds; ++round) {
    for (const Pair& pair : pairs) {
      DiffRequest request;
      request.old_doc = Tagged(pair.old_doc, round);
      request.new_doc = Tagged(pair.new_doc, round);
      futures.push_back(service.Submit(std::move(request)));
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const DiffResponse response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_FALSE(response.matching_cache_hit);
    EXPECT_EQ(response.script, expected[i % kPairs]) << "request " << i;
  }
  const TokenMemo::Stats stats = service.token_memo_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.entries, 0u);
}

TEST(TokenMemoConcurrencyTest, ThreadsDiffThroughOneRollingMemo) {
  // 8 KiB rolls over every few diffs, so pins, rollovers and racing
  // publications of the same values all happen across the two threads.
  constexpr int kPairs = 12;
  const std::vector<Pair> pairs = MakePairs(kPairs);
  std::vector<std::string> expected;
  for (const Pair& pair : pairs) {
    expected.push_back(ExpectedScript(pair, nullptr));
  }

  TokenMemo memo(8u << 10);
  std::vector<std::vector<std::string>> got(2);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 2; ++round) {
        for (int i = 0; i < kPairs; ++i) {
          // The two threads walk the pairs in opposite orders.
          const int k = t == 0 ? i : kPairs - 1 - i;
          got[static_cast<size_t>(t)].push_back(
              ExpectedScript(pairs[static_cast<size_t>(k)], &memo));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < 2; ++t) {
    ASSERT_EQ(got[static_cast<size_t>(t)].size(), 2u * kPairs);
    for (int n = 0; n < 2 * kPairs; ++n) {
      const int i = n % kPairs;
      const int k = t == 0 ? i : kPairs - 1 - i;
      EXPECT_EQ(got[static_cast<size_t>(t)][static_cast<size_t>(n)],
                expected[static_cast<size_t>(k)])
          << "thread " << t << " diff " << n;
    }
  }
  EXPECT_GT(memo.stats().generations, 2u);
}

}  // namespace
}  // namespace treediff
