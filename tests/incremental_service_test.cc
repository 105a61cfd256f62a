// Incremental serving (DiffServiceOptions::incremental): the share-map
// pre-pass prunes unchanged subtrees on every request, repeat requests over
// the same content fingerprints reuse the cached phase-1 matching, and
// adjacent stored-version diffs are answered straight from the commit log.
// Each layer must be an observable accelerant (hit flags, PRUNE metrics)
// and must serve byte-identical scripts to the cold path.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/script_io.h"
#include "gen/doc_gen.h"
#include "gen/edit_sim.h"
#include "gen/vocab.h"
#include "service/diff_service.h"

namespace treediff {
namespace {

DiffRequest InlineRequest(const std::string& old_doc,
                          const std::string& new_doc) {
  DiffRequest request;
  request.format = DiffRequest::Format::kSexpr;
  request.old_doc = old_doc;
  request.new_doc = new_doc;
  return request;
}

const char kBase[] =
    "(D (P (S \"alpha beta gamma\") (S \"delta epsilon\")) "
    "(P (S \"zeta eta\") (S \"theta iota kappa\")) "
    "(P (S \"lambda mu\")))";
const char kEdited[] =
    "(D (P (S \"alpha beta gamma\") (S \"delta epsilon\")) "
    "(P (S \"zeta eta\") (S \"theta iota CHANGED\")) "
    "(P (S \"lambda mu\")))";

TEST(IncrementalServiceTest, PruningEngagesAndMatchesTheColdPath) {
  DiffServiceOptions plain;
  plain.num_threads = 2;
  DiffService cold(plain);
  const DiffResponse cold_response =
      cold.SubmitSync(InlineRequest(kBase, kEdited));
  ASSERT_TRUE(cold_response.status.ok()) << cold_response.status.ToString();
  EXPECT_EQ(cold_response.pruned_subtrees, 0u);  // incremental off: no prune

  DiffServiceOptions inc = plain;
  inc.incremental = true;
  DiffService warm(inc);
  const DiffResponse warm_response =
      warm.SubmitSync(InlineRequest(kBase, kEdited));
  ASSERT_TRUE(warm_response.status.ok()) << warm_response.status.ToString();
  // The two untouched paragraphs settle wholesale.
  EXPECT_GE(warm_response.pruned_subtrees, 2u);
  EXPECT_GT(warm_response.pruned_nodes, warm_response.pruned_subtrees);
  EXPECT_FALSE(warm_response.matching_cache_hit);  // First sighting.
  EXPECT_EQ(warm_response.operations, cold_response.operations);

  // Cumulative prune metrics are exported.
  EXPECT_GE(warm.metrics().counter("diff_prune_subtrees_total")->Value(),
            warm_response.pruned_subtrees);
  EXPECT_GE(warm.metrics().counter("diff_prune_nodes_total")->Value(),
            warm_response.pruned_nodes);
}

TEST(IncrementalServiceTest, RepeatRequestHitsTheMatchingCache) {
  DiffServiceOptions options;
  options.num_threads = 2;
  options.incremental = true;
  DiffService service(options);

  const DiffResponse first = service.SubmitSync(InlineRequest(kBase, kEdited));
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.matching_cache_hit);

  const DiffResponse second =
      service.SubmitSync(InlineRequest(kBase, kEdited));
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.matching_cache_hit);
  // Byte-identical serving: a reused matching must reproduce the script.
  EXPECT_EQ(second.script, first.script);
  EXPECT_EQ(second.operations, first.operations);
  EXPECT_EQ(service.metrics().counter("diff_match_cache_hits_total")->Value(),
            1u);
}

TEST(IncrementalServiceTest, BudgetedRequestsBypassTheMatchingCache) {
  DiffServiceOptions options;
  options.num_threads = 2;
  options.incremental = true;
  DiffService service(options);

  DiffRequest budgeted = InlineRequest(kBase, kEdited);
  budgeted.node_cap = 1u << 20;  // Generous, but budgeted is budgeted.
  const DiffResponse first = service.SubmitSync(budgeted);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.matching_cache_hit);

  DiffRequest again = InlineRequest(kBase, kEdited);
  again.node_cap = 1u << 20;
  const DiffResponse second = service.SubmitSync(again);
  ASSERT_TRUE(second.status.ok());
  // A budgeted run may degrade, so its matching is neither stored nor
  // reused — correctness over cleverness.
  EXPECT_FALSE(second.matching_cache_hit);
  EXPECT_EQ(service.metrics().counter("diff_match_cache_hits_total")->Value(),
            0u);
}

TEST(IncrementalServiceTest, AdjacentVersionDiffServesFromTheChainLog) {
  DiffServiceOptions options;
  options.num_threads = 2;
  options.incremental = true;
  DiffService service(options);

  ASSERT_TRUE(service.CreateStore("doc", kBase).ok());
  const StatusOr<int> v1 = service.CommitVersion("doc", kEdited);
  ASSERT_TRUE(v1.ok());
  ASSERT_EQ(*v1, 1);

  // The authoritative answer, computed by the pipeline with the chain log
  // bypassed (incremental off).
  DiffServiceOptions plain;
  plain.num_threads = 2;
  DiffService cold(plain);
  ASSERT_TRUE(cold.CreateStore("doc", kBase).ok());
  ASSERT_TRUE(cold.CommitVersion("doc", kEdited).ok());
  DiffRequest request;
  request.doc_id = "doc";
  request.from_version = 0;
  request.to_version = 1;
  const DiffResponse pipeline = cold.SubmitSync(request);
  ASSERT_TRUE(pipeline.status.ok()) << pipeline.status.ToString();
  EXPECT_FALSE(pipeline.chain_log_hit);

  const DiffResponse logged = service.SubmitSync(request);
  ASSERT_TRUE(logged.status.ok()) << logged.status.ToString();
  EXPECT_TRUE(logged.chain_log_hit);
  // The stored delta IS the diff the pipeline computed at commit time.
  EXPECT_EQ(logged.script, pipeline.script);
  EXPECT_EQ(logged.operations, pipeline.operations);
  EXPECT_EQ(service.metrics().counter("diff_chain_log_hits_total")->Value(),
            1u);

  // Non-adjacent requests fall through to the pipeline.
  ASSERT_TRUE(service.CommitVersion("doc", kBase).ok());
  DiffRequest skip;
  skip.doc_id = "doc";
  skip.from_version = 0;
  skip.to_version = 2;
  const DiffResponse wide = service.SubmitSync(skip);
  ASSERT_TRUE(wide.status.ok()) << wide.status.ToString();
  EXPECT_FALSE(wide.chain_log_hit);
}

TEST(IncrementalServiceTest, ConcurrentIncrementalSubmitsStayConsistent) {
  DiffServiceOptions options;
  options.num_threads = 4;
  options.incremental = true;
  options.matching_cache_entries = 8;
  DiffService service(options);
  // Pin label ids so concurrent first-touch interning cannot reorder them.
  (void)service.SubmitSync(InlineRequest(kBase, kBase));

  ASSERT_TRUE(service.CreateStore("doc", kBase).ok());
  ASSERT_TRUE(service.CommitVersion("doc", kEdited).ok());

  const DiffResponse expected =
      service.SubmitSync(InlineRequest(kBase, kEdited));
  ASSERT_TRUE(expected.status.ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 16;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        DiffResponse r;
        if (i % 2 == 0) {
          r = service.SubmitSync(InlineRequest(kBase, kEdited));
          if (!r.status.ok() || r.script != expected.script) ++failures[t];
        } else {
          DiffRequest request;
          request.doc_id = "doc";
          request.from_version = 0;
          request.to_version = 1;
          r = service.SubmitSync(request);
          if (!r.status.ok() || !r.chain_log_hit) ++failures[t];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
  // Every inline pair after the first should have hit the matching cache.
  EXPECT_GE(service.metrics().counter("diff_match_cache_hits_total")->Value(),
            static_cast<uint64_t>(kThreads * kPerThread / 2 - kThreads));
}

TEST(IncrementalServiceTest, RepeatedGeneratedDiffsHitWithTheSameScript) {
  // The hot path of a repeat kDiff: both trees and the matching come from
  // the caches, and the settled list cached with the matching lets
  // generation skip the unchanged regions again. Over generated documents
  // with moved and edited sections every hit must serve the miss's script
  // byte for byte.
  DiffServiceOptions options;
  options.num_threads = 2;
  options.incremental = true;
  DiffService service(options);
  Vocabulary vocab(400, 1.0);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    DocGenParams params;
    params.sections = 4;
    params.duplicate_sentence_probability = 0.2;
    auto labels = std::make_shared<LabelTable>();
    const Tree base = GenerateDocument(params, vocab, &rng, labels);
    EditMix mix;
    mix.move_paragraph = 0.2;
    mix.move_sentence = 0.2;
    mix.move_section = 0.1;
    const Tree edited =
        SimulateNewVersion(base, 6, mix, vocab, &rng).new_tree;
    const DiffRequest request =
        InlineRequest(base.ToDebugString(), edited.ToDebugString());

    const DiffResponse miss = service.SubmitSync(request);
    ASSERT_TRUE(miss.status.ok()) << miss.status.ToString();
    EXPECT_FALSE(miss.matching_cache_hit) << "seed " << seed;
    EXPECT_GT(miss.pruned_subtrees, 0u) << "seed " << seed;
    const DiffResponse hit = service.SubmitSync(request);
    ASSERT_TRUE(hit.status.ok()) << hit.status.ToString();
    EXPECT_TRUE(hit.matching_cache_hit) << "seed " << seed;
    EXPECT_TRUE(hit.cache_hit_old && hit.cache_hit_new) << "seed " << seed;
    EXPECT_EQ(hit.operations, miss.operations) << "seed " << seed;
    EXPECT_EQ(hit.script, miss.script) << "seed " << seed;
  }
  EXPECT_EQ(service.metrics().counter("diff_match_cache_hits_total")->Value(),
            8u);
}

/// A stored-mode chain like the deployed benchmark's: a 64-section document
/// with 10% duplicate sentences (ambiguous share-map twins), then
/// `versions` successors at a 1% edit rate. All trees share `labels`.
std::vector<Tree> MakeChain(uint64_t seed, int versions,
                            const std::shared_ptr<LabelTable>& labels) {
  Vocabulary vocab(3000, 1.0);
  Rng rng(seed);
  DocGenParams params;
  params.sections = 64;
  params.min_paragraphs_per_section = 4;
  params.max_paragraphs_per_section = 8;
  params.duplicate_sentence_probability = 0.1;
  std::vector<Tree> chain;
  chain.push_back(GenerateDocument(params, vocab, &rng, labels));
  const int edits = std::max(
      1, static_cast<int>(0.01 * static_cast<double>(
                                     chain.front().Leaves().size())));
  for (int v = 1; v <= versions; ++v) {
    chain.push_back(
        SimulateNewVersion(chain.back(), edits, EditMix{}, vocab, &rng)
            .new_tree);
  }
  return chain;
}

TEST(IncrementalServiceTest, AdjacentAnswersFromTheLogEqualLiveDiffs) {
  // One rule for every path: the delta a commit stores, and so the
  // adjacent kVdiff the chain log answers, is byte-identical to a live
  // diff of the two materialized versions under the service's read
  // options (the share-map pre-pass on).
  constexpr int kVersions = 40;
  DiffServiceOptions options;
  options.num_threads = 2;
  options.incremental = true;
  DiffService service(options);
  auto labels = std::make_shared<LabelTable>();
  const std::vector<Tree> chain = MakeChain(20261018, kVersions, labels);
  auto group = ReplicatedVersionStore::Create({}, chain[0].Clone());
  ASSERT_TRUE(group.ok()) << group.status().ToString();
  std::shared_ptr<ReplicatedVersionStore> shared = std::move(*group);
  ASSERT_TRUE(service.AttachStore("chain", shared).ok());
  for (int v = 1; v <= kVersions; ++v) {
    ASSERT_TRUE(service
                    .CommitVersion("chain", chain[static_cast<size_t>(v)]
                                                .ToDebugString())
                    .ok());
  }

  DiffOptions read = options.diff;
  read.share_mode = ShareMode::kIndexed;
  int differing = 0;
  for (int v = 1; v <= kVersions; ++v) {
    DiffRequest request;
    request.doc_id = "chain";
    request.from_version = v - 1;
    request.to_version = v;
    const DiffResponse logged = service.SubmitSync(request);
    ASSERT_TRUE(logged.status.ok()) << logged.status.ToString();
    ASSERT_TRUE(logged.chain_log_hit) << "v" << v;

    StatusOr<Tree> from = shared->Materialize(v - 1);
    StatusOr<Tree> to = shared->Materialize(v);
    ASSERT_TRUE(from.ok() && to.ok());
    StatusOr<DiffResult> live = DiffTrees(*from, *to, read);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    const std::string live_text =
        FormatEditScript(live->script, *shared->label_table());
    if (logged.script != live_text) ++differing;
    EXPECT_EQ(logged.operations, live->script.size()) << "v" << v;
  }
  EXPECT_EQ(differing, 0);
}

TEST(IncrementalServiceTest, CommitsIgnoreTheStoreShareMode) {
  // The commit rule lives in the store: a store built with any share_mode
  // stores the same deltas, so a mirror built with DiffOptions{} reproduces
  // a server's node ids exactly.
  constexpr int kVersions = 12;
  auto labels = std::make_shared<LabelTable>();
  const std::vector<Tree> chain = MakeChain(7, kVersions, labels);
  std::vector<std::vector<std::string>> deltas;
  for (ShareMode mode :
       {ShareMode::kOff, ShareMode::kReference, ShareMode::kIndexed}) {
    DiffOptions options;
    options.share_mode = mode;
    VersionStore store(chain[0].Clone(), options);
    std::vector<std::string> texts;
    for (int v = 1; v <= kVersions; ++v) {
      ASSERT_TRUE(store.Commit(chain[static_cast<size_t>(v)]).ok());
      texts.push_back(FormatEditScript(*store.DeltaFor(v), *labels));
    }
    deltas.push_back(std::move(texts));
  }
  EXPECT_EQ(deltas[0], deltas[2]) << "kOff store vs kIndexed store";
  EXPECT_EQ(deltas[1], deltas[2]) << "kReference store vs kIndexed store";
}

}  // namespace
}  // namespace treediff
