// Incremental serving, which every DiffService does: the share-map
// pre-pass prunes unchanged subtrees on every request, repeat requests over
// the same content fingerprints are answered from the diff cache, and
// adjacent stored-version diffs are answered straight from the commit log.
// Each layer must be an observable accelerant (hit flags, PRUNE metrics)
// and must serve the scripts the plain pipeline (DiffTrees) computes.

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/script_io.h"
#include "gen/doc_gen.h"
#include "gen/edit_sim.h"
#include "gen/vocab.h"
#include "service/diff_service.h"
#include "tree/builder.h"
#include "util/fault_env.h"

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
  DiffServiceOptions options;
  options.num_threads = 2;
  DiffService warm(options);
  const DiffResponse warm_response =
      warm.SubmitSync(InlineRequest(kBase, kEdited));
  ASSERT_TRUE(warm_response.status.ok()) << warm_response.status.ToString();
  // The two untouched paragraphs settle wholesale.
  EXPECT_GE(warm_response.pruned_subtrees, 2u);
  EXPECT_GT(warm_response.pruned_nodes, warm_response.pruned_subtrees);
  EXPECT_FALSE(warm_response.matching_cache_hit);  // First sighting.

  // The unpruned pipeline (kOff) settles nothing and finds as many ops.
  auto labels = std::make_shared<LabelTable>();
  StatusOr<Tree> base = ParseSexpr(kBase, labels);
  StatusOr<Tree> edited = ParseSexpr(kEdited, labels);
  ASSERT_TRUE(base.ok() && edited.ok());
  DiffOptions cold_options;
  cold_options.share_mode = ShareMode::kOff;
  StatusOr<DiffResult> cold = DiffTrees(*base, *edited, cold_options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->report.prune_settled_subtrees, 0u);
  EXPECT_EQ(warm_response.operations, cold->script.size());

  // Cumulative prune metrics are exported.
  EXPECT_EQ(warm.metrics().counter("diff_prune_subtrees_total")->Value(),
            warm_response.pruned_subtrees);
  EXPECT_EQ(warm.metrics().counter("diff_prune_nodes_total")->Value(),
            warm_response.pruned_nodes);
}

TEST(IncrementalServiceTest, RepeatRequestHitsTheMatchingCache) {
  DiffServiceOptions options;
  options.num_threads = 2;
  DiffService service(options);

  const DiffResponse first = service.SubmitSync(InlineRequest(kBase, kEdited));
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.matching_cache_hit);

  const DiffResponse second =
      service.SubmitSync(InlineRequest(kBase, kEdited));
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.matching_cache_hit);
  // Byte-identical serving: a cached answer is the first answer.
  EXPECT_EQ(second.script, first.script);
  EXPECT_EQ(second.operations, first.operations);
  EXPECT_EQ(service.metrics().counter("diff_match_cache_hits_total")->Value(),
            1u);
}

TEST(IncrementalServiceTest, BudgetedRequestsBypassTheMatchingCache) {
  DiffServiceOptions options;
  options.num_threads = 2;
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
  // A budgeted run may degrade, so its answer is neither stored nor
  // reused — correctness over cleverness.
  EXPECT_FALSE(second.matching_cache_hit);
  EXPECT_EQ(service.metrics().counter("diff_match_cache_hits_total")->Value(),
            0u);
}

TEST(IncrementalServiceTest, AdjacentVersionDiffServesFromTheChainLog) {
  DiffServiceOptions options;
  options.num_threads = 2;
  DiffService service(options);
  auto group = ReplicatedVersionStore::Create({}, *ParseSexpr(kBase));
  ASSERT_TRUE(group.ok()) << group.status().ToString();
  std::shared_ptr<ReplicatedVersionStore> shared = std::move(*group);
  ASSERT_TRUE(service.AttachStore("doc", shared).ok());
  const StatusOr<int> v1 = service.CommitVersion("doc", kEdited);
  ASSERT_TRUE(v1.ok());
  ASSERT_EQ(*v1, 1);

  DiffRequest request;
  request.doc_id = "doc";
  request.from_version = 0;
  request.to_version = 1;
  const DiffResponse logged = service.SubmitSync(request);
  ASSERT_TRUE(logged.status.ok()) << logged.status.ToString();
  EXPECT_TRUE(logged.chain_log_hit);
  EXPECT_EQ(service.metrics().counter("diff_chain_log_hits_total")->Value(),
            1u);

  // The stored delta is the diff the unpruned pipeline (kOff) computes on
  // the two materialized versions.
  StatusOr<Tree> from = shared->primary()->Materialize(0);
  StatusOr<Tree> to = shared->primary()->Materialize(1);
  ASSERT_TRUE(from.ok() && to.ok());
  DiffOptions cold_options;
  cold_options.share_mode = ShareMode::kOff;
  StatusOr<DiffResult> cold = DiffTrees(*from, *to, cold_options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(logged.script,
            FormatEditScript(cold->script, *shared->label_table()));
  EXPECT_EQ(logged.operations, cold->script.size());

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
  // Every inline pair after the first should have hit the diff cache.
  EXPECT_GE(service.metrics().counter("diff_match_cache_hits_total")->Value(),
            static_cast<uint64_t>(kThreads * kPerThread / 2 - kThreads));
}

TEST(IncrementalServiceTest, DefaultServicePrunesCachesAndReadsTheLog) {
  DiffService service;
  const DiffResponse first = service.SubmitSync(InlineRequest(kBase, kEdited));
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_GE(first.pruned_subtrees, 2u);
  EXPECT_FALSE(first.matching_cache_hit);

  const DiffResponse repeat =
      service.SubmitSync(InlineRequest(kBase, kEdited));
  ASSERT_TRUE(repeat.status.ok()) << repeat.status.ToString();
  EXPECT_TRUE(repeat.matching_cache_hit);
  EXPECT_EQ(repeat.script, first.script);

  ASSERT_TRUE(service.CreateStore("doc", kBase).ok());
  ASSERT_TRUE(service.CommitVersion("doc", kEdited).ok());
  DiffRequest adjacent;
  adjacent.doc_id = "doc";
  adjacent.from_version = 0;
  adjacent.to_version = 1;
  const DiffResponse logged = service.SubmitSync(adjacent);
  ASSERT_TRUE(logged.status.ok()) << logged.status.ToString();
  EXPECT_TRUE(logged.chain_log_hit);
  EXPECT_EQ(logged.operations, first.operations);
}

// Two paragraphs swap places and each gains a word, so no subtree stays
// identical for the share-map pre-pass to settle.
const char kTwoParagraphs[] =
    "(D (P (S \"first paragraph words\") (S \"one more\")) "
    "(P (S \"second paragraph words\") (S \"two more\")))";
const char kSwapped[] =
    "(D (P (S \"second paragraph words here\") (S \"two more\")) "
    "(P (S \"first paragraph words here\") (S \"one more\")))";

TEST(IncrementalServiceTest, LogAnswersOnlyFastMatchOrLowerStarts) {
  // Every commit diffs from kFastMatch: a request that asks for the
  // optimal rung must run it, not get the commit's delta.
  DiffService service;
  auto group = ReplicatedVersionStore::Create({}, *ParseSexpr(kTwoParagraphs));
  ASSERT_TRUE(group.ok()) << group.status().ToString();
  std::shared_ptr<ReplicatedVersionStore> shared = std::move(*group);
  ASSERT_TRUE(service.AttachStore("doc", shared).ok());
  ASSERT_TRUE(service.CommitVersion("doc", kSwapped).ok());
  const std::string stored =
      FormatEditScript(*shared->primary()->DeltaFor(1), *shared->label_table());

  DiffRequest request;
  request.doc_id = "doc";
  request.from_version = 0;
  request.to_version = 1;
  request.start_rung = DiffRung::kOptimalZs;
  const DiffResponse optimal = service.SubmitSync(request);
  ASSERT_TRUE(optimal.status.ok()) << optimal.status.ToString();
  EXPECT_FALSE(optimal.chain_log_hit);
  EXPECT_EQ(optimal.rung, DiffRung::kOptimalZs);
  StatusOr<Tree> from = shared->primary()->Materialize(0);
  StatusOr<Tree> to = shared->primary()->Materialize(1);
  ASSERT_TRUE(from.ok() && to.ok());
  DiffOptions zs;
  zs.share_mode = ShareMode::kIndexed;
  zs.start_rung = DiffRung::kOptimalZs;
  StatusOr<DiffResult> live = DiffTrees(*from, *to, zs);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_EQ(optimal.script,
            FormatEditScript(live->script, *shared->label_table()));
  EXPECT_NE(optimal.script, stored);

  for (DiffRung rung : {DiffRung::kFastMatch, DiffRung::kKeyedStructural,
                        DiffRung::kTopLevelReplace}) {
    request.start_rung = rung;
    const DiffResponse logged = service.SubmitSync(request);
    ASSERT_TRUE(logged.status.ok()) << logged.status.ToString();
    EXPECT_TRUE(logged.chain_log_hit) << DiffRungName(rung);
    EXPECT_EQ(logged.rung, DiffRung::kFastMatch) << DiffRungName(rung);
    EXPECT_EQ(logged.script, stored) << DiffRungName(rung);
  }
}

TEST(IncrementalServiceTest, LogAnswersCountInTheFastMatchRung) {
  DiffService service;
  ASSERT_TRUE(service.CreateStore("doc", kBase).ok());
  ASSERT_TRUE(service.CommitVersion("doc", kEdited).ok());
  DiffRequest request;
  request.doc_id = "doc";
  request.from_version = 0;
  request.to_version = 1;
  ASSERT_TRUE(service.SubmitSync(request).chain_log_hit);
  ASSERT_TRUE(service.SubmitSync(request).chain_log_hit);
  for (int r = 0; r < 4; ++r) {
    const DiffRung rung = static_cast<DiffRung>(r);
    EXPECT_EQ(service.metrics()
                  .counter(std::string("diff_rung_total{rung=\"") +
                           DiffRungName(rung) + "\"}")
                  ->Value(),
              rung == DiffRung::kFastMatch ? 2u : 0u)
        << DiffRungName(rung);
  }
}

/// Three generated versions of a 4-section document with moved and edited
/// sections, as s-expression text: base, then two successive edits.
std::vector<std::string> GeneratedVersions(uint64_t seed) {
  Vocabulary vocab(400, 1.0);
  Rng rng(seed);
  DocGenParams params;
  params.sections = 4;
  params.duplicate_sentence_probability = 0.2;
  auto labels = std::make_shared<LabelTable>();
  EditMix mix;
  mix.move_paragraph = 0.2;
  mix.move_sentence = 0.2;
  mix.move_section = 0.1;
  std::vector<Tree> versions;
  versions.push_back(GenerateDocument(params, vocab, &rng, labels));
  for (int v = 1; v <= 2; ++v) {
    versions.push_back(
        SimulateNewVersion(versions.back(), 6, mix, vocab, &rng).new_tree);
  }
  std::vector<std::string> texts;
  for (const Tree& t : versions) texts.push_back(t.ToDebugString());
  return texts;
}

/// A hit must hand back everything the miss answered: script bytes, op
/// count, rung and the miss's prune counts.
void ExpectHitRepeatsMiss(const DiffResponse& miss, const DiffResponse& hit,
                          uint64_t seed) {
  ASSERT_TRUE(miss.status.ok()) << miss.status.ToString();
  ASSERT_TRUE(hit.status.ok()) << hit.status.ToString();
  EXPECT_FALSE(miss.matching_cache_hit) << "seed " << seed;
  EXPECT_TRUE(hit.matching_cache_hit) << "seed " << seed;
  EXPECT_GT(miss.pruned_subtrees, 0u) << "seed " << seed;
  EXPECT_EQ(hit.script, miss.script) << "seed " << seed;
  EXPECT_EQ(hit.operations, miss.operations) << "seed " << seed;
  EXPECT_EQ(hit.rung, miss.rung) << "seed " << seed;
  EXPECT_EQ(hit.pruned_subtrees, miss.pruned_subtrees) << "seed " << seed;
  EXPECT_EQ(hit.pruned_nodes, miss.pruned_nodes) << "seed " << seed;
}

TEST(IncrementalServiceTest, RepeatedGeneratedDiffsHitWithTheSameScript) {
  // The hot path of a repeat kDiff: both trees come from the tree cache and
  // the answer from the diff cache. Over generated documents with moved
  // and edited sections every hit must serve the miss's answer.
  constexpr uint64_t kSeeds = 32;
  DiffServiceOptions options;
  options.num_threads = 2;
  DiffService service(options);
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::vector<std::string> texts = GeneratedVersions(seed);
    const DiffRequest request = InlineRequest(texts[0], texts[1]);
    const DiffResponse miss = service.SubmitSync(request);
    const DiffResponse hit = service.SubmitSync(request);
    ExpectHitRepeatsMiss(miss, hit, seed);
    EXPECT_TRUE(hit.cache_hit_old && hit.cache_hit_new) << "seed " << seed;
  }
  EXPECT_EQ(service.metrics().counter("diff_match_cache_hits_total")->Value(),
            kSeeds);
}

TEST(IncrementalServiceTest, RepeatedStoredDiffsHitWithTheSameScript) {
  // Stored mode keys the cache by (doc_id, version, epoch). Versions 0 and
  // 2 are not adjacent, so the pipeline (not the commit log) answers.
  constexpr uint64_t kSeeds = 32;
  DiffServiceOptions options;
  options.num_threads = 2;
  DiffService service(options);
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::vector<std::string> texts = GeneratedVersions(seed);
    const std::string doc = "doc" + std::to_string(seed);
    ASSERT_TRUE(service.CreateStore(doc, texts[0]).ok());
    ASSERT_TRUE(service.CommitVersion(doc, texts[1]).ok());
    ASSERT_TRUE(service.CommitVersion(doc, texts[2]).ok());
    DiffRequest request;
    request.doc_id = doc;
    request.from_version = 0;
    request.to_version = 2;
    const DiffResponse miss = service.SubmitSync(request);
    const DiffResponse hit = service.SubmitSync(request);
    ExpectHitRepeatsMiss(miss, hit, seed);
    EXPECT_FALSE(hit.chain_log_hit) << "seed " << seed;
  }
  EXPECT_EQ(service.metrics().counter("diff_match_cache_hits_total")->Value(),
            kSeeds);
}

TEST(IncrementalServiceTest, HitFormatsTextAMissLeftUnformatted) {
  // The cache stores the script, not its text: a first request that asked
  // for no text still lets a later one get the text an uncached diff
  // would have formatted.
  const std::vector<std::string> texts = GeneratedVersions(3);
  DiffServiceOptions options;
  options.num_threads = 2;

  DiffService uncached(options);
  const DiffResponse expected =
      uncached.SubmitSync(InlineRequest(texts[0], texts[1]));
  ASSERT_TRUE(expected.status.ok()) << expected.status.ToString();
  ASSERT_FALSE(expected.script.empty());

  DiffService service(options);
  DiffRequest quiet = InlineRequest(texts[0], texts[1]);
  quiet.want_script_text = false;
  const DiffResponse first = service.SubmitSync(quiet);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_TRUE(first.script.empty());
  EXPECT_FALSE(first.matching_cache_hit);
  const DiffResponse second =
      service.SubmitSync(InlineRequest(texts[0], texts[1]));
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_TRUE(second.matching_cache_hit);
  EXPECT_EQ(second.script, expected.script);
  EXPECT_EQ(second.operations, expected.operations);
}

TEST(IncrementalServiceTest, BudgetedAndShedRequestsReadNoOtherRungsEntry) {
  // One worker, a queue of 4, pressure from half full: a request admitted
  // behind two queued ones starts at kKeyedStructural.
  DiffServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 4;
  options.degrade_queue_fraction = 0.5;
  DiffService service(options);
  const DiffRequest request = InlineRequest(kBase, kEdited);

  const DiffResponse stored = service.SubmitSync(request);
  ASSERT_TRUE(stored.status.ok()) << stored.status.ToString();
  ASSERT_EQ(stored.rung, DiffRung::kFastMatch);
  ASSERT_TRUE(service.SubmitSync(request).matching_cache_hit);
  Counter* hits = service.metrics().counter("diff_match_cache_hits_total");
  Counter* misses = service.metrics().counter("diff_match_cache_misses_total");
  const uint64_t hits_before = hits->Value();
  const uint64_t misses_before = misses->Value();

  // A budgeted request neither reads nor writes the cache.
  DiffRequest budgeted = request;
  budgeted.node_cap = 1u << 20;
  const DiffResponse b = service.SubmitSync(budgeted);
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();
  EXPECT_FALSE(b.matching_cache_hit);
  EXPECT_EQ(b.script, stored.script);
  EXPECT_EQ(hits->Value(), hits_before);
  EXPECT_EQ(misses->Value(), misses_before);

  // Hold the only worker inside a completion callback, queue two requests
  // behind it, then admit the same pair under pressure.
  std::promise<void> picked_up;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  service.Submit(request, [&picked_up, released](DiffResponse) {
    picked_up.set_value();
    released.wait();
  });
  picked_up.get_future().wait();
  std::future<DiffResponse> filler1 = service.Submit(request);
  std::future<DiffResponse> filler2 = service.Submit(request);
  std::future<DiffResponse> pressed = service.Submit(request);
  release.set_value();
  const DiffResponse shed = pressed.get();
  ASSERT_TRUE(filler1.get().status.ok());
  ASSERT_TRUE(filler2.get().status.ok());
  ASSERT_TRUE(shed.status.ok()) << shed.status.ToString();
  ASSERT_TRUE(shed.shed_degraded);
  // Keyed at its lowered rung, the pressed request misses the kFastMatch
  // entry and answers at its own rung...
  EXPECT_FALSE(shed.matching_cache_hit);
  EXPECT_EQ(shed.rung, DiffRung::kKeyedStructural);
  EXPECT_FALSE(shed.degraded);
  // ...which a request asking for that rung then reads.
  DiffRequest keyed = request;
  keyed.start_rung = DiffRung::kKeyedStructural;
  const DiffResponse keyed_hit = service.SubmitSync(keyed);
  EXPECT_TRUE(keyed_hit.matching_cache_hit);
  EXPECT_EQ(keyed_hit.script, shed.script);
  EXPECT_EQ(keyed_hit.rung, DiffRung::kKeyedStructural);
}

TEST(IncrementalServiceTest, DegradedAnswersAreNeverStored) {
  DiffServiceOptions options;
  options.num_threads = 1;
  DiffService service(options);
  const std::vector<std::string> texts = GeneratedVersions(5);

  DiffRequest starved = InlineRequest(texts[0], texts[1]);
  starved.node_cap = 1;
  const DiffResponse degraded = service.SubmitSync(starved);
  ASSERT_TRUE(degraded.status.ok()) << degraded.status.ToString();
  ASSERT_TRUE(degraded.degraded);

  const DiffResponse full =
      service.SubmitSync(InlineRequest(texts[0], texts[1]));
  ASSERT_TRUE(full.status.ok()) << full.status.ToString();
  EXPECT_FALSE(full.matching_cache_hit);
  EXPECT_FALSE(full.degraded);
  EXPECT_EQ(full.rung, DiffRung::kFastMatch);
}

TEST(IncrementalServiceTest, FailoverEpochBumpMissesStoredPairs) {
  MemEnv envs[2];
  ReplicationOptions repl;
  repl.background_ship = false;
  repl.ack_mode = AckMode::kQuorum;
  repl.store_options.sleep = [](double) {};
  const std::vector<std::string> texts = GeneratedVersions(7);
  auto labels = std::make_shared<LabelTable>();
  StatusOr<Tree> base = ParseSexpr(texts[0], labels);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  auto group = ReplicatedVersionStore::Create(
      {ReplicaConfig{&envs[0], "p.log"}, ReplicaConfig{&envs[1], "f.log"}},
      std::move(*base), {}, repl);
  ASSERT_TRUE(group.ok()) << group.status().ToString();
  std::shared_ptr<ReplicatedVersionStore> shared = std::move(*group);

  DiffServiceOptions options;
  options.num_threads = 1;
  DiffService service(options);
  ASSERT_TRUE(service.AttachStore("doc", shared).ok());
  ASSERT_TRUE(service.CommitVersion("doc", texts[1]).ok());
  ASSERT_TRUE(service.CommitVersion("doc", texts[2]).ok());
  DiffRequest request;
  request.doc_id = "doc";
  request.from_version = 0;
  request.to_version = 2;
  const DiffResponse miss = service.SubmitSync(request);
  ASSERT_TRUE(miss.status.ok()) << miss.status.ToString();
  ASSERT_TRUE(service.SubmitSync(request).matching_cache_hit);

  const uint64_t epoch = shared->epoch();
  ASSERT_TRUE(shared->Promote().ok());
  ASSERT_GT(shared->epoch(), epoch);
  const DiffResponse after = service.SubmitSync(request);
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  EXPECT_FALSE(after.matching_cache_hit);
  EXPECT_FALSE(after.cache_hit_old || after.cache_hit_new);
  EXPECT_EQ(after.script, miss.script);
}

TEST(IncrementalServiceTest, CacheHoldsMatchingCacheEntriesAnswers) {
  constexpr size_t kEntries = DiffService::kDiffCacheEntries;
  DiffServiceOptions options;
  options.num_threads = 1;
  DiffService service(options);
  std::vector<DiffRequest> pairs;
  for (size_t i = 0; i <= kEntries; ++i) {
    pairs.push_back(InlineRequest(
        kBase, "(D (P (S \"pair " + std::to_string(i) + "\")))"));
  }
  auto hit = [&](size_t i) {
    const DiffResponse r = service.SubmitSync(pairs[i]);
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    return r.matching_cache_hit;
  };
  for (size_t i = 0; i < kEntries; ++i) EXPECT_FALSE(hit(i)) << i;
  // A hit refreshes pair 0, so pair 1 is now the least recently used.
  EXPECT_TRUE(hit(0));
  // One pair more evicts pair 1; the others stay.
  EXPECT_FALSE(hit(kEntries));
  for (size_t i = 0; i <= kEntries; ++i) {
    if (i != 1) {
      EXPECT_TRUE(hit(i)) << i;
    }
  }
  EXPECT_FALSE(hit(1));
}

TEST(IncrementalServiceTest, HitsAddNoPhaseTimings) {
  DiffServiceOptions options;
  options.num_threads = 1;
  DiffService service(options);
  Histogram* gen = service.metrics().histogram("diff_gen_seconds");
  Histogram* match = service.metrics().histogram("diff_match_seconds");
  const DiffResponse miss = service.SubmitSync(InlineRequest(kBase, kEdited));
  ASSERT_TRUE(miss.status.ok());
  EXPECT_EQ(gen->Count(), 1u);
  EXPECT_EQ(match->Count(), 1u);
  const DiffResponse hit = service.SubmitSync(InlineRequest(kBase, kEdited));
  ASSERT_TRUE(hit.matching_cache_hit);
  EXPECT_EQ(gen->Count(), 1u);
  EXPECT_EQ(match->Count(), 1u);
  EXPECT_EQ(hit.gen_seconds, 0.0);
  EXPECT_EQ(hit.match_seconds, 0.0);
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

  DiffOptions read;
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

    StatusOr<Tree> from = shared->primary()->Materialize(v - 1);
    StatusOr<Tree> to = shared->primary()->Materialize(v);
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
