#include "service/diff_service.h"

#include "store/replication.h"
#include "tree/builder.h"
#include "util/fault_env.h"

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

namespace treediff {
namespace {

constexpr const char* kOld =
    "(D (P (S \"alpha one two\") (S \"beta three four\")) "
    "(P (S \"gamma five six\")))";
constexpr const char* kNew =
    "(D (P (S \"alpha one two\") (S \"beta three CHANGED\")) "
    "(P (S \"gamma five six\") (S \"delta seven eight\")))";

DiffServiceOptions Options(int threads, size_t queue = 256) {
  DiffServiceOptions options;
  options.num_threads = threads;
  options.queue_capacity = queue;
  return options;
}

DiffRequest InlineRequest(const std::string& old_doc,
                          const std::string& new_doc) {
  DiffRequest request;
  request.old_doc = old_doc;
  request.new_doc = new_doc;
  return request;
}

TEST(DiffServiceTest, ServesAnInlineDiff) {
  DiffService service(Options(2));
  DiffResponse response = service.SubmitSync(InlineRequest(kOld, kNew));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_GT(response.operations, 0u);
  EXPECT_FALSE(response.script.empty());
  EXPECT_EQ(response.rung, DiffRung::kFastMatch);
  EXPECT_FALSE(response.degraded);
  EXPECT_GE(response.total_seconds, 0.0);
}

TEST(DiffServiceTest, OneCustomComparatorServesEveryWorker) {
  // DiffServiceOptions::diff asks only that a custom comparator be
  // thread-safe; a stateless one shared by four workers must give every
  // request the answer a private pipeline run gives.
  ExactComparator shared;
  DiffServiceOptions options = Options(4);
  options.diff.comparator = &shared;
  DiffService service(options);
  std::vector<std::string> olds, news;
  for (int k = 0; k < 8; ++k) {
    const std::string tag = std::to_string(k);
    olds.push_back("(D (P (S \"a" + tag + "\") (S \"b\")) (P (S \"c\")))");
    news.push_back("(D (P (S \"b\") (S \"a" + tag + "\")) (P (S \"d\")))");
  }
  std::vector<std::future<DiffResponse>> futures;
  for (int round = 0; round < 16; ++round) {
    for (size_t k = 0; k < olds.size(); ++k) {
      futures.push_back(service.Submit(InlineRequest(olds[k], news[k])));
    }
  }
  for (size_t n = 0; n < futures.size(); ++n) {
    const size_t k = n % olds.size();
    DiffResponse response = futures[n].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    auto labels = std::make_shared<LabelTable>();
    Tree t1 = *ParseSexpr(olds[k], labels);
    Tree t2 = *ParseSexpr(news[k], labels);
    ExactComparator own;
    DiffOptions direct;
    direct.comparator = &own;
    auto expected = DiffTrees(t1, t2, direct);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(response.operations, expected->script.size()) << "request " << n;
  }
}

TEST(DiffServiceTest, IdenticalDocumentsGiveEmptyScript) {
  DiffService service(Options(1));
  DiffResponse response = service.SubmitSync(InlineRequest(kOld, kOld));
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.operations, 0u);
  EXPECT_TRUE(response.script.empty());
}

TEST(DiffServiceTest, RepeatedBaseHitsTheCache) {
  DiffService service(Options(2));
  DiffResponse first = service.SubmitSync(InlineRequest(kOld, kNew));
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cache_hit_old);
  EXPECT_FALSE(first.cache_hit_new);

  DiffResponse second = service.SubmitSync(InlineRequest(kOld, kNew));
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit_old);
  EXPECT_TRUE(second.cache_hit_new);
  EXPECT_TRUE(second.matching_cache_hit);
  // Cache hit or miss, the script is the same bytes.
  EXPECT_EQ(second.script, first.script);

  const TreeCache::Stats stats = service.cache_stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(DiffServiceTest, ParseErrorsSurfaceAsStatus) {
  DiffService service(Options(1));
  DiffResponse response =
      service.SubmitSync(InlineRequest("(D (S \"unterminated", kNew));
  EXPECT_EQ(response.status.code(), Code::kParseError);
}

/// `depth` levels of (a(a...)): 120 KB at 40,000 levels.
std::string NestedSexpr(int depth) {
  std::string text;
  for (int i = 0; i < depth; ++i) text += "(a";
  text.append(static_cast<size_t>(depth), ')');
  return text;
}

TEST(DiffServiceTest, DeepInlineDocumentsAreRejectedNotFatal) {
  DiffService service(Options(2));
  const std::string deep = NestedSexpr(40000);
  DiffResponse response = service.SubmitSync(InlineRequest(deep, deep));
  EXPECT_EQ(response.status.code(), Code::kResourceExhausted)
      << response.status.ToString();
  // The workers survived: the next request is served.
  DiffResponse next = service.SubmitSync(InlineRequest(kOld, kNew));
  ASSERT_TRUE(next.status.ok()) << next.status.ToString();
  EXPECT_GT(next.operations, 0u);
}

TEST(DiffServiceTest, DeepCommittedDocumentIsRejectedNotFatal) {
  DiffService service(Options(2));
  ASSERT_TRUE(service.CreateStore("doc", kOld).ok());
  const StatusOr<int> deep = service.CommitVersion("doc", NestedSexpr(40000));
  EXPECT_EQ(deep.status().code(), Code::kResourceExhausted)
      << deep.status().ToString();
  const StatusOr<int> v1 = service.CommitVersion("doc", kNew);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ(*v1, 1);
}

TEST(DiffServiceTest, XmlFormatIsSupported) {
  DiffService service(Options(1));
  DiffRequest request;
  request.format = DiffRequest::Format::kXml;
  request.old_doc = "<doc><p>alpha one two</p></doc>";
  request.new_doc = "<doc><p>alpha one CHANGED</p></doc>";
  DiffResponse response = service.SubmitSync(std::move(request));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_GT(response.operations, 0u);
}

TEST(DiffServiceTest, StoredVersionDiff) {
  DiffService service(Options(2));
  ASSERT_TRUE(service.CreateStore("doc", kOld).ok());
  const StatusOr<int> v1 = service.CommitVersion("doc", kNew);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ(*v1, 1);

  // 1 -> 0 is not an adjacent (from = to - 1) read, so the commit log does
  // not answer it: both versions are materialized and diffed.
  DiffRequest request;
  request.doc_id = "doc";
  request.from_version = 1;
  request.to_version = 0;
  DiffResponse response = service.SubmitSync(std::move(request));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_FALSE(response.chain_log_hit);
  EXPECT_GT(response.operations, 0u);

  // Same versions again: both sides now come from the cache.
  DiffRequest again;
  again.doc_id = "doc";
  again.from_version = 1;
  again.to_version = 0;
  DiffResponse cached = service.SubmitSync(std::move(again));
  ASSERT_TRUE(cached.status.ok());
  EXPECT_TRUE(cached.cache_hit_old);
  EXPECT_TRUE(cached.cache_hit_new);
  EXPECT_TRUE(cached.matching_cache_hit);
  EXPECT_EQ(cached.script, response.script);
}

TEST(DiffServiceTest, UnknownStoreAndBadVersionsAreErrors) {
  DiffService service(Options(1));
  DiffRequest request;
  request.doc_id = "ghost";
  request.from_version = 0;
  request.to_version = 0;
  EXPECT_EQ(service.SubmitSync(std::move(request)).status.code(),
            Code::kNotFound);

  ASSERT_TRUE(service.CreateStore("doc", kOld).ok());
  DiffRequest out_of_range;
  out_of_range.doc_id = "doc";
  out_of_range.from_version = 0;
  out_of_range.to_version = 5;
  EXPECT_EQ(service.SubmitSync(std::move(out_of_range)).status.code(),
            Code::kOutOfRange);

  EXPECT_EQ(service.CreateStore("doc", kOld).code(),
            Code::kFailedPrecondition);  // Duplicate doc_id.
  EXPECT_EQ(service.CommitVersion("ghost", kNew).status().code(),
            Code::kNotFound);
}

DiffRequest StoredRequest(const std::string& doc_id, int from, int to) {
  DiffRequest request;
  request.doc_id = doc_id;
  request.from_version = from;
  request.to_version = to;
  return request;
}

TEST(DiffServiceTest, AttachedStoreIsServed) {
  MemEnv env;
  auto group = ReplicatedVersionStore::Create({ReplicaConfig{&env, "ext.log"}},
                                              *ParseSexpr(kOld));
  ASSERT_TRUE(group.ok()) << group.status().ToString();
  ASSERT_TRUE(
      (*group)->Commit(*ParseSexpr(kNew, (*group)->label_table())).ok());

  DiffService service(Options(1));
  ASSERT_TRUE(service.AttachStore("ext", std::move(*group)).ok());
  DiffResponse response = service.SubmitSync(StoredRequest("ext", 0, 1));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_GT(response.operations, 0u);
}

// A stored version's tree-cache key hashes doc id, epoch, and version as
// separate fields. An in-memory store whose id spells another store's id
// and epoch ("x@e0") therefore never shares a cache entry with it.
TEST(DiffServiceTest, StoredVersionCacheKeysDoNotCollideAcrossStores) {
  constexpr const char* kOtherNew =
      "(D (P (S \"alpha one two\")) (P (S \"zeta nine ten\")))";
  MemEnv env;
  DiffService service(Options(1));
  ASSERT_TRUE(service.CreateStore("x@e0", kOld).ok());
  ASSERT_TRUE(
      service.CreateStore("x", kOld, {ReplicaConfig{&env, "x.r0.log"}}).ok());
  ASSERT_TRUE(service.CommitVersion("x@e0", kNew).ok());
  ASSERT_TRUE(service.CommitVersion("x", kOtherNew).ok());
  const DiffResponse warm = service.SubmitSync(StoredRequest("x", 0, 1));
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  const DiffResponse served = service.SubmitSync(StoredRequest("x@e0", 0, 1));
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();

  DiffService fresh(Options(1));
  ASSERT_TRUE(fresh.CreateStore("x@e0", kOld).ok());
  ASSERT_TRUE(fresh.CommitVersion("x@e0", kNew).ok());
  const DiffResponse expected = fresh.SubmitSync(StoredRequest("x@e0", 0, 1));
  ASSERT_TRUE(expected.status.ok()) << expected.status.ToString();

  EXPECT_NE(warm.script, expected.script);  // The two version 1s differ.
  EXPECT_EQ(served.script, expected.script);
  EXPECT_EQ(served.operations, expected.operations);
}

TEST(DiffServiceTest, DeadlineExhaustedRequestsAreShed) {
  // An impossible deadline: by the time the worker picks the request up,
  // the deadline has passed, so it is shed without running the pipeline.
  DiffService service(Options(1));
  DiffRequest request = InlineRequest(kOld, kNew);
  request.deadline_seconds = 1e-9;
  DiffResponse response = service.SubmitSync(std::move(request));
  EXPECT_FALSE(response.status.ok());
  EXPECT_TRUE(IsExhaustion(response.status.code()))
      << response.status.ToString();
  EXPECT_EQ(response.operations, 0u);
}

TEST(DiffServiceTest, TinyNodeCapDegradesDownTheLadder) {
  DiffService service(Options(1));
  DiffRequest request = InlineRequest(kOld, kNew);
  request.node_cap = 2;  // Far too small for FastMatch.
  DiffResponse response = service.SubmitSync(std::move(request));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.degraded);
  EXPECT_GT(static_cast<int>(response.rung),
            static_cast<int>(DiffRung::kFastMatch));
}

TEST(DiffServiceTest, QueueFullRequestsAreShedImmediately) {
  // Workers=1 and capacity=1, with the worker pinned by a slow request:
  // flooding must produce at least one kResourceExhausted shed and the
  // shed counter must account for every one of them.
  DiffServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 1;
  options.degrade_queue_fraction = 2.0;  // Isolate the full-queue layer.
  DiffService service(options);

  std::vector<std::future<DiffResponse>> futures;
  for (int i = 0; i < 64; ++i) {
    // Distinct docs so no request is a pure cache hit.
    std::string old_doc = "(D (P (S \"base text " + std::to_string(i) +
                          " alpha beta gamma\")))";
    std::string new_doc = "(D (P (S \"base text " + std::to_string(i) +
                          " alpha beta DELTA\")))";
    futures.push_back(service.Submit(InlineRequest(old_doc, new_doc)));
  }
  size_t ok = 0, shed = 0;
  for (auto& f : futures) {
    DiffResponse r = f.get();
    if (r.status.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(r.status.code(), Code::kResourceExhausted);
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, 64u);
  EXPECT_GT(ok, 0u);
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(service.metrics().counter("diff_shed_queue_full_total")->Value(),
            shed);
}

TEST(DiffServiceTest, MetricsAccumulateAcrossRequests) {
  DiffService service(Options(2));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(service.SubmitSync(InlineRequest(kOld, kNew)).status.ok());
  }
  MetricsRegistry& m = service.metrics();
  EXPECT_EQ(m.counter("diff_requests_total")->Value(), 5u);
  EXPECT_EQ(m.counter("diff_responses_ok_total")->Value(), 5u);
  EXPECT_EQ(m.counter("diff_responses_error_total")->Value(), 0u);
  EXPECT_EQ(m.counter("diff_rung_total{rung=\"FastMatch\"}")->Value(), 5u);
  EXPECT_EQ(m.histogram("diff_e2e_seconds")->Count(), 5u);
  EXPECT_EQ(m.histogram("diff_queue_wait_seconds")->Count(), 5u);
  // One pipeline run; the four repeats are diff-cache hits, which add no
  // phase samples.
  EXPECT_EQ(m.counter("diff_match_cache_misses_total")->Value(), 1u);
  EXPECT_EQ(m.counter("diff_match_cache_hits_total")->Value(), 4u);
  EXPECT_EQ(m.histogram("diff_match_seconds")->Count(), 1u);
  EXPECT_EQ(m.histogram("diff_gen_seconds")->Count(), 1u);
  const std::string text = m.PrometheusExposition();
  EXPECT_NE(text.find("diff_requests_total 5"), std::string::npos);
  EXPECT_NE(text.find("tree_cache_hits_total 8"), std::string::npos);
}

TEST(DiffServiceTest, ShutdownDrainsAndAnswersEveryFuture) {
  std::vector<std::future<DiffResponse>> futures;
  {
    DiffService service(Options(2, 64));
    for (int i = 0; i < 32; ++i) {
      futures.push_back(service.Submit(InlineRequest(kOld, kNew)));
    }
    service.Shutdown();
  }
  for (auto& f : futures) {
    DiffResponse r = f.get();  // Must not hang or throw broken_promise.
    EXPECT_TRUE(r.status.ok() ||
                r.status.code() == Code::kResourceExhausted);
  }
}

}  // namespace
}  // namespace treediff
