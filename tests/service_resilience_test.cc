// DiffService resilience around attached stores: the store's own
// transient-error retry seen through the service, Repair of a poisoned
// store, the per-store circuit breaker (degraded -> quarantined ->
// half-open probe -> healthy), and scrubbing through the service.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/diff_service.h"
#include "store/log.h"
#include "store/replication.h"
#include "store/version_store.h"
#include "tree/builder.h"
#include "util/fault_env.h"

namespace treediff {
namespace {

std::string DocText(int v) {
  std::string s = "(D";
  for (int p = 0; p <= v; ++p) {
    s += " (P (S \"svc" + std::to_string(p) + " body words\"))";
  }
  s += ")";
  return s;
}

StoreOptions QuietStoreOptions(Env* env) {
  StoreOptions store_options;
  store_options.env = env;
  store_options.checkpoint_interval = 0;  // One sync per commit.
  store_options.sleep = [](double) {};
  return store_options;
}

/// A one-replica durable group at `path` on `env` whose version 0 is
/// DocText(0), built with the test's own store knobs.
StatusOr<std::unique_ptr<ReplicatedVersionStore>> DurableGroup(
    Env* env, const std::string& path, StoreOptions store_options) {
  ReplicationOptions options;
  options.store_options = std::move(store_options);
  return ReplicatedVersionStore::Create({ReplicaConfig{env, path}},
                                        *ParseSexpr(DocText(0)), {}, options);
}

DiffServiceOptions QuietServiceOptions() {
  DiffServiceOptions options;
  options.num_threads = 2;
  options.sleep = [](double) {};  // No real retry waits in tests.
  return options;
}

uint64_t CounterValue(DiffService* service, const std::string& name) {
  return service->metrics().counter(name)->Value();
}

TEST(ServiceResilienceTest, TransientStoreFaultsAreRetriedBehindTheApi) {
  MemEnv mem;
  FaultPlan plan;
  plan.seed = 3;
  plan.transient_append_p = 0.15;
  FaultInjectingEnv env(&mem, plan);

  // The store keeps its default retry budget: it is the only retry loop,
  // and the service runs each commit once on top of it.
  StatusOr<std::unique_ptr<ReplicatedVersionStore>> group =
      Status::Internal("never tried");
  for (int i = 0; i < 64 && !group.ok(); ++i) {
    group = DurableGroup(&env, "svc.log", QuietStoreOptions(&env));
  }
  ASSERT_TRUE(group.ok()) << group.status().ToString();

  DiffService service(QuietServiceOptions());
  ASSERT_TRUE(service.AttachStore("doc", std::move(*group)).ok());

  for (int v = 1; v <= 8; ++v) {
    StatusOr<int> version = service.CommitVersion("doc", DocText(v));
    ASSERT_TRUE(version.ok()) << "version " << v << ": "
                              << version.status().ToString();
    EXPECT_EQ(*version, v);
  }
  EXPECT_GT(env.transient_faults(), 0u);

  std::vector<DiffService::StoreStatus> statuses = service.StoreStatuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].health, StoreHealth::kHealthy);
  EXPECT_EQ(statuses[0].consecutive_failures, 0);
  EXPECT_EQ(statuses[0].versions, 9);
  EXPECT_TRUE(statuses[0].durable);
  EXPECT_GT(statuses[0].faults.transient_retries, 0u);
  service.Shutdown();
}

TEST(ServiceResilienceTest, BreakerTripsFastFailsAndRecoversViaRepair) {
  MemEnv mem;
  FaultPlan plan;
  plan.fail_sync_at = 2;  // Create's fsync is #1; the first commit dies.
  FaultInjectingEnv env(&mem, plan);
  auto group = DurableGroup(&env, "svc.log", QuietStoreOptions(&env));
  ASSERT_TRUE(group.ok()) << group.status().ToString();

  DiffServiceOptions options = QuietServiceOptions();
  options.breaker_failure_threshold = 2;
  options.breaker_cooldown_seconds = 0.05;
  DiffService service(options);
  ASSERT_TRUE(service.AttachStore("doc", std::move(*group)).ok());

  // Failure 1: the terminal sync fault fires; the env goes down and the
  // store poisons itself. Server-side error -> degraded.
  StatusOr<int> first = service.CommitVersion("doc", DocText(1));
  ASSERT_FALSE(first.ok());
  {
    auto statuses = service.StoreStatuses();
    ASSERT_EQ(statuses.size(), 1u);
    EXPECT_EQ(statuses[0].health, StoreHealth::kDegraded);
    EXPECT_EQ(statuses[0].consecutive_failures, 1);
  }

  // Failure 2: the service sees the store's poison flag and attempts a
  // Repair before running the commit; the repair fails too — the medium is
  // still down — so the commit never runs. That trips the breaker.
  StatusOr<int> second = service.CommitVersion("doc", DocText(1));
  ASSERT_FALSE(second.ok());
  EXPECT_GE(CounterValue(&service, "store_repairs_total"), 1u);
  EXPECT_EQ(CounterValue(&service, "store_breaker_trips_total"), 1u);
  {
    auto statuses = service.StoreStatuses();
    EXPECT_EQ(statuses[0].health, StoreHealth::kQuarantined);
    EXPECT_STREQ(StoreHealthName(statuses[0].health), "quarantined");
  }

  // Quarantined: requests fast-fail without touching the store.
  StatusOr<int> shed = service.CommitVersion("doc", DocText(1));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), Code::kUnavailable);
  EXPECT_NE(shed.status().message().find("quarantined"), std::string::npos);
  EXPECT_GE(CounterValue(&service, "store_breaker_fast_fails_total"), 1u);

  // The medium comes back; after the cooldown the next request is let
  // through as a half-open probe. It finds the poison, Repair now
  // succeeds, and the commit lands on the rotated log.
  env.ClearFault();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  StatusOr<int> probe = service.CommitVersion("doc", DocText(1));
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_EQ(*probe, 1);
  {
    auto statuses = service.StoreStatuses();
    EXPECT_EQ(statuses[0].health, StoreHealth::kHealthy);
    EXPECT_EQ(statuses[0].consecutive_failures, 0);
    EXPECT_GT(statuses[0].faults.rotations, 0u);
  }

  // Back in business end to end: another commit and a stored-mode diff.
  ASSERT_TRUE(service.CommitVersion("doc", DocText(2)).ok());
  DiffRequest request;
  request.doc_id = "doc";
  request.from_version = 0;
  request.to_version = 2;
  DiffResponse response = service.SubmitSync(std::move(request));
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_GT(response.operations, 0u);
  service.Shutdown();
}

TEST(ServiceResilienceTest, AdjacentReadsCountOnceAgainstASickStore) {
  // The commit-log lookup is an in-memory read: on a poisoned or
  // quarantined store it falls through to the resolve path, which alone
  // repairs, counts toward the breaker and fast-fails. An adjacent read
  // must move the breaker exactly as much as any other read.
  MemEnv mem;
  FaultPlan plan;
  plan.fail_sync_at = 3;  // Create, then v1; the v2 commit dies.
  FaultInjectingEnv env(&mem, plan);
  auto group = DurableGroup(&env, "svc.log", QuietStoreOptions(&env));
  ASSERT_TRUE(group.ok()) << group.status().ToString();

  DiffServiceOptions options = QuietServiceOptions();
  options.breaker_failure_threshold = 3;
  options.breaker_cooldown_seconds = 60.0;
  DiffService service(options);
  ASSERT_TRUE(service.AttachStore("doc", std::move(*group)).ok());
  ASSERT_TRUE(service.CommitVersion("doc", DocText(1)).ok());
  ASSERT_FALSE(service.CommitVersion("doc", DocText(2)).ok());
  auto failures = [&] {
    return service.StoreStatuses().at(0).consecutive_failures;
  };
  ASSERT_EQ(failures(), 1);

  DiffRequest adjacent;
  adjacent.doc_id = "doc";
  adjacent.from_version = 0;
  adjacent.to_version = 1;
  DiffRequest reversed = adjacent;
  reversed.from_version = 1;
  reversed.to_version = 0;

  // Poisoned, and the medium is still down: one Repair, one failure.
  EXPECT_FALSE(service.SubmitSync(adjacent).status.ok());
  EXPECT_EQ(CounterValue(&service, "store_repairs_total"), 1u);
  EXPECT_EQ(failures(), 2);
  EXPECT_EQ(service.StoreStatuses().at(0).health, StoreHealth::kDegraded);
  EXPECT_EQ(CounterValue(&service, "store_breaker_trips_total"), 0u);

  // The third failure, from a non-adjacent read, trips the breaker.
  EXPECT_FALSE(service.SubmitSync(reversed).status.ok());
  EXPECT_EQ(CounterValue(&service, "store_repairs_total"), 2u);
  EXPECT_EQ(CounterValue(&service, "store_breaker_trips_total"), 1u);
  ASSERT_EQ(service.StoreStatuses().at(0).health, StoreHealth::kQuarantined);

  // Quarantined: each read, adjacent or not, is one fast-fail.
  const DiffResponse shed = service.SubmitSync(adjacent);
  EXPECT_EQ(shed.status.code(), Code::kUnavailable);
  EXPECT_EQ(CounterValue(&service, "store_breaker_fast_fails_total"), 1u);
  EXPECT_EQ(service.SubmitSync(reversed).status.code(), Code::kUnavailable);
  EXPECT_EQ(CounterValue(&service, "store_breaker_fast_fails_total"), 2u);
  EXPECT_EQ(CounterValue(&service, "store_repairs_total"), 2u);
  service.Shutdown();
}

TEST(ServiceResilienceTest, ClientErrorsDoNotTripTheBreaker) {
  DiffServiceOptions options = QuietServiceOptions();
  options.breaker_failure_threshold = 2;
  DiffService service(options);
  ASSERT_TRUE(service.CreateStore("doc", DocText(0)).ok());

  for (int i = 0; i < 5; ++i) {
    DiffRequest request;
    request.doc_id = "doc";
    request.from_version = 0;
    request.to_version = 99;  // Out of range: the client's fault.
    DiffResponse response = service.SubmitSync(std::move(request));
    EXPECT_EQ(response.status.code(), Code::kOutOfRange);
  }
  auto statuses = service.StoreStatuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].health, StoreHealth::kHealthy);
  EXPECT_EQ(CounterValue(&service, "store_breaker_trips_total"), 0u);
  service.Shutdown();
}

/// Four documents the parsers reject: nesting past the depth limit and a
/// syntax error, in each service format.
struct RejectedDoc {
  std::string text;
  DiffRequest::Format format;
  Code code;
};

std::vector<RejectedDoc> RejectedDocs() {
  std::string deep_xml, deep_sexpr;
  for (int i = 0; i < 300; ++i) deep_xml += "<a>";
  deep_xml += "x";
  for (int i = 0; i < 300; ++i) deep_xml += "</a>";
  for (int i = 0; i < 300; ++i) deep_sexpr += "(a";
  deep_sexpr.append(300, ')');
  return {{deep_xml, DiffRequest::Format::kXml, Code::kResourceExhausted},
          {deep_sexpr, DiffRequest::Format::kSexpr, Code::kResourceExhausted},
          {"<a><b></a>", DiffRequest::Format::kXml, Code::kParseError},
          {"(D (P", DiffRequest::Format::kSexpr, Code::kParseError}};
}

TEST(ServiceResilienceTest, ParserRejectionsDoNotMoveTheBreaker) {
  DiffServiceOptions options = QuietServiceOptions();
  options.breaker_failure_threshold = 2;
  DiffService service(options);
  ASSERT_TRUE(service.CreateStore("doc", DocText(0)).ok());

  for (int round = 0; round < 3; ++round) {
    for (const RejectedDoc& doc : RejectedDocs()) {
      StatusOr<int> commit = service.CommitVersion("doc", doc.text, doc.format);
      EXPECT_EQ(commit.status().code(), doc.code) << commit.status().ToString();
    }
  }
  auto statuses = service.StoreStatuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].health, StoreHealth::kHealthy);
  EXPECT_EQ(statuses[0].consecutive_failures, 0);
  EXPECT_EQ(CounterValue(&service, "store_breaker_trips_total"), 0u);

  // The store was never sick: the next valid commit and a read succeed.
  StatusOr<int> v1 = service.CommitVersion("doc", DocText(1));
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ(*v1, 1);
  DiffRequest request;
  request.doc_id = "doc";
  request.from_version = 0;
  request.to_version = 1;
  DiffResponse response = service.SubmitSync(std::move(request));
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  service.Shutdown();
}

TEST(ServiceResilienceTest, ParserRejectionsDoNotFailOverAHealthyPrimary) {
  MemEnv mem;
  DiffServiceOptions options = QuietServiceOptions();
  options.breaker_failure_threshold = 2;
  DiffService service(options);
  ASSERT_TRUE(service
                  .CreateStore("doc", DocText(0),
                               {ReplicaConfig{&mem, "r0.log"},
                                ReplicaConfig{&mem, "r1.log"}})
                  .ok());

  for (int round = 0; round < 3; ++round) {
    for (const RejectedDoc& doc : RejectedDocs()) {
      EXPECT_EQ(service.CommitVersion("doc", doc.text, doc.format)
                    .status()
                    .code(),
                doc.code);
    }
  }
  EXPECT_EQ(CounterValue(&service, "store_failovers_total"), 0u);
  auto statuses = service.StoreStatuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].health, StoreHealth::kHealthy);
  EXPECT_EQ(statuses[0].repl_epoch, 0u);
  EXPECT_EQ(statuses[0].repl_primary, 0);
  StatusOr<int> v1 = service.CommitVersion("doc", DocText(1));
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ(*v1, 1);
  service.Shutdown();
}

/// Flips a payload byte of the second record of the log at `path`.
void CorruptSecondRecord(MemEnv* env, const std::string& path) {
  auto file = env->NewRandomAccessFile(path);
  ASSERT_TRUE(file.ok());
  auto scan = ScanLog(file->get());
  ASSERT_TRUE(scan.ok());
  ASSERT_GE(scan->records.size(), 2u);
  ASSERT_TRUE(env->CorruptByte(path,
                               scan->records[1].offset + kLogRecordHeaderSize,
                               0x10)
                  .ok());
}

TEST(ServiceResilienceTest, ScrubNowCoversDurableStoresAndFindsBitRot) {
  MemEnv env;
  auto built = DurableGroup(&env, "svc.log", QuietStoreOptions(&env));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::shared_ptr<ReplicatedVersionStore> group = std::move(*built);
  for (int v = 1; v <= 4; ++v) {
    ASSERT_TRUE(group->Commit(*ParseSexpr(DocText(v), group->label_table()))
                    .ok());
  }

  DiffService service(QuietServiceOptions());
  // An attached group with no metrics registry, an in-memory group, and a
  // service-created durable group whose store counters are mirrored into
  // the service's registry.
  ASSERT_TRUE(service.AttachStore("durable", group).ok());
  ASSERT_TRUE(service.CreateStore("ephemeral", DocText(0)).ok());
  ASSERT_TRUE(service
                  .CreateStore("mirrored", DocText(0),
                               {ReplicaConfig{&env, "mirrored.log"}})
                  .ok());
  for (int v = 1; v <= 4; ++v) {
    ASSERT_TRUE(service.CommitVersion("mirrored", DocText(v)).ok());
  }

  // Only the durable groups are scrubbable.
  EXPECT_EQ(service.ScrubNow(), 2);
  EXPECT_EQ(CounterValue(&service, "store_scrub_runs_total"), 2u);
  EXPECT_EQ(CounterValue(&service, "store_scrub_corruption_total"), 0u);

  // Flip a cold byte; the next pass catches and repairs it, and the
  // corrupt pass counts exactly once.
  ASSERT_NO_FATAL_FAILURE(CorruptSecondRecord(&env, "svc.log"));
  EXPECT_EQ(service.ScrubNow(), 2);
  EXPECT_EQ(CounterValue(&service, "store_scrub_corruption_total"), 1u);
  auto statuses = service.StoreStatuses();
  ASSERT_EQ(statuses.size(), 3u);  // Ordered by doc_id: durable first.
  EXPECT_EQ(statuses[0].doc_id, "durable");
  EXPECT_GT(statuses[0].faults.rotations, 0u);
  EXPECT_EQ(statuses[1].doc_id, "ephemeral");
  EXPECT_FALSE(statuses[1].durable);

  // The same for the mirrored group: its store and the service write the
  // same counter name, and the pass still counts once.
  ASSERT_NO_FATAL_FAILURE(CorruptSecondRecord(&env, "mirrored.log"));
  EXPECT_EQ(service.ScrubNow(), 2);
  EXPECT_EQ(CounterValue(&service, "store_scrub_corruption_total"), 2u);
  EXPECT_EQ(CounterValue(&service, "store_scrub_runs_total"), 6u);
  EXPECT_EQ(service.StoreStatuses()[2].faults.scrub_corruption, 1u);

  // Commits keep landing on the repaired logs.
  StatusOr<int> version = service.CommitVersion("durable", DocText(5));
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  EXPECT_EQ(*version, 5);
  ASSERT_TRUE(service.CommitVersion("mirrored", DocText(5)).ok());
  service.Shutdown();
}

TEST(ServiceResilienceTest, BackgroundScrubberRunsOnItsTimer) {
  MemEnv env;
  auto built = DurableGroup(&env, "svc.log", QuietStoreOptions(&env));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::shared_ptr<ReplicatedVersionStore> group = std::move(*built);

  DiffServiceOptions options = QuietServiceOptions();
  options.scrub_interval_seconds = 0.01;
  DiffService service(options);
  ASSERT_TRUE(service.AttachStore("doc", group).ok());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (CounterValue(&service, "store_scrub_runs_total") == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(CounterValue(&service, "store_scrub_runs_total"), 0u);
  service.Shutdown();  // Must join the scrubber without hanging.
  EXPECT_EQ(group->primary()->fault_counters().scrub_corruption, 0u);
}

}  // namespace
}  // namespace treediff
