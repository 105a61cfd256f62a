// ReplicatedVersionStore: log shipping, quorum acks, and fenced failover.
// Every test here is deterministic — background_ship is off and the test
// drives PumpFollowers() by hand, so each scenario (a follower mid-catch-up
// at promotion time, a zombie writer's stale-epoch record, a torn follower
// tail) is constructed exactly, not hoped for. The nondeterministic sweep
// lives in replication_chaos_test.cc.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
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
#include "util/metrics.h"

namespace treediff {
namespace {

std::string DocText(int v) {
  std::string s = "(D";
  for (int p = 0; p <= v; ++p) {
    s += " (P (S \"repl" + std::to_string(p) + " body words\"))";
  }
  s += ")";
  return s;
}

/// A three-replica group over independent MemEnvs (three "machines").
/// Optional per-replica fault wrapping is layered by the tests that need
/// it; everything shares one no-op sleep so retry backoff never waits.
struct Cluster {
  static constexpr int kN = 3;
  MemEnv mem[kN];
  std::vector<ReplicaConfig> configs;
  std::unique_ptr<ReplicatedVersionStore> group;

  Status Build(ReplicationOptions options = {},
               std::vector<Env*> envs = {}) {
    options.background_ship = false;
    options.store_options.sleep = [](double) {};
    configs.clear();
    for (int i = 0; i < kN; ++i) {
      ReplicaConfig config;
      Env* env =
          i < static_cast<int>(envs.size()) ? envs[static_cast<size_t>(i)]
                                            : nullptr;
      config.env = env != nullptr ? env : &mem[i];  // Null = plain MemEnv.
      config.path = "r" + std::to_string(i) + ".log";
      configs.push_back(config);
    }
    auto built = ReplicatedVersionStore::Create(
        configs, *ParseSexpr(DocText(0)), {}, options);
    if (!built.ok()) return built.status();
    group = std::move(*built);
    return Status::Ok();
  }

  Status Commit(int v) {
    auto tree = ParseSexpr(DocText(v), group->label_table());
    if (!tree.ok()) return tree.status();
    auto committed = group->Commit(*tree);
    if (!committed.ok()) return committed.status();
    if (*committed != v) {
      return Status::Internal("expected version " + std::to_string(v) +
                              ", got " + std::to_string(*committed));
    }
    return Status::Ok();
  }

  /// Pumps until every follower reports caught_up (or `rounds` runs out —
  /// fault tests converge through repeated rounds).
  bool PumpUntilCaughtUp(int rounds = 200) {
    for (int i = 0; i < rounds; ++i) {
      group->PumpFollowers().IgnoreError();
      bool all = true;
      for (const ReplicaStatus& r : group->Replicas()) {
        if (r.role == ReplicaRole::kFollower && !r.caught_up) all = false;
      }
      if (all) return true;
    }
    return false;
  }

  std::string Bytes(int i) {
    auto bytes = mem[i].FileBytes(configs[static_cast<size_t>(i)].path);
    return bytes.ok() ? *bytes : std::string();
  }
};

void ExpectAllVersionsServed(ReplicatedVersionStore* group, int last) {
  for (int v = 0; v <= last; ++v) {
    auto tree = group->primary()->Materialize(v);
    ASSERT_TRUE(tree.ok()) << "version " << v << ": "
                           << tree.status().ToString();
    auto expected = ParseSexpr(DocText(v), group->label_table());
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE(Tree::Isomorphic(*tree, *expected)) << "version " << v;
  }
}

TEST(ReplicationTest, FollowersConvergeToByteIdenticalLogs) {
  Cluster c;
  ASSERT_TRUE(c.Build().ok());
  for (int v = 1; v <= 6; ++v) ASSERT_TRUE(c.Commit(v).ok());
  ASSERT_TRUE(c.PumpUntilCaughtUp());

  const std::string primary_bytes = c.Bytes(0);
  ASSERT_FALSE(primary_bytes.empty());
  EXPECT_EQ(c.Bytes(1), primary_bytes);
  EXPECT_EQ(c.Bytes(2), primary_bytes);

  const ReplicationCounters counters = c.group->counters();
  EXPECT_GT(counters.records_shipped, 0u);
  EXPECT_EQ(counters.bytes_shipped, 2 * primary_bytes.size());
  EXPECT_EQ(counters.failovers, 0u);
  EXPECT_EQ(counters.stale_epoch_rejects, 0u);
  ExpectAllVersionsServed(c.group.get(), 6);
}

TEST(ReplicationTest, QuorumCommitAcksOnceMajorityFsynced) {
  Cluster c;
  ReplicationOptions options;
  options.ack_mode = AckMode::kQuorum;
  MetricsRegistry metrics;
  options.metrics = &metrics;
  ASSERT_TRUE(c.Build(options).ok());

  // With no shipper thread, the quorum wait pumps inline — the commit only
  // returns once a majority (primary + at least one follower) has fsynced.
  for (int v = 1; v <= 4; ++v) ASSERT_TRUE(c.Commit(v).ok());

  const uint64_t durable = c.group->primary()->DurableOffset();
  int acked = 0;
  for (const ReplicaStatus& r : c.group->Replicas()) {
    if (r.role == ReplicaRole::kFollower && r.cursor >= durable) ++acked;
  }
  EXPECT_GE(acked + 1, 2) << "no majority at ack time";
  EXPECT_EQ(c.group->counters().quorum_timeouts, 0u);
  EXPECT_GT(metrics.histogram("replication_ack_seconds")->Count(), 0u);
}

TEST(ReplicationTest, QuorumTimeoutReportsUnavailableButStaysDurable) {
  Cluster c;
  FaultPlan dead;
  dead.transient_append_p = 1.0;  // Followers can never append.
  FaultInjectingEnv env1(&c.mem[1], dead);
  FaultInjectingEnv env2(&c.mem[2], dead);
  ReplicationOptions options;
  options.ack_mode = AckMode::kQuorum;
  options.ack_timeout_seconds = 0.05;
  ASSERT_TRUE(c.Build(options, {nullptr, &env1, &env2}).ok());

  auto tree = ParseSexpr(DocText(1), c.group->label_table());
  ASSERT_TRUE(tree.ok());
  auto committed = c.group->Commit(*tree);
  ASSERT_FALSE(committed.ok());
  EXPECT_EQ(committed.status().code(), Code::kUnavailable);
  EXPECT_EQ(c.group->counters().quorum_timeouts, 1u);

  // The contract: the commit IS durable on the primary — the error says
  // only that the replication guarantee was not met.
  EXPECT_EQ(c.group->primary()->VersionCount(), 2);
  ExpectAllVersionsServed(c.group.get(), 1);
}

TEST(ReplicationTest, StaleLeaseCommitFencedAfterPromotion) {
  Cluster c;
  ASSERT_TRUE(c.Build().ok());
  ASSERT_TRUE(c.Commit(1).ok());
  ASSERT_TRUE(c.PumpUntilCaughtUp());

  const CommitLease stale = c.group->lease();
  EXPECT_EQ(stale.epoch, 0u);

  auto promoted = c.group->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(*promoted, 1);  // Most-caught-up follower, ties to the lowest.
  EXPECT_EQ(c.group->epoch(), 1u);
  EXPECT_EQ(c.group->primary_index(), 1);

  // The deposed primary's writer still holds the old lease: its commit is
  // rejected before touching any log.
  auto tree = ParseSexpr(DocText(2), c.group->label_table());
  ASSERT_TRUE(tree.ok());
  const int versions_before = c.group->primary()->VersionCount();
  auto fenced = c.group->CommitWithLease(*tree, stale);
  ASSERT_FALSE(fenced.ok());
  EXPECT_EQ(fenced.status().code(), Code::kFailedPrecondition);
  EXPECT_NE(fenced.status().ToString().find("fenced"), std::string::npos);
  EXPECT_EQ(c.group->primary()->VersionCount(), versions_before);

  // A fresh lease under the new epoch commits normally.
  ASSERT_TRUE(c.Commit(2).ok());
  ASSERT_TRUE(c.PumpUntilCaughtUp());
  ExpectAllVersionsServed(c.group.get(), 2);
}

TEST(ReplicationTest, PromotionDuringQuorumWaitNeverAcksADroppedCommit) {
  // The ack-wait race: a commit lands on the primary and blocks for
  // quorum; before any follower receives it, a promotion picks a follower
  // whose cursor is BELOW the commit's end offset. The record now exists
  // only on the deposed machine — the wait must fail the commit as
  // unacked, not count cursors that advance along the new primary's
  // (different) byte stream until they spuriously pass the target.
  //
  // Construction, fully deterministic: background shipping with an
  // hour-long poll (the shipper only wakes when a commit signals it),
  // dead follower appends so that one wake accomplishes nothing, then
  // heal follower 1 and promote it while the committer sits in the wait.
  MemEnv mems[3];
  FaultPlan dead;
  dead.transient_append_p = 1.0;
  FaultInjectingEnv env1(&mems[1], dead);
  FaultInjectingEnv env2(&mems[2], dead);
  env1.DisableTransientFaults();  // Quiet for bootstrap.
  env2.DisableTransientFaults();

  std::vector<ReplicaConfig> configs = {
      {&mems[0], "r0.log"}, {&env1, "r1.log"}, {&env2, "r2.log"}};
  ReplicationOptions options;
  options.ack_mode = AckMode::kQuorum;
  options.ack_timeout_seconds = 5.0;  // Fail via timeout only if detection breaks.
  options.poll_interval_seconds = 3600.0;
  options.background_ship = true;
  options.store_options.sleep = [](double) {};
  auto built = ReplicatedVersionStore::Create(configs, *ParseSexpr(DocText(0)),
                                              {}, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ReplicatedVersionStore* group = built->get();
  for (int i = 0; i < 200; ++i) {
    group->PumpFollowers().IgnoreError();
    bool all = true;
    for (const ReplicaStatus& r : group->Replicas()) {
      if (r.role == ReplicaRole::kFollower && !r.caught_up) all = false;
    }
    if (all) break;
  }
  env1.EnableTransientFaults();
  env2.EnableTransientFaults();

  auto tree = ParseSexpr(DocText(1), group->label_table());
  ASSERT_TRUE(tree.ok());
  StatusOr<int> committed = Status::Internal("not run");
  std::thread committer(
      [&] { committed = group->Commit(*tree); });

  // Let the committer reach the wait (its commit itself is instant), then
  // heal follower 1 and promote it. Its cursor still predates the commit:
  // the shipper's one wake hit dead appends and went back to sleep.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  env1.DisableTransientFaults();
  auto promoted = group->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(*promoted, 1);
  committer.join();

  ASSERT_FALSE(committed.ok());
  EXPECT_EQ(committed.status().code(), Code::kUnavailable);
  EXPECT_NE(committed.status().ToString().find("failover during ack wait"),
            std::string::npos)
      << committed.status().ToString();

  // The new primary never saw the dropped commit; its version slot is
  // reused under the new epoch and the group serves consistently. (The
  // recommit's quorum needs shipping, and this test parked the shipper on
  // an hour-long poll — pump from here while the commit blocks.)
  env2.DisableTransientFaults();
  EXPECT_EQ(group->primary()->VersionCount(), 1);
  StatusOr<int> recommitted = Status::Internal("not run");
  std::thread recommitter([&] { recommitted = group->Commit(*tree); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (group->primary()->VersionCount() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    group->PumpFollowers().IgnoreError();
  }
  while (std::chrono::steady_clock::now() < deadline) {
    group->PumpFollowers().IgnoreError();
    bool all = true;
    for (const ReplicaStatus& r : group->Replicas()) {
      if (r.role == ReplicaRole::kFollower && !r.caught_up) all = false;
    }
    if (all) break;
  }
  recommitter.join();
  ASSERT_TRUE(recommitted.ok()) << recommitted.status().ToString();
  EXPECT_EQ(*recommitted, 1);
  ExpectAllVersionsServed(group, 1);
}

TEST(ReplicationTest, PromoteWhileFollowerMidCatchUpThenHeal) {
  Cluster c;
  FaultPlan stuck;
  stuck.transient_append_p = 1.0;  // Replica 2 cannot append for now.
  FaultInjectingEnv env2(&c.mem[2], stuck);
  ASSERT_TRUE(c.Build({}, {nullptr, nullptr, &env2}).ok());

  for (int v = 1; v <= 5; ++v) ASSERT_TRUE(c.Commit(v).ok());
  c.group->PumpFollowers().IgnoreError();  // r1 catches up; r2 stays at 0.

  std::vector<ReplicaStatus> replicas = c.group->Replicas();
  EXPECT_TRUE(replicas[1].caught_up);
  EXPECT_EQ(replicas[2].cursor, 0u);

  // Promote picks the most-caught-up follower — r1, never the laggard.
  auto promoted = c.group->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(*promoted, 1);
  EXPECT_EQ(c.group->epoch(), 1u);

  // No acked byte was lost: the new primary serves the full history and
  // accepts new commits under the new epoch.
  ExpectAllVersionsServed(c.group.get(), 5);
  ASSERT_TRUE(c.Commit(6).ok());

  // The mid-catch-up follower heals: its medium recovers, it resumes
  // shipping from the *new* primary (its empty log is trivially a prefix),
  // and the deposed r0 rejoins via a full resync. Everyone converges to
  // the new primary's bytes.
  env2.DisableTransientFaults();
  ASSERT_TRUE(c.group->Rejoin(0).ok());
  ASSERT_TRUE(c.PumpUntilCaughtUp());
  const std::string primary_bytes = c.Bytes(1);
  ASSERT_FALSE(primary_bytes.empty());
  EXPECT_EQ(c.Bytes(0), primary_bytes);
  EXPECT_EQ(c.Bytes(2), primary_bytes);
  EXPECT_GE(c.group->counters().resyncs, 1u);
  ExpectAllVersionsServed(c.group.get(), 6);
}

TEST(ReplicationTest, DoublePromotionRaceExactlyOneEpochWins) {
  Cluster c;
  ASSERT_TRUE(c.Build().ok());
  ASSERT_TRUE(c.Commit(1).ok());
  ASSERT_TRUE(c.PumpUntilCaughtUp());

  // Two failover initiators observed epoch 0 and each try to install their
  // own candidate. The compare-and-swap admits exactly one.
  auto first = c.group->PromoteIfEpoch(1, 0);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = c.group->PromoteIfEpoch(2, 0);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), Code::kFailedPrecondition);
  EXPECT_NE(second.status().ToString().find("lost promotion race"),
            std::string::npos);
  EXPECT_EQ(c.group->epoch(), 1u);
  EXPECT_EQ(c.group->primary_index(), 1);
  EXPECT_EQ(c.group->counters().failovers, 1u);
}

TEST(ReplicationTest, ConcurrentPromotionRaceIsSerialized) {
  Cluster c;
  ASSERT_TRUE(c.Build().ok());
  ASSERT_TRUE(c.Commit(1).ok());
  ASSERT_TRUE(c.PumpUntilCaughtUp());

  Status results[2];
  std::thread t1([&] { results[0] = c.group->PromoteIfEpoch(1, 0).status(); });
  std::thread t2([&] { results[1] = c.group->PromoteIfEpoch(2, 0).status(); });
  t1.join();
  t2.join();

  const int winners = (results[0].ok() ? 1 : 0) + (results[1].ok() ? 1 : 0);
  EXPECT_EQ(winners, 1) << results[0].ToString() << " / "
                        << results[1].ToString();
  EXPECT_EQ(c.group->epoch(), 1u);
  // The group still serves: commit under the winning epoch, converge.
  ASSERT_TRUE(c.Commit(2).ok());
  ASSERT_TRUE(c.PumpUntilCaughtUp());
  ExpectAllVersionsServed(c.group.get(), 2);
}

TEST(ReplicationTest, ZombieWriterStaleEpochRecordRejected) {
  Cluster c;
  ASSERT_TRUE(c.Build().ok());
  ASSERT_TRUE(c.Commit(1).ok());
  ASSERT_TRUE(c.PumpUntilCaughtUp());
  ASSERT_TRUE(c.group->Promote().ok());  // r1 leads at epoch 1.
  ASSERT_TRUE(c.PumpUntilCaughtUp());    // r2 ships the kEpoch record.

  // A zombie writer that never heard about the promotion appends a
  // well-framed epoch-0 record to the new primary's log medium. The CRC is
  // valid — only the fence can catch this.
  {
    auto out = c.mem[1].NewWritableFile(c.configs[1].path, /*truncate=*/false);
    ASSERT_TRUE(out.ok());
    const std::string zombie =
        EncodeLogRecordV2(LogRecordType::kRollback, std::string(1, '\0'),
                          /*epoch=*/0);
    ASSERT_TRUE((*out)->Append(zombie).ok());
    ASSERT_TRUE((*out)->Sync().ok());
  }
  // The real primary commits; its durable offset now covers the zombie's
  // bytes, so the next shipping round reads them.
  ASSERT_TRUE(c.Commit(2).ok());

  const std::string follower_before = c.Bytes(2);
  Status pumped = c.group->PumpFollowers();
  ASSERT_FALSE(pumped.ok());
  EXPECT_EQ(pumped.code(), Code::kFailedPrecondition);
  EXPECT_NE(pumped.ToString().find("stale"), std::string::npos);
  EXPECT_GE(c.group->counters().stale_epoch_rejects, 1u);
  // Rejected means rejected: not one zombie byte reached the follower.
  EXPECT_EQ(c.Bytes(2), follower_before);
}

TEST(ReplicationTest, ScrubCatchesFollowerDivergenceAndResyncs) {
  Cluster c;
  ASSERT_TRUE(c.Build().ok());
  for (int v = 1; v <= 4; ++v) ASSERT_TRUE(c.Commit(v).ok());
  ASSERT_TRUE(c.PumpUntilCaughtUp());

  // Bit rot inside follower 1's verified prefix: its bytes no longer match
  // the CRC chain it acked.
  ASSERT_TRUE(c.mem[1].CorruptByte(c.configs[1].path, kLogMagicSize + 3, 0x40)
                  .ok());
  ASSERT_TRUE(c.group->Scrub().ok());
  EXPECT_EQ(c.group->counters().divergence, 1u);
  EXPECT_GE(c.group->counters().resyncs, 1u);

  // The resync recopies from the primary; everyone converges again.
  ASSERT_TRUE(c.PumpUntilCaughtUp());
  EXPECT_EQ(c.Bytes(1), c.Bytes(0));
  EXPECT_EQ(c.Bytes(2), c.Bytes(0));
  ExpectAllVersionsServed(c.group.get(), 4);
}

TEST(ReplicationTest, PrimaryLogRewriteForcesFollowerResync) {
  Cluster c;
  ASSERT_TRUE(c.Build().ok());
  for (int v = 1; v <= 4; ++v) ASSERT_TRUE(c.Commit(v).ok());
  ASSERT_TRUE(c.PumpUntilCaughtUp());

  // Cold-log corruption on the primary: its own scrub repairs by rotation,
  // which rewrites the log — every follower byte offset is now meaningless
  // and the rotation counter says so.
  ASSERT_TRUE(c.mem[0].CorruptByte(c.configs[0].path, kLogMagicSize + 3, 0x10)
                  .ok());
  ASSERT_TRUE(c.group->Scrub().ok());
  EXPECT_GT(c.group->primary()->rotations(), 0u);

  ASSERT_TRUE(c.PumpUntilCaughtUp());
  EXPECT_GE(c.group->counters().resyncs, 2u);  // Both followers recopied.
  EXPECT_EQ(c.Bytes(1), c.Bytes(0));
  EXPECT_EQ(c.Bytes(2), c.Bytes(0));
  ExpectAllVersionsServed(c.group.get(), 4);
}

TEST(ReplicationTest, CorruptUnshippedRecordIsNeverShipped) {
  Cluster c;
  ASSERT_TRUE(c.Build().ok());
  for (int v = 1; v <= 2; ++v) ASSERT_TRUE(c.Commit(v).ok());
  ASSERT_TRUE(c.PumpUntilCaughtUp());
  const std::string follower1 = c.Bytes(1);
  const std::string follower2 = c.Bytes(2);

  // Version 3 lands past the followers' cursor; rot one payload byte of
  // its record on the primary's medium before it ships.
  const uint64_t cursor = c.group->primary()->DurableOffset();
  ASSERT_TRUE(c.Commit(3).ok());
  ASSERT_TRUE(
      c.mem[0].CorruptByte(c.configs[0].path,
                           cursor + kLogRecordHeaderSizeV2 + 2, 0x40)
          .ok());

  // The batch check rejects the bytes, and no follower appends them.
  const Status pumped = c.group->PumpFollowers();
  EXPECT_EQ(pumped.code(), Code::kUnavailable) << pumped.ToString();
  EXPECT_NE(pumped.message().find("failed CRC verification"),
            std::string::npos)
      << pumped.ToString();
  EXPECT_EQ(c.Bytes(1), follower1);
  EXPECT_EQ(c.Bytes(2), follower2);

  // The primary's scrub rewrites its log from memory; the followers
  // resync from the rewrite and the group converges.
  ASSERT_TRUE(c.group->Scrub().ok());
  ASSERT_TRUE(c.PumpUntilCaughtUp());
  EXPECT_EQ(c.Bytes(1), c.Bytes(0));
  EXPECT_EQ(c.Bytes(2), c.Bytes(0));
  ExpectAllVersionsServed(c.group.get(), 3);
}

TEST(ReplicationTest, TornFollowerTailsHealByTruncateAndRetry) {
  Cluster c;
  FaultPlan flaky;
  flaky.seed = 7;
  flaky.torn_append_p = 0.35;       // Batches tear mid-append...
  flaky.transient_truncate_p = 0.25;  // ...and even the repair flakes.
  FaultInjectingEnv env1(&c.mem[1], flaky);
  FaultPlan flaky_reads;
  flaky_reads.seed = 11;
  flaky_reads.short_read_p = 0.2;  // Shipping reads return short.
  flaky_reads.transient_read_p = 0.1;
  FaultInjectingEnv env0(&c.mem[0], flaky_reads);
  ASSERT_TRUE(c.Build({}, {&env0, &env1}).ok());

  // Interleave commits and shipping rounds so the catch-up path performs
  // many small appends — each one a chance for the plan to tear it.
  for (int v = 1; v <= 8; ++v) {
    ASSERT_TRUE(c.Commit(v).ok());
    ASSERT_TRUE(c.PumpUntilCaughtUp(500));
  }

  EXPECT_GT(env1.transient_faults(), 0u);
  // Despite torn tails and short reads, the converged logs are
  // byte-identical — the truncate-repair discipline never let a garbage
  // prefix survive.
  EXPECT_EQ(c.Bytes(1), c.Bytes(0));
  EXPECT_EQ(c.Bytes(2), c.Bytes(0));
  ExpectAllVersionsServed(c.group.get(), 8);
}

TEST(ReplicationTest, FollowerAppendRetriesAreCounted) {
  // The primary's env is clean, so every retry counted here is a
  // follower's batch append: the group adds them to its primary's
  // FaultCounters and to store_retries_total.
  Cluster c;
  FaultPlan flaky;
  flaky.seed = 3;
  flaky.transient_append_p = 0.3;
  flaky.transient_sync_p = 0.3;
  FaultInjectingEnv env1(&c.mem[1], flaky);
  MetricsRegistry metrics;
  ReplicationOptions options;
  options.store_options.metrics = &metrics;
  ASSERT_TRUE(c.Build(options, {nullptr, &env1}).ok());
  for (int v = 1; v <= 8; ++v) {
    ASSERT_TRUE(c.Commit(v).ok());
    ASSERT_TRUE(c.PumpUntilCaughtUp(500));
  }

  ASSERT_GT(env1.transient_faults(), 0u);
  const uint64_t retries =
      c.group->primary()->fault_counters().transient_retries;
  EXPECT_GT(retries, 0u);
  EXPECT_EQ(metrics.counter("store_retries_total")->Value(), retries);
  EXPECT_EQ(c.Bytes(1), c.Bytes(0));
}

TEST(ReplicationTest, MetricsRegistryMirrorsReplicationActivity) {
  Cluster c;
  MetricsRegistry metrics;
  ReplicationOptions options;
  options.metrics = &metrics;
  ASSERT_TRUE(c.Build(options).ok());
  for (int v = 1; v <= 3; ++v) ASSERT_TRUE(c.Commit(v).ok());
  ASSERT_TRUE(c.PumpUntilCaughtUp());
  ASSERT_TRUE(c.group->Promote().ok());

  EXPECT_GT(metrics.counter("replication_records_shipped_total")->Value(), 0u);
  EXPECT_GT(metrics.counter("replication_bytes_shipped_total")->Value(), 0u);
  EXPECT_EQ(metrics.counter("replication_failovers_total")->Value(), 1u);
  EXPECT_GT(metrics.histogram("replication_follower_lag_bytes")->Count(), 0u);
}

// ---------------------------------------------------------------------------
// Groups without followers.

/// Live threads of this process, one /proc/self/task entry each (Linux).
size_t ThreadCount() {
  size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(ReplicationTest, EmptyReplicaListIsAnInMemoryGroupOfOne) {
  auto built = ReplicatedVersionStore::Create({}, *ParseSexpr(DocText(0)));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ReplicatedVersionStore& group = **built;
  EXPECT_FALSE(group.primary()->durable());
  for (int v = 1; v <= 3; ++v) {
    auto committed =
        group.Commit(*ParseSexpr(DocText(v), group.label_table()));
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
    EXPECT_EQ(*committed, v);
  }
  auto tree = group.primary()->Materialize(2);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_TRUE(Tree::Isomorphic(
      *tree, *ParseSexpr(DocText(2), group.label_table())));

  const std::vector<ReplicaStatus> replicas = group.Replicas();
  ASSERT_EQ(replicas.size(), 1u);
  EXPECT_EQ(replicas[0].role, ReplicaRole::kPrimary);
  EXPECT_EQ(group.Promote().status().code(), Code::kFailedPrecondition);
  auto report = group.Scrub();  // Nothing to scrub: no log.
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->bytes_verified, 0u);
  EXPECT_FALSE(report->corruption_found);
}

TEST(ReplicationTest, GroupsWithoutFollowersStartNoShipperThread) {
  const size_t before = ThreadCount();
  ReplicationOptions options;
  ASSERT_TRUE(options.background_ship);
  auto in_memory =
      ReplicatedVersionStore::Create({}, *ParseSexpr(DocText(0)), {}, options);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
  EXPECT_LE(ThreadCount(), before);

  MemEnv solo_env;
  auto solo = ReplicatedVersionStore::Create(
      {ReplicaConfig{&solo_env, "solo.log"}}, *ParseSexpr(DocText(0)), {},
      options);
  ASSERT_TRUE(solo.ok()) << solo.status().ToString();
  EXPECT_LE(ThreadCount(), before);

  // Control: one follower is enough to start the shipper.
  MemEnv envs[2];
  auto pair = ReplicatedVersionStore::Create(
      {ReplicaConfig{&envs[0], "p.log"}, ReplicaConfig{&envs[1], "f.log"}},
      *ParseSexpr(DocText(0)), {}, options);
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  EXPECT_GE(ThreadCount(), before + 1);
}

TEST(ReplicationTest, OpenRecoversAGroupAfterARestart) {
  Cluster cluster;
  ASSERT_TRUE(cluster.Build().ok());
  for (int v = 1; v <= 3; ++v) ASSERT_TRUE(cluster.Commit(v).ok());
  ASSERT_TRUE(cluster.PumpUntilCaughtUp());
  const std::string primary_log = cluster.Bytes(0);
  cluster.group.reset();  // The process ends; only the logs remain.
  {
    // The crash also tore an append on r0.
    auto out = cluster.mem[0].NewWritableFile("r0.log", /*truncate=*/false);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE((*out)->Append("\x05torn").ok());
    ASSERT_TRUE((*out)->Close().ok());
  }
  const std::string torn_log = cluster.Bytes(0);

  ReplicationOptions options;
  options.background_ship = false;
  options.store_options.sleep = [](double) {};

  // A different base is refused before any log is written, the torn tail
  // that recovery would truncate included.
  auto wrong = ReplicatedVersionStore::Open(
      cluster.configs, *ParseSexpr(DocText(1)), {}, options);
  EXPECT_EQ(wrong.status().code(), Code::kFailedPrecondition);
  EXPECT_EQ(cluster.Bytes(0), torn_log);
  EXPECT_EQ(cluster.Bytes(1), primary_log);

  auto reopened = ReplicatedVersionStore::Open(
      cluster.configs, *ParseSexpr(DocText(0)), {}, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  cluster.group = std::move(*reopened);
  EXPECT_EQ(cluster.Bytes(0), primary_log);  // The torn tail is truncated.
  EXPECT_EQ(cluster.group->primary()->VersionCount(), 4);
  EXPECT_EQ(cluster.group->primary_index(), 0);
  ExpectAllVersionsServed(cluster.group.get(), 3);

  // Followers restart empty and catch up through the resync path; the
  // group keeps committing where it left off.
  EXPECT_EQ(cluster.group->counters().resyncs, 2u);
  ASSERT_TRUE(cluster.Commit(4).ok());
  ASSERT_TRUE(cluster.PumpUntilCaughtUp());
  EXPECT_EQ(cluster.Bytes(1), cluster.Bytes(0));
  EXPECT_EQ(cluster.Bytes(2), cluster.Bytes(0));
  ExpectAllVersionsServed(cluster.group.get(), 4);
}

TEST(ReplicationTest, OpenLeadsWithTheReplicaThatLedLast) {
  Cluster cluster;
  ASSERT_TRUE(cluster.Build().ok());
  ASSERT_TRUE(cluster.Commit(1).ok());
  ASSERT_TRUE(cluster.PumpUntilCaughtUp());
  auto promoted = cluster.group->Promote(1);
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  ASSERT_TRUE(cluster.Commit(2).ok());  // Acked on r1 alone.
  cluster.group.reset();

  // The deposed r0 kept writing under the old epoch before it died, so its
  // log is now the longest and holds the most versions.
  {
    StoreOptions store_options;
    store_options.env = &cluster.mem[0];
    auto zombie = VersionStore::Open("r0.log", {}, store_options);
    ASSERT_TRUE(zombie.ok()) << zombie.status().ToString();
    for (int v : {5, 6, 7}) {
      ASSERT_TRUE(
          zombie->Commit(*ParseSexpr(DocText(v), zombie->label_table())).ok());
    }
  }
  ASSERT_GT(cluster.Bytes(0).size(), cluster.Bytes(1).size());

  // Listed in creation order, r0 first: the epoch, not the position or
  // the length, names the replica that led.
  ReplicationOptions options;
  options.background_ship = false;
  options.store_options.sleep = [](double) {};
  auto reopened = ReplicatedVersionStore::Open(
      cluster.configs, *ParseSexpr(DocText(0)), {}, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  cluster.group = std::move(*reopened);
  EXPECT_EQ(cluster.group->primary_index(), 1);
  EXPECT_EQ(cluster.group->epoch(), 1u);
  EXPECT_EQ(cluster.group->primary()->VersionCount(), 3);
  ExpectAllVersionsServed(cluster.group.get(), 2);

  // The stale suffix is gone: r0 and r2 recopy r1's log.
  EXPECT_EQ(cluster.group->counters().resyncs, 2u);
  ASSERT_TRUE(cluster.Commit(3).ok());
  ASSERT_TRUE(cluster.PumpUntilCaughtUp());
  EXPECT_EQ(cluster.Bytes(0), cluster.Bytes(1));
  EXPECT_EQ(cluster.Bytes(2), cluster.Bytes(1));
  ExpectAllVersionsServed(cluster.group.get(), 3);
}

TEST(ReplicationTest, OpenWithoutAnyLogIsNotFound) {
  MemEnv mem;
  std::vector<ReplicaConfig> configs = {{&mem, "a.log"}, {&mem, "b.log"}};
  auto opened =
      ReplicatedVersionStore::Open(configs, *ParseSexpr(DocText(0)));
  EXPECT_EQ(opened.status().code(), Code::kNotFound);
}

// ---------------------------------------------------------------------------
// DiffService integration: replicated stores behind the circuit breaker.

TEST(ReplicationServiceTest, ServiceRoutesReadsAndCommitsThroughGroup) {
  MemEnv mems[3];
  std::vector<ReplicaConfig> configs;
  for (int i = 0; i < 3; ++i) {
    configs.push_back({&mems[i], "svc" + std::to_string(i) + ".log"});
  }
  DiffServiceOptions options;
  options.num_threads = 2;
  options.sleep = [](double) {};
  DiffService service(options);
  ASSERT_TRUE(service.CreateStore("doc", DocText(0), configs).ok());

  auto v1 = service.CommitVersion("doc", DocText(1));
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ(*v1, 1);

  DiffRequest request;
  request.doc_id = "doc";
  request.from_version = 0;
  request.to_version = 1;
  DiffResponse response = service.SubmitSync(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_GT(response.operations, 0u);

  std::vector<DiffService::StoreStatus> statuses = service.StoreStatuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_TRUE(statuses[0].durable);
  EXPECT_EQ(statuses[0].repl_epoch, 0u);
  EXPECT_EQ(statuses[0].repl_primary, 0);
  ASSERT_EQ(statuses[0].replicas.size(), 3u);
  EXPECT_EQ(statuses[0].replicas[0].role, ReplicaRole::kPrimary);

  // ScrubNow covers replicated entries (primary log + follower chains).
  EXPECT_EQ(service.ScrubNow(), 1);
}

TEST(ReplicationServiceTest, QuorumTimeoutCommitsExactlyOnce) {
  // A quorum timeout leaves the commit durable on the primary, so running
  // the commit again would store the same document a second time as a
  // version nobody committed.
  Cluster c;
  FaultPlan dead;
  dead.transient_append_p = 1.0;  // Followers can never append.
  FaultInjectingEnv env1(&c.mem[1], dead);
  FaultInjectingEnv env2(&c.mem[2], dead);
  ReplicationOptions group_options;
  group_options.ack_mode = AckMode::kQuorum;
  group_options.ack_timeout_seconds = 0.05;
  ASSERT_TRUE(c.Build(group_options, {nullptr, &env1, &env2}).ok());
  std::shared_ptr<ReplicatedVersionStore> group = std::move(c.group);

  DiffServiceOptions options;
  options.sleep = [](double) {};
  options.breaker_failure_threshold = 3;  // No failover on one failure.
  DiffService service(options);
  ASSERT_TRUE(service.AttachStore("doc", group).ok());

  const StatusOr<int> committed = service.CommitVersion("doc", DocText(1));
  ASSERT_FALSE(committed.ok());
  EXPECT_EQ(committed.status().code(), Code::kUnavailable);
  EXPECT_EQ(group->counters().quorum_timeouts, 1u);
  EXPECT_EQ(group->counters().failovers, 0u);

  const std::shared_ptr<VersionStore> primary = group->primary();
  EXPECT_EQ(primary->VersionCount(), 2);
  const EditScript* delta = primary->DeltaFor(1);
  ASSERT_NE(delta, nullptr);
  EXPECT_GT(delta->size(), 0u);
  ExpectAllVersionsServed(group.get(), 1);
  service.Shutdown();
}

TEST(ReplicationServiceTest, RecoverStoreServesAStoreAfterARestart) {
  MemEnv mems[2];
  std::vector<ReplicaConfig> configs;
  for (int i = 0; i < 2; ++i) {
    configs.push_back({&mems[i], "svc" + std::to_string(i) + ".log"});
  }
  DiffServiceOptions options;
  options.num_threads = 2;
  options.sleep = [](double) {};
  {
    DiffService first(options);
    ASSERT_TRUE(first.CreateStore("doc", DocText(0), configs).ok());
    for (int v = 1; v <= 2; ++v) {
      ASSERT_TRUE(first.CommitVersion("doc", DocText(v)).ok());
    }
    // A second open of a live id never reopens its logs.
    EXPECT_EQ(first.RecoverStore("doc", DocText(0), configs).status().code(),
              Code::kFailedPrecondition);
  }

  DiffService second(options);
  EXPECT_EQ(second.CreateStore("doc", DocText(0), configs).code(),
            Code::kFailedPrecondition);  // The log exists: no fresh create.
  EXPECT_EQ(second.RecoverStore("doc", DocText(1), configs).status().code(),
            Code::kFailedPrecondition);  // Not this store's base.
  const StatusOr<int> head = second.RecoverStore("doc", DocText(0), configs);
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  EXPECT_EQ(*head, 2);
  DiffRequest request;
  request.doc_id = "doc";
  request.from_version = 0;
  request.to_version = 2;
  const DiffResponse response = second.SubmitSync(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_GT(response.operations, 0u);
  auto v3 = second.CommitVersion("doc", DocText(3));
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();
  EXPECT_EQ(*v3, 3);
}

/// Deterministic "primary dies mid-commit": dry-runs creating "doc" and
/// committing v1 on a clean env to learn how many fsyncs the primary makes
/// through v1, so a terminal fault can be armed on the next one.
uint64_t PrimarySyncsThroughV1() {
  MemEnv probe_mem;
  FaultInjectingEnv probe(&probe_mem, {});
  MemEnv f1, f2;
  std::vector<ReplicaConfig> configs = {
      {&probe, "p.log"}, {&f1, "f1.log"}, {&f2, "f2.log"}};
  DiffServiceOptions options;
  options.sleep = [](double) {};
  DiffService service(options);
  EXPECT_TRUE(service.CreateStore("doc", DocText(0), configs).ok());
  EXPECT_TRUE(service.CommitVersion("doc", DocText(1)).ok());
  return probe.sync_calls();
}

/// Lets the shipper catch the followers of "doc" up, so a promotion
/// candidate holds every acked byte.
void WaitForFollowers(DiffService* service) {
  for (int i = 0; i < 200; ++i) {
    std::vector<DiffService::StoreStatus> statuses = service->StoreStatuses();
    bool all = true;
    for (const ReplicaStatus& r : statuses[0].replicas) {
      if (r.role == ReplicaRole::kFollower && !r.caught_up) all = false;
    }
    if (all) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

TEST(ReplicationServiceTest, BreakerOpenPromotesFollowerAndResumesTraffic) {
  const uint64_t syncs_through_v1 = PrimarySyncsThroughV1();
  ASSERT_GT(syncs_through_v1, 0u);

  MemEnv mems[3];
  FaultPlan lethal;
  lethal.crash_during_sync_at = syncs_through_v1 + 1;
  FaultInjectingEnv dying(&mems[0], lethal);
  std::vector<ReplicaConfig> configs = {
      {&dying, "p.log"}, {&mems[1], "f1.log"}, {&mems[2], "f2.log"}};

  DiffServiceOptions options;
  options.sleep = [](double) {};
  options.breaker_failure_threshold = 1;
  DiffService service(options);
  ASSERT_TRUE(service.CreateStore("doc", DocText(0), configs).ok());
  ASSERT_TRUE(service.CommitVersion("doc", DocText(1)).ok());

  WaitForFollowers(&service);  // Before the primary dies.

  // This commit's fsync kills the primary's machine. The breaker sees the
  // failure, promotes the most-caught-up follower (fenced epoch bump), and
  // re-runs the same op on the new primary — the commit lands.
  auto v2 = service.CommitVersion("doc", DocText(2));
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(*v2, 2);
  EXPECT_TRUE(dying.down());
  EXPECT_EQ(service.metrics().counter("store_failovers_total")->Value(), 1u);

  std::vector<DiffService::StoreStatus> statuses = service.StoreStatuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].repl_epoch, 1u);
  EXPECT_NE(statuses[0].repl_primary, 0);
  EXPECT_EQ(statuses[0].health, StoreHealth::kHealthy);

  // Traffic resumes under the new epoch: further commits and stored diffs.
  auto v3 = service.CommitVersion("doc", DocText(3));
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();
  DiffRequest request;
  request.doc_id = "doc";
  request.from_version = 1;
  request.to_version = 3;
  DiffResponse response = service.SubmitSync(request);
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
}

/// Operation counts of every adjacent vdiff of `doc` up to `head`.
std::vector<size_t> AdjacentOps(DiffService* service, int head) {
  std::vector<size_t> ops;
  for (int v = 1; v <= head; ++v) {
    DiffRequest request;
    request.doc_id = "doc";
    request.from_version = v - 1;
    request.to_version = v;
    const DiffResponse response = service->SubmitSync(request);
    EXPECT_TRUE(response.status.ok()) << "v" << v << ": "
                                      << response.status.ToString();
    ops.push_back(response.operations);
  }
  return ops;
}

TEST(ReplicationServiceTest, RecoverAfterABreakerPromotionKeepsEveryVersion) {
  // The primary's machine dies on the fsync of v2: the breaker promotes a
  // follower, and v2 and v3 are acked under epoch 1 on it alone.
  const uint64_t syncs_through_v1 = PrimarySyncsThroughV1();
  ASSERT_GT(syncs_through_v1, 0u);
  MemEnv mems[3];
  FaultPlan lethal;
  lethal.crash_during_sync_at = syncs_through_v1 + 1;
  FaultInjectingEnv dying(&mems[0], lethal);
  std::vector<ReplicaConfig> configs = {
      {&dying, "p.log"}, {&mems[1], "f1.log"}, {&mems[2], "f2.log"}};
  DiffServiceOptions options;
  options.sleep = [](double) {};
  options.breaker_failure_threshold = 1;
  std::vector<size_t> acked_ops;
  int promoted = -1;
  {
    DiffService service(options);
    ASSERT_TRUE(service.CreateStore("doc", DocText(0), configs).ok());
    for (int v = 1; v <= 3; ++v) {
      auto committed = service.CommitVersion("doc", DocText(v));
      ASSERT_TRUE(committed.ok()) << committed.status().ToString();
      EXPECT_EQ(*committed, v);
      if (v == 1) WaitForFollowers(&service);
    }
    ASSERT_TRUE(dying.down());
    const std::vector<DiffService::StoreStatus> statuses =
        service.StoreStatuses();
    ASSERT_EQ(statuses[0].repl_epoch, 1u);
    promoted = statuses[0].repl_primary;
    ASSERT_NE(promoted, 0);
    acked_ops = AdjacentOps(&service, 3);
  }

  // The server restarts with the same replica list, r0 first; r0's machine
  // is back with whatever its log held when it died.
  configs[0].env = &mems[0];
  DiffService restarted(options);
  const StatusOr<int> head = restarted.RecoverStore("doc", DocText(0), configs);
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  EXPECT_EQ(*head, 3);
  const std::vector<DiffService::StoreStatus> statuses =
      restarted.StoreStatuses();
  EXPECT_EQ(statuses[0].repl_epoch, 1u);
  EXPECT_EQ(statuses[0].repl_primary, promoted);
  EXPECT_EQ(AdjacentOps(&restarted, 3), acked_ops);
  auto v4 = restarted.CommitVersion("doc", DocText(4));
  ASSERT_TRUE(v4.ok()) << v4.status().ToString();
  EXPECT_EQ(*v4, 4);
}

}  // namespace
}  // namespace treediff
