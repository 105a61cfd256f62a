// Replication chaos harness: concurrent commit/read traffic against a
// three-replica group whose primary is killed and failed over mid-commit,
// swept across seeds on flaky media. The invariants under test are the
// replication contract at full strength:
//
//  * **No quorum-acked commit is ever lost.** Every commit the group
//    acknowledged under AckMode::kQuorum materializes to exactly the
//    committed document after any number of fenced failovers. (A commit
//    that timed out its quorum wait made no such promise — a failover may
//    lose it, and its version slot may be reused under the new epoch.)
//  * **Stale-epoch writes never land.** A writer whose lease predates a
//    promotion gets kFailedPrecondition("fenced"), and the rejected commit
//    leaves no trace in any log.
//  * **Surviving replicas converge to byte-identical logs.** After the
//    storm, followers whose machines still run end up byte-for-byte equal
//    to the new primary's durable prefix.
//
// Seed count: TREEDIFF_CHAOS_SEEDS (default 8; the CI store-replication
// job runs 64, the weekly run 256). Labeled `concurrency` + `chaos`, so
// the TSan job sweeps it too.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "store/replication.h"
#include "store/version_store.h"
#include "tree/builder.h"
#include "util/fault_env.h"
#include "util/metrics.h"

namespace treediff {
namespace {

constexpr int kReplicas = 3;
constexpr int kWriterCommits = 20;
constexpr int kReaderThreads = 2;
constexpr int kReaderIterations = 60;

/// On this seed the promoter retries its first Promote until it lands (a
/// follower may not hold any log bytes yet), and the writer stops before
/// commit kFencedCommit until it has. So at least one promotion lands while
/// the writer still holds its first lease, whatever the scheduling.
constexpr uint64_t kFencedSeed = 0;
constexpr int kFencedCommit = 3;

int SeedCount() {
  const char* env = std::getenv("TREEDIFF_CHAOS_SEEDS");
  if (env == nullptr) return 8;
  const int n = std::atoi(env);
  return n > 0 ? n : 8;
}

std::string DocText(int n) {
  std::string s = "(D";
  for (int p = 0; p <= n; ++p) {
    s += " (P (S \"storm" + std::to_string(p) + " para words here\"))";
  }
  s += ")";
  return s;
}

/// Follower media flake in seed-dependent ways; the primary's machine is
/// healthy until the promoter "kills" it (deposes it mid-traffic). Seed 0
/// is the fault-free control.
FaultPlan FollowerPlan(uint64_t seed, int replica) {
  FaultPlan plan;
  plan.seed = seed * 16 + static_cast<uint64_t>(replica);
  if (seed == 0) return plan;
  plan.torn_append_p = 0.03 * static_cast<double>(seed % 3);
  plan.transient_append_p = 0.02 * static_cast<double>((seed / 3) % 3);
  plan.transient_truncate_p = 0.02 * static_cast<double>(seed % 2);
  plan.op_delay_p = 0.05;
  plan.op_delay_seconds = 0.0002;
  return plan;
}

struct SweepTotals {
  uint64_t acked_verified = 0;
  uint64_t fenced_rejections = 0;
  uint64_t failovers = 0;
  uint64_t quorum_timeouts = 0;
  int seeds = 0;
};

void RunSeed(uint64_t seed, SweepTotals* totals) {
  SCOPED_TRACE("seed " + std::to_string(seed));

  MemEnv mems[kReplicas];
  std::vector<std::unique_ptr<FaultInjectingEnv>> envs;
  std::vector<ReplicaConfig> configs;
  for (int i = 0; i < kReplicas; ++i) {
    envs.push_back(std::make_unique<FaultInjectingEnv>(
        &mems[i], FollowerPlan(seed, i)));
    // Bootstrap quietly; the storm arms once the group is standing.
    envs.back()->DisableTransientFaults();
    configs.push_back({envs.back().get(),
                       "chaos" + std::to_string(i) + ".log"});
  }

  MetricsRegistry metrics;
  ReplicationOptions options;
  options.ack_mode = AckMode::kQuorum;
  options.ack_timeout_seconds = 0.25;
  options.poll_interval_seconds = 0.001;
  options.background_ship = true;
  options.metrics = &metrics;
  options.store_options.sleep = [](double) {};
  options.store_options.checkpoint_interval = 5;

  auto built = ReplicatedVersionStore::Create(configs, *ParseSexpr(DocText(0)),
                                              {}, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ReplicatedVersionStore* group = built->get();
  for (auto& env : envs) env->EnableTransientFaults();

  // acked[v] = the document the group quorum-acked as version v. Only the
  // writer thread mutates it; reads happen after joins.
  std::map<int, std::string> acked;
  acked[0] = DocText(0);
  std::atomic<uint64_t> fenced{0};
  std::atomic<bool> writer_done{false};
  std::atomic<bool> first_promotion_landed{false};

  // The writer holds its lease across commits — exactly the deposed-primary
  // pattern: a promotion mid-stream makes the next CommitWithLease bounce
  // off the fence, and the writer re-leases under the new epoch.
  std::thread writer([&] {
    CommitLease lease = group->lease();
    for (int n = 1; n <= kWriterCommits; ++n) {
      if (seed == kFencedSeed && n == kFencedCommit) {
        while (!first_promotion_landed.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      }
      const std::string doc = DocText(n);
      auto tree = ParseSexpr(doc, group->label_table());
      ASSERT_TRUE(tree.ok());
      for (int attempt = 0; attempt < 64; ++attempt) {
        auto committed = group->CommitWithLease(*tree, lease);
        if (committed.ok()) {
          acked[*committed] = doc;  // Quorum-acked: must survive anything.
          break;
        }
        const Status& status = committed.status();
        if (status.code() == Code::kFailedPrecondition &&
            status.ToString().find("fenced") != std::string::npos) {
          fenced.fetch_add(1, std::memory_order_relaxed);
          lease = group->lease();  // Learn the new epoch; retry this doc.
          continue;
        }
        if (status.code() == Code::kUnavailable) {
          // Quorum timeout: durable on the primary but NOT acked — the
          // contract allows a failover to drop it, so it is not recorded.
          // The version slot may be reused; move on to the next doc.
          break;
        }
        // Poisoned primary mid-kill: wait for the promoter to fail over.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        lease = group->lease();
      }
    }
    writer_done.store(true, std::memory_order_release);
  });

  // Readers hammer Materialize across the version range while the topology
  // changes under them (errors are fine; crashes and races are not).
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaderThreads; ++r) {
    readers.emplace_back([&, r] {
      uint64_t x = seed * 977 + static_cast<uint64_t>(r) + 1;
      for (int i = 0; i < kReaderIterations; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        group->primary()
            ->Materialize(static_cast<int>(x % (kWriterCommits + 1)))
            .status()
            .IgnoreError();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  // The promoter kills the primary mid-traffic: an explicit fenced
  // failover (most-caught-up follower wins, epoch bumps), then the deposed
  // machine rejoins as a follower. Twice, on seeds that promote.
  const int promotions = seed % 3 == 0 ? 1 : 2;
  std::thread promoter([&] {
    for (int k = 0; k < promotions; ++k) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(3 + 5 * k + static_cast<int>(seed % 7)));
      if (writer_done.load(std::memory_order_acquire)) break;
      const int old_primary = group->primary_index();
      auto promoted = group->Promote();
      for (int retry = 0; seed == kFencedSeed && k == 0 && !promoted.ok() &&
                          retry < 5000;
           ++retry) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        promoted = group->Promote();
      }
      first_promotion_landed.store(true, std::memory_order_release);
      if (promoted.ok()) {
        group->Rejoin(old_primary).IgnoreError();
      }
    }
    // Never leave the writer waiting, whatever ended the loop.
    first_promotion_landed.store(true, std::memory_order_release);
  });

  writer.join();
  promoter.join();
  for (std::thread& t : readers) t.join();

  // The storm is over: stop injecting, converge, and audit.
  for (auto& env : envs) env->DisableTransientFaults();
  for (int i = 0; i < 500; ++i) {
    group->PumpFollowers().IgnoreError();
    bool all = true;
    for (const ReplicaStatus& r : group->Replicas()) {
      if (r.role == ReplicaRole::kFollower && !r.caught_up) all = false;
    }
    if (all) break;
  }

  // Invariant 1: every quorum-acked commit materializes to what was acked,
  // no matter how many failovers happened in between.
  for (const auto& [version, doc] : acked) {
    auto tree = group->primary()->Materialize(version);
    ASSERT_TRUE(tree.ok()) << "acked version " << version << " lost: "
                           << tree.status().ToString();
    auto expected = ParseSexpr(doc, group->label_table());
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(Tree::Isomorphic(*tree, *expected))
        << "acked version " << version << " diverged";
    ++totals->acked_verified;
  }

  // Invariant 2: surviving caught-up replicas hold byte-identical logs —
  // each follower's file equals the primary's durable prefix exactly.
  const int primary_index = group->primary_index();
  auto primary_bytes =
      mems[primary_index].FileBytes(configs[static_cast<size_t>(primary_index)]
                                        .path);
  ASSERT_TRUE(primary_bytes.ok());
  for (const ReplicaStatus& r : group->Replicas()) {
    if (r.role != ReplicaRole::kFollower || !r.caught_up || r.cursor == 0) {
      continue;
    }
    auto follower_bytes =
        mems[r.index].FileBytes(configs[static_cast<size_t>(r.index)].path);
    ASSERT_TRUE(follower_bytes.ok());
    EXPECT_EQ(*follower_bytes, primary_bytes->substr(0, r.cursor))
        << "replica " << r.index << " diverged from the primary's log";
    EXPECT_EQ(follower_bytes->size(), r.cursor);
  }

  const ReplicationCounters counters = group->counters();
  totals->fenced_rejections += fenced.load(std::memory_order_relaxed);
  totals->failovers += counters.failovers;
  totals->quorum_timeouts += counters.quorum_timeouts;
  ++totals->seeds;

  // A promotion observed by the writer must have fenced at least its next
  // stale-lease commit — unless the writer finished before any promotion.
  if (counters.failovers > 0) {
    EXPECT_EQ(metrics.counter("replication_failovers_total")->Value(),
              counters.failovers);
  }
}

TEST(ReplicationChaosTest, KillAndPromoteMidCommitLosesNoAckedWrite) {
  SweepTotals totals;
  const int seeds = SeedCount();
  for (int seed = 0; seed < seeds; ++seed) {
    RunSeed(static_cast<uint64_t>(seed), &totals);
    if (::testing::Test::HasFatalFailure()) break;
  }
  EXPECT_EQ(totals.seeds, seeds);
  EXPECT_GT(totals.acked_verified, 0u);
  // Across the sweep, failovers actually happened and the fence actually
  // fired — the invariants above were tested against real storms, not a
  // quiet run.
  EXPECT_GT(totals.failovers, 0u);
  EXPECT_GT(totals.fenced_rejections, 0u);
  ::testing::Test::RecordProperty(
      "acked_verified", static_cast<int>(totals.acked_verified));
  ::testing::Test::RecordProperty(
      "fenced_rejections", static_cast<int>(totals.fenced_rejections));
  ::testing::Test::RecordProperty("failovers",
                                  static_cast<int>(totals.failovers));
}

}  // namespace
}  // namespace treediff
