// Chaos harness: a DiffService serving concurrent commit and diff traffic
// on top of a fault-injecting filesystem, swept across seeds. Each seed
// gets its own fault plan (transient append/sync faults, mid-run media
// death, a full disk, scheduling jitter); after the run the "machine"
// loses power (DropUnsynced) and the log is recovered in salvage mode.
//
// The invariant under test is the store's whole durability contract at
// once: **every commit the service acknowledged is materializable and
// byte-equivalent after crash recovery**, no matter which faults fired or
// how the threads interleaved. A second drill on some seeds flips a byte
// in the cold log (before the last checkpoint) and checks that salvage
// bounds the damage: versions are either intact or reported lost with
// kDataLoss — never silently wrong.
//
// Seed count: TREEDIFF_CHAOS_SEEDS (default 10; CI runs 64, the scheduled
// job 256). Labeled `concurrency` and `chaos`, so the TSan job runs it.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/diff_service.h"
#include "store/log.h"
#include "store/replication.h"
#include "store/version_store.h"
#include "tree/builder.h"
#include "util/fault_env.h"

namespace treediff {
namespace {

constexpr int kWriterCommits = 24;
constexpr int kReaderThreads = 2;
constexpr int kReaderIterations = 40;

int SeedCount() {
  const char* env = std::getenv("TREEDIFF_CHAOS_SEEDS");
  if (env == nullptr) return 10;
  const int n = std::atoi(env);
  return n > 0 ? n : 10;
}

std::string DocText(int v) {
  std::string s = "(D";
  for (int p = 0; p <= v; ++p) {
    s += " (P (S \"chaos" + std::to_string(p) + " para words here\"))";
  }
  s += ")";
  return s;
}

/// Seed 0 is the fault-free control; every other seed mixes transient
/// faults with (on some seeds) a terminal one. crash_at_byte is kept above
/// the store-creation footprint so every seed at least starts serving.
FaultPlan PlanForSeed(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  if (seed == 0) return plan;
  plan.transient_append_p = 0.02 * static_cast<double>(seed % 4);
  plan.transient_sync_p = 0.015 * static_cast<double>((seed / 4) % 3);
  plan.op_delay_p = 0.05;
  plan.op_delay_seconds = 0.0002;
  if (seed % 5 == 2) {
    plan.crash_at_byte = 4000 + 700 * (seed % 7);
  }
  if (seed % 7 == 3) {
    plan.disk_capacity_bytes = 8000 + 500 * (seed % 11);
  }
  return plan;
}

StoreOptions ChaosStoreOptions(Env* env) {
  StoreOptions store_options;
  store_options.env = env;
  store_options.checkpoint_interval = 4;
  store_options.sleep = [](double) {};
  return store_options;
}

struct SweepTotals {
  uint64_t acked_verified = 0;
  uint64_t transient_faults = 0;
  uint64_t rotations = 0;
  int seeds_served = 0;
  int corruption_drills = 0;
};

void RunSeed(uint64_t seed, SweepTotals* totals) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  MemEnv mem;
  FaultInjectingEnv env(&mem, PlanForSeed(seed));

  ReplicationOptions group_options;
  group_options.store_options = ChaosStoreOptions(&env);
  StatusOr<std::unique_ptr<ReplicatedVersionStore>> built =
      Status::Internal("never tried");
  for (int i = 0; i < 64 && !built.ok(); ++i) {
    built = ReplicatedVersionStore::Create({ReplicaConfig{&env, "c.log"}},
                                           *ParseSexpr(DocText(0)), {},
                                           group_options);
  }
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::shared_ptr<ReplicatedVersionStore> group = std::move(*built);

  // Acked (version, DocText index) pairs, shared between the writer
  // (appends) and the readers (sample endpoints for VDIFFs). A failed
  // commit is not re-run, so the next document takes its version number.
  std::mutex acked_mu;
  std::vector<std::pair<int, int>> acked{{0, 0}};
  uint64_t rotations_seen = 0;

  {
    DiffServiceOptions options;
    options.num_threads = 3;
    options.sleep = [](double) {};
    options.breaker_failure_threshold = 3;
    options.breaker_cooldown_seconds = 0.002;
    DiffService service(options);
    ASSERT_TRUE(service.AttachStore("doc", group).ok());

    std::thread writer([&] {
      for (int v = 1; v <= kWriterCommits; ++v) {
        StatusOr<int> version = service.CommitVersion("doc", DocText(v));
        if (version.ok()) {
          std::lock_guard<std::mutex> lock(acked_mu);
          acked.emplace_back(*version, v);
        }
        // Failures are expected on crashed / full-disk seeds; the writer
        // keeps submitting — the service must stay responsive either way.
      }
    });
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaderThreads; ++r) {
      readers.emplace_back([&, r] {
        std::mt19937 rng(static_cast<uint32_t>(seed * 131 + r));
        for (int i = 0; i < kReaderIterations; ++i) {
          std::pair<int, int> from, to;  // (version, DocText index)
          {
            std::lock_guard<std::mutex> lock(acked_mu);
            from = acked[rng() % acked.size()];
            to = acked[rng() % acked.size()];
          }
          DiffRequest request;
          request.doc_id = "doc";
          request.from_version = from.first;
          request.to_version = to.first;
          DiffResponse response = service.SubmitSync(std::move(request));
          // kUnavailable (quarantine), kFailedPrecondition and friends are
          // legitimate on faulty seeds; a served diff, whether from the
          // pipeline, the diff cache or the commit log, must be empty
          // exactly when both versions hold the same document.
          if (response.status.ok()) {
            EXPECT_EQ(response.operations == 0, from.second == to.second)
                << "v" << from.first << " -> v" << to.first << ": "
                << response.operations << " ops";
          }
        }
      });
    }
    writer.join();
    for (std::thread& t : readers) t.join();
    service.Shutdown();
  }
  rotations_seen = group->primary()->fault_counters().rotations;
  group.reset();  // Close the writer handle.

  // Power loss: everything that was never fsync'd is gone.
  mem.DropUnsynced();

  // Recover on the bare medium (no more fault injection) in salvage mode.
  StoreOptions reopen_options = ChaosStoreOptions(&mem);
  reopen_options.recovery = RecoveryMode::kSalvage;
  RecoveryReport report;
  auto reopened = VersionStore::Open("c.log", {}, reopen_options, &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString() << "\n"
                             << report.ToString();

  // THE invariant: every acked commit survived, exactly.
  std::vector<std::pair<int, int>> acked_copy;
  {
    std::lock_guard<std::mutex> lock(acked_mu);
    acked_copy = acked;
  }
  for (const auto& [v, doc] : acked_copy) {
    ASSERT_LT(v, reopened->VersionCount())
        << "acked version " << v << " missing after recovery: "
        << report.ToString();
    auto tree = reopened->Materialize(v);
    ASSERT_TRUE(tree.ok()) << "acked version " << v << ": "
                           << tree.status().ToString() << "\n"
                           << report.ToString();
    auto expected = ParseSexpr(DocText(doc), reopened->label_table());
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(Tree::Isomorphic(*tree, *expected))
        << "acked version " << v << " corrupted by recovery";
    ++totals->acked_verified;
  }

  totals->transient_faults += env.transient_faults();
  totals->rotations += rotations_seen;
  ++totals->seeds_served;

  // Corruption drill on a third of the seeds: flip a payload byte in a
  // delta that precedes the last checkpoint, then salvage again. Damage
  // must be bounded (suffix re-anchored on the checkpoint) and honest
  // (holes fail with kDataLoss/kUnavailable; surviving versions exact).
  if (seed % 3 != 0 || acked_copy.size() < 6) return;
  reopened = Status::Internal("released");  // Close before corrupting.
  auto file = mem.NewRandomAccessFile("c.log");
  ASSERT_TRUE(file.ok());
  auto scan = ScanLog(file->get());
  ASSERT_TRUE(scan.ok());
  int last_checkpoint = -1;
  int victim_delta = -1;
  for (size_t i = 0; i < scan->records.size(); ++i) {
    if (scan->records[i].type == LogRecordType::kCheckpoint) {
      last_checkpoint = static_cast<int>(i);
    }
  }
  for (int i = 1; i < last_checkpoint; ++i) {
    if (scan->records[static_cast<size_t>(i)].type == LogRecordType::kDelta) {
      victim_delta = i;  // Keep the last qualifying delta.
    }
  }
  if (last_checkpoint < 0 || victim_delta < 0) return;
  const auto& victim = scan->records[static_cast<size_t>(victim_delta)];
  ASSERT_TRUE(mem.CorruptByte("c.log",
                              victim.offset + kLogRecordHeaderSize + 1, 0x40)
                  .ok());

  RecoveryReport drill;
  auto salvaged = VersionStore::Open("c.log", {}, reopen_options, &drill);
  ASSERT_TRUE(salvaged.ok()) << salvaged.status().ToString();
  EXPECT_TRUE(drill.rotated) << drill.ToString();
  EXPECT_GE(drill.checksum_failures, 1u) << drill.ToString();
  int intact = 0;
  for (const auto& [v, doc] : acked_copy) {
    ASSERT_LT(v, salvaged->VersionCount()) << drill.ToString();
    auto tree = salvaged->Materialize(v);
    if (!tree.ok()) {
      EXPECT_TRUE(tree.status().code() == Code::kDataLoss ||
                  tree.status().code() == Code::kUnavailable)
          << tree.status().ToString();
      continue;
    }
    auto expected = ParseSexpr(DocText(doc), salvaged->label_table());
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(Tree::Isomorphic(*tree, *expected))
        << "version " << v << " silently corrupted by salvage";
    ++intact;
  }
  // The checkpoint re-anchored the suffix: the newest acked version (which
  // is at or after the last checkpoint) must have survived the drill.
  auto newest = salvaged->Materialize(acked_copy.back().first);
  EXPECT_TRUE(newest.ok()) << "newest acked version lost: "
                           << newest.status().ToString() << "\n"
                           << drill.ToString();
  EXPECT_GT(intact, 0);
  ++totals->corruption_drills;
}

TEST(ChaosServiceTest, AckedCommitsSurviveEverySeed) {
  const int seeds = SeedCount();
  SweepTotals totals;
  for (int seed = 0; seed < seeds; ++seed) {
    RunSeed(static_cast<uint64_t>(seed), &totals);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The sweep must have actually exercised the machinery, not just passed
  // vacuously.
  EXPECT_EQ(totals.seeds_served, seeds);
  EXPECT_GT(totals.acked_verified, 0u);
  if (seeds >= 4) {
    EXPECT_GT(totals.transient_faults, 0u)
        << "no transient fault ever fired; plan probabilities too low?";
    EXPECT_GT(totals.corruption_drills, 0);
  }
}

}  // namespace
}  // namespace treediff
