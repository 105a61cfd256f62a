#include "store/version_store.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gen/doc_gen.h"
#include "gen/edit_sim.h"
#include "tree/builder.h"
#include "util/budget.h"
#include "util/fault_env.h"

namespace treediff {
namespace {

TEST(VersionStoreTest, BaseOnlyStore) {
  auto labels = std::make_shared<LabelTable>();
  Tree base = *ParseSexpr("(D (S \"v0\"))", labels);
  VersionStore store(base.Clone());
  EXPECT_EQ(store.VersionCount(), 1);
  auto v0 = store.Materialize(0);
  ASSERT_TRUE(v0.ok());
  EXPECT_TRUE(Tree::Isomorphic(*v0, base));
}

TEST(VersionStoreTest, CommitAndMaterializeChain) {
  auto labels = std::make_shared<LabelTable>();
  Tree v0 = *ParseSexpr("(D (P (S \"one two three\")))", labels);
  Tree v1 = *ParseSexpr(
      "(D (P (S \"one two three\") (S \"four five six\")))", labels);
  Tree v2 = *ParseSexpr(
      "(D (P (S \"one two seven\") (S \"four five six\")))", labels);

  VersionStore store(v0.Clone());
  auto r1 = store.Commit(v1);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(*r1, 1);
  auto r2 = store.Commit(v2);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, 2);
  EXPECT_EQ(store.VersionCount(), 3);

  for (int v = 0; v < 3; ++v) {
    auto tree = store.Materialize(v);
    ASSERT_TRUE(tree.ok()) << "version " << v;
    const Tree& expected = v == 0 ? v0 : (v == 1 ? v1 : v2);
    EXPECT_TRUE(Tree::Isomorphic(*tree, expected)) << "version " << v;
  }
}

TEST(VersionStoreTest, InfoTracksPerVersionChanges) {
  auto labels = std::make_shared<LabelTable>();
  // The paragraph keeps 2/3 of its sentences, so it stays matched and the
  // delta is exactly one sentence delete.
  Tree v0 = *ParseSexpr(
      "(D (P (S \"aa bb cc\") (S \"dd ee ff\") (S \"gg hh ii\")))",
      labels);
  Tree v1 = *ParseSexpr(
      "(D (P (S \"aa bb cc\") (S \"gg hh ii\")))", labels);
  VersionStore store(v0.Clone());
  ASSERT_TRUE(store.Commit(v1).ok());
  EXPECT_EQ(store.Info(1).deletes, 1u);
  EXPECT_EQ(store.Info(1).inserts, 0u);
  EXPECT_EQ(store.Info(1).nodes, 4u);
  // The base has no delta, only a size.
  EXPECT_EQ(store.Info(0).nodes, 5u);
  EXPECT_EQ(store.Info(0).deletes, 0u);
  ASSERT_NE(store.DeltaFor(1), nullptr);
  EXPECT_EQ(store.DeltaFor(1)->num_deletes(), 1u);
}

TEST(VersionStoreTest, DeltaForBoundsChecked) {
  auto labels = std::make_shared<LabelTable>();
  Tree v0 = *ParseSexpr("(D (S \"a b\"))", labels);
  Tree v1 = *ParseSexpr("(D (S \"a c\"))", labels);
  VersionStore store(v0.Clone());
  // Version 0 is the base: it has no delta, and neither do versions that
  // do not exist.
  EXPECT_EQ(store.DeltaFor(0), nullptr);
  EXPECT_EQ(store.DeltaFor(1), nullptr);
  EXPECT_EQ(store.DeltaFor(-1), nullptr);
  ASSERT_TRUE(store.Commit(v1).ok());
  ASSERT_NE(store.DeltaFor(1), nullptr);
  EXPECT_EQ(store.DeltaFor(2), nullptr);
  EXPECT_EQ(store.DeltaFor(-1000000), nullptr);
}

TEST(VersionStoreTest, RejectsForeignLabelTable) {
  Tree base = *ParseSexpr("(D (S \"x\"))");
  Tree foreign = *ParseSexpr("(D (S \"x\"))");  // Own table.
  VersionStore store(base.Clone());
  EXPECT_EQ(store.Commit(foreign).status().code(), Code::kInvalidArgument);
}

TEST(VersionStoreTest, MaterializeRangeChecks) {
  Tree base = *ParseSexpr("(D (S \"x\"))");
  VersionStore store(base.Clone());
  EXPECT_EQ(store.Materialize(-1).status().code(), Code::kOutOfRange);
  EXPECT_EQ(store.Materialize(1).status().code(), Code::kOutOfRange);
}

TEST(VersionStoreTest, LongChainOnSimulatedHistory) {
  auto labels = std::make_shared<LabelTable>();
  Vocabulary vocab(500, 1.0);
  Rng rng(91);
  DocGenParams params;
  params.sections = 4;
  Tree current = GenerateDocument(params, vocab, &rng, labels);
  VersionStore store(current.Clone());

  std::vector<Tree> snapshots;
  snapshots.push_back(current.Clone());
  for (int epoch = 0; epoch < 8; ++epoch) {
    SimulatedVersion next = SimulateNewVersion(current, 6, {}, vocab, &rng);
    auto v = store.Commit(next.new_tree);
    ASSERT_TRUE(v.ok()) << "epoch " << epoch << ": "
                        << v.status().ToString();
    snapshots.push_back(next.new_tree.Clone());
    current = std::move(next.new_tree);
  }
  ASSERT_EQ(store.VersionCount(), 9);

  // Every historical version materializes exactly.
  for (int v = 0; v < store.VersionCount(); ++v) {
    auto tree = store.Materialize(v);
    ASSERT_TRUE(tree.ok()) << "version " << v;
    EXPECT_TRUE(Tree::Isomorphic(*tree, snapshots[static_cast<size_t>(v)]))
        << "version " << v;
  }
}

TEST(VersionStoreTest, DeltasCompressAgainstFullCopies) {
  auto labels = std::make_shared<LabelTable>();
  Vocabulary vocab(500, 1.0);
  Rng rng(92);
  DocGenParams params;
  params.sections = 6;
  Tree current = GenerateDocument(params, vocab, &rng, labels);
  VersionStore store(current.Clone());
  for (int epoch = 0; epoch < 5; ++epoch) {
    SimulatedVersion next = SimulateNewVersion(current, 4, {}, vocab, &rng);
    ASSERT_TRUE(store.Commit(next.new_tree).ok());
    current = std::move(next.new_tree);
  }
  VersionStore::StorageStats stats = store.Storage();
  EXPECT_GT(stats.delta_bytes, 0u);
  // Small deltas on a large document: scripts must be far smaller than
  // storing every version in full.
  EXPECT_GT(stats.CompressionRatio(), 5.0);
}

TEST(VersionStoreTest, DebugStringSizeMatchesTheRenderedSnapshot) {
  // full_size is counted, not rendered; the count must equal the rendered
  // byte length for every value the renderer passes through verbatim.
  auto labels = std::make_shared<LabelTable>();
  Tree odd(labels);
  const NodeId root = odd.AddRoot("D");
  const NodeId p = odd.AddChild(root, "P", "");
  odd.AddChild(p, "S", "he said \"hi\" twice");
  odd.AddChild(p, "S", "back\\slash \\\" and \\n escapes");
  odd.AddChild(p, "S", "na\xc3\xafve \xe2\x80\x94 \xe6\x97\xa5\xe6\x9c\xac");
  odd.AddChild(root, "list-item", "(parens) and spaces ");
  EXPECT_EQ(odd.DebugStringSize(), odd.ToDebugString().size());
  const Tree empty(labels);
  EXPECT_EQ(empty.DebugStringSize(), empty.ToDebugString().size());

  // Generated documents, and the same documents after edits left dead
  // slots and moved subtrees behind.
  Vocabulary vocab(500, 1.0);
  Rng rng(97);
  DocGenParams params;
  params.sections = 5;
  params.duplicate_sentence_probability = 0.2;
  Tree current = GenerateDocument(params, vocab, &rng, labels);
  MemEnv env;
  StoreOptions store_options;
  store_options.env = &env;
  size_t full_bytes = 0;
  {
    auto store = VersionStore::Create("sizes.log", current.Clone(), {},
                                      store_options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (int v = 1; v <= 6; ++v) {
      EXPECT_EQ(current.DebugStringSize(), current.ToDebugString().size());
      current = SimulateNewVersion(current, 5, {}, vocab, &rng).new_tree;
      full_bytes += current.ToDebugString().size();
      ASSERT_TRUE(store->Commit(current).ok());
      auto replayed = store->Materialize(v);
      ASSERT_TRUE(replayed.ok());
      EXPECT_EQ(replayed->DebugStringSize(),
                replayed->ToDebugString().size());
    }
    EXPECT_EQ(store->Storage().full_copy_bytes, full_bytes);
  }
  // The same figure comes back from the delta records' full_size fields.
  auto reopened = VersionStore::Open("sizes.log", {}, store_options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->Storage().full_copy_bytes, full_bytes);
}

/// Commits `versions` one-edit successors of a small document; returns the
/// snapshots (snapshots[v] is version v).
std::vector<Tree> CommitSmallChain(VersionStore* store, Tree base,
                                   int versions, uint64_t seed) {
  Vocabulary vocab(300, 1.0);
  Rng rng(seed);
  std::vector<Tree> snapshots;
  snapshots.push_back(std::move(base));
  for (int v = 1; v <= versions; ++v) {
    snapshots.push_back(
        SimulateNewVersion(snapshots.back(), 1, {}, vocab, &rng).new_tree);
    EXPECT_TRUE(store->Commit(snapshots.back()).ok()) << "v" << v;
  }
  return snapshots;
}

Tree SmallDoc(const std::shared_ptr<LabelTable>& labels, uint64_t seed) {
  Vocabulary vocab(300, 1.0);
  Rng rng(seed);
  DocGenParams params;
  params.sections = 2;
  return GenerateDocument(params, vocab, &rng, labels);
}

/// A durable in-memory store whose metrics mirror counts replayed deltas.
struct CountedStore {
  MemEnv env;
  MetricsRegistry metrics;
  std::optional<VersionStore> store;

  explicit CountedStore(Tree base) {
    StoreOptions store_options;
    store_options.env = &env;
    store_options.metrics = &metrics;
    auto created =
        VersionStore::Create("doc.log", std::move(base), {}, store_options);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    store.emplace(std::move(*created));
  }

  /// Deltas the store applies to materialize version `v`.
  uint64_t ReplayLength(int v) {
    Counter* replayed = metrics.counter("store_deltas_replayed_total");
    const uint64_t before = replayed->Value();
    EXPECT_TRUE(store->Materialize(v).ok()) << "v" << v;
    return replayed->Value() - before;
  }
};

TEST(VersionStoreTest, MaterializeReplaysAtMostOneInterval) {
  // Anchors every checkpoint_interval (16) versions, made by the reads that
  // pass them: after one read of the head, the replay behind a read is as
  // long at v=160 as at v=16.
  auto labels = std::make_shared<LabelTable>();
  CountedStore counted(SmallDoc(labels, 98));
  const std::vector<Tree> snapshots = CommitSmallChain(
      &*counted.store, counted.store->Materialize(0).value(), 160, 99);
  EXPECT_EQ(counted.ReplayLength(160), 160u);  // No anchor yet.
  for (int v : {16, 160}) {
    EXPECT_EQ(counted.ReplayLength(v), 0u) << "v" << v;
    EXPECT_EQ(counted.ReplayLength(v - 1), 15u) << "v" << v - 1;
  }
  for (int v = 0; v <= 160; ++v) {
    EXPECT_LT(counted.ReplayLength(v), 16u) << "v" << v;
    auto tree = counted.store->Materialize(v);
    ASSERT_TRUE(tree.ok());
    EXPECT_TRUE(Tree::Isomorphic(*tree, snapshots[static_cast<size_t>(v)]))
        << "v" << v;
  }
}

TEST(VersionStoreTest, RollbackDropsTheAnchorAboveTheNewHead) {
  auto labels = std::make_shared<LabelTable>();
  CountedStore counted(SmallDoc(labels, 102));
  VersionStore& store = *counted.store;
  const std::vector<Tree> snapshots =
      CommitSmallChain(&store, store.Materialize(0).value(), 16, 103);
  EXPECT_EQ(counted.ReplayLength(16), 16u);
  EXPECT_EQ(counted.ReplayLength(16), 0u);  // v16 is now an anchor.
  ASSERT_TRUE(store.RollbackHead().ok());
  ASSERT_EQ(store.VersionCount(), 16);

  // A different v16 replaces the rolled-back one; the old anchor is gone,
  // so the first read of the new v16 replays from the base.
  Vocabulary vocab(300, 1.0);
  Rng rng(104);
  Tree other =
      SimulateNewVersion(snapshots[15], 3, {}, vocab, &rng).new_tree;
  ASSERT_TRUE(store.Commit(other).ok());
  EXPECT_EQ(counted.ReplayLength(16), 16u);
  auto v16 = store.Materialize(16);
  ASSERT_TRUE(v16.ok());
  EXPECT_TRUE(Tree::Isomorphic(*v16, other));
  EXPECT_EQ(counted.ReplayLength(15), 15u);
  auto v15 = store.Materialize(15);
  ASSERT_TRUE(v15.ok());
  EXPECT_TRUE(Tree::Isomorphic(*v15, snapshots[15]));
}

TEST(VersionStoreTest, RollbackHeadRestoresPreviousVersion) {
  auto labels = std::make_shared<LabelTable>();
  Tree v0 = *ParseSexpr("(D (P (S \"one two three\") (S \"four five\")))",
                        labels);
  Tree v1 = *ParseSexpr(
      "(D (P (S \"one two three\") (S \"four five\") (S \"six seven\")))",
      labels);
  Tree v2 = *ParseSexpr(
      "(D (P (S \"one two eight\") (S \"four five\") (S \"six seven\")))",
      labels);
  VersionStore store(v0.Clone());
  ASSERT_TRUE(store.Commit(v1).ok());
  ASSERT_TRUE(store.Commit(v2).ok());

  auto rolled = store.RollbackHead();
  ASSERT_TRUE(rolled.ok()) << rolled.status().ToString();
  EXPECT_EQ(*rolled, 1);
  EXPECT_EQ(store.VersionCount(), 2);
  auto head = store.Materialize(1);
  ASSERT_TRUE(head.ok());
  EXPECT_TRUE(Tree::Isomorphic(*head, v1));

  // A new commit after rollback continues the chain cleanly.
  ASSERT_TRUE(store.Commit(v2).ok());
  auto head2 = store.Materialize(2);
  ASSERT_TRUE(head2.ok());
  EXPECT_TRUE(Tree::Isomorphic(*head2, v2));
}

TEST(VersionStoreTest, RollbackToBaseAndBeyondFails) {
  auto labels = std::make_shared<LabelTable>();
  Tree v0 = *ParseSexpr("(D (S \"x y z\"))", labels);
  Tree v1 = *ParseSexpr("(D (S \"x y w\"))", labels);
  VersionStore store(v0.Clone());
  ASSERT_TRUE(store.Commit(v1).ok());
  ASSERT_TRUE(store.RollbackHead().ok());
  auto head = store.Materialize(0);
  ASSERT_TRUE(head.ok());
  EXPECT_TRUE(Tree::Isomorphic(*head, v0));
  EXPECT_EQ(store.RollbackHead().status().code(),
            Code::kFailedPrecondition);
}

TEST(VersionStoreTest, RollbackThroughSimulatedHistory) {
  auto labels = std::make_shared<LabelTable>();
  Vocabulary vocab(400, 1.0);
  Rng rng(93);
  DocGenParams params;
  params.sections = 3;
  Tree current = GenerateDocument(params, vocab, &rng, labels);
  Tree original = current.Clone();
  VersionStore store(current.Clone());
  for (int round = 0; round < 6; ++round) {
    SimulatedVersion next = SimulateNewVersion(current, 5, {}, vocab, &rng);
    ASSERT_TRUE(store.Commit(next.new_tree).ok());
    current = std::move(next.new_tree);
  }
  // Roll all the way back.
  while (store.VersionCount() > 1) {
    ASSERT_TRUE(store.RollbackHead().ok());
  }
  auto head = store.Materialize(0);
  ASSERT_TRUE(head.ok());
  EXPECT_TRUE(Tree::Isomorphic(*head, original));
}

// ---------------------------------------------------------------------------
// Budget interaction: a degraded diff must still commit a consistent
// version, and no failure path may leave a half-committed head.

TEST(VersionStoreTest, CommitUnderExhaustedBudgetDegradesConsistently) {
  auto labels = std::make_shared<LabelTable>();
  Vocabulary vocab(300, 1.0);
  Rng rng(95);
  DocGenParams params;
  params.sections = 2;
  Tree current = GenerateDocument(params, vocab, &rng, labels);

  Budget budget;
  budget.set_node_cap(1);  // Trips immediately: every rung above the floor
                           // exhausts, so commits land on a degraded rung.
  DiffOptions options;
  options.budget = &budget;
  VersionStore store(current.Clone(), options);

  std::vector<Tree> snapshots;
  snapshots.push_back(current.Clone());
  for (int round = 0; round < 3; ++round) {
    SimulatedVersion next = SimulateNewVersion(current, 4, {}, vocab, &rng);
    auto v = store.Commit(next.new_tree);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_EQ(*v, round + 1);
    snapshots.push_back(next.new_tree.Clone());
    current = std::move(next.new_tree);
  }
  // Degraded or not, every committed version must materialize exactly.
  for (int v = 0; v < store.VersionCount(); ++v) {
    auto tree = store.Materialize(v);
    ASSERT_TRUE(tree.ok()) << "version " << v;
    EXPECT_TRUE(Tree::Isomorphic(*tree, snapshots[static_cast<size_t>(v)]))
        << "version " << v;
  }
}

TEST(VersionStoreTest, RollbackHeadUnderExhaustedBudget) {
  auto labels = std::make_shared<LabelTable>();
  Tree v0 = *ParseSexpr("(D (P (S \"one two\") (S \"three four\")))", labels);
  Tree v1 = *ParseSexpr(
      "(D (P (S \"one two\") (S \"three four\") (S \"five six\")))", labels);
  Budget budget;
  DiffOptions options;
  options.budget = &budget;
  VersionStore store(v0.Clone(), options);
  ASSERT_TRUE(store.Commit(v1).ok());
  // Exhaust the budget after the commit: rollback must not be affected (it
  // replays stored scripts, it does not diff) and must leave a consistent
  // store.
  budget.set_node_cap(1);
  ASSERT_FALSE(budget.ChargeNodes(2));
  auto rolled = store.RollbackHead();
  ASSERT_TRUE(rolled.ok()) << rolled.status().ToString();
  EXPECT_EQ(store.VersionCount(), 1);
  auto head = store.Materialize(0);
  ASSERT_TRUE(head.ok());
  EXPECT_TRUE(Tree::Isomorphic(*head, v0));
}

TEST(VersionStoreTest, FailedCommitLeavesStoreUnchanged) {
  auto labels = std::make_shared<LabelTable>();
  Tree v0 = *ParseSexpr("(D (S \"a b c\"))", labels);
  Tree v1 = *ParseSexpr("(D (S \"a b d\"))", labels);
  Tree v2 = *ParseSexpr("(D (S \"a e d\"))", labels);

  MemEnv mem;
  FaultPlan plan;
  plan.fail_sync_at = 3;  // #1 = Create, #2 = commit v1, #3 = commit v2.
  FaultInjectingEnv env(&mem, plan);
  StoreOptions store_options;
  store_options.env = &env;

  auto store = VersionStore::Create("store.log", v0.Clone(), {}, store_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE(store->Commit(v1).ok());

  auto failed = store->Commit(v2);
  ASSERT_FALSE(failed.ok());
  // No half-committed head: the store still serves exactly v0..v1.
  EXPECT_EQ(store->VersionCount(), 2);
  auto head = store->Materialize(1);
  ASSERT_TRUE(head.ok());
  EXPECT_TRUE(Tree::Isomorphic(*head, v1));
  // Poisoned: mutations fail fast until the store is reopened.
  EXPECT_FALSE(store->io_status().ok());
  EXPECT_EQ(store->Commit(v2).status().code(), Code::kFailedPrecondition);
  EXPECT_EQ(store->RollbackHead().status().code(), Code::kFailedPrecondition);

  // Reopening recovers every acknowledged commit.
  env.ClearFault();
  mem.DropUnsynced();
  RecoveryReport report;
  auto reopened = VersionStore::Open("store.log", {}, store_options, &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->VersionCount(), 2);
  auto recovered = reopened->Materialize(1);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(Tree::Isomorphic(*recovered, v1));
  // Open recovers into a fresh label table; new commits must use it.
  Tree v2r = *ParseSexpr("(D (S \"a e d\"))", reopened->label_table());
  ASSERT_TRUE(reopened->Commit(v2r).ok());
  EXPECT_EQ(reopened->VersionCount(), 3);
}

TEST(VersionStoreTest, FailedRollbackLeavesStoreUnchanged) {
  auto labels = std::make_shared<LabelTable>();
  Tree v0 = *ParseSexpr("(D (S \"a b c\"))", labels);
  Tree v1 = *ParseSexpr("(D (S \"a b d\"))", labels);

  MemEnv mem;
  FaultPlan plan;
  plan.fail_sync_at = 3;  // #1 = Create, #2 = commit v1, #3 = rollback.
  FaultInjectingEnv env(&mem, plan);
  StoreOptions store_options;
  store_options.env = &env;

  auto store = VersionStore::Create("store.log", v0.Clone(), {}, store_options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Commit(v1).ok());

  auto rolled = store->RollbackHead();
  ASSERT_FALSE(rolled.ok());
  EXPECT_EQ(store->VersionCount(), 2);
  auto head = store->Materialize(1);
  ASSERT_TRUE(head.ok());
  EXPECT_TRUE(Tree::Isomorphic(*head, v1));  // The head was not rolled back.
}

// ---------------------------------------------------------------------------
// Durable mode: create / commit / reopen round trips.

TEST(VersionStoreTest, DurableRoundTripOnMemEnv) {
  auto labels = std::make_shared<LabelTable>();
  Vocabulary vocab(400, 1.0);
  Rng rng(96);
  DocGenParams params;
  params.sections = 3;
  Tree current = GenerateDocument(params, vocab, &rng, labels);

  MemEnv env;
  StoreOptions store_options;
  store_options.env = &env;
  store_options.checkpoint_interval = 2;

  std::vector<Tree> snapshots;
  snapshots.push_back(current.Clone());
  {
    auto store = VersionStore::Create("doc.log", current.Clone(), {},
                                      store_options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (int round = 0; round < 5; ++round) {
      SimulatedVersion next = SimulateNewVersion(current, 4, {}, vocab, &rng);
      ASSERT_TRUE(store->Commit(next.new_tree).ok());
      snapshots.push_back(next.new_tree.Clone());
      current = std::move(next.new_tree);
    }
  }  // Store dropped: only the log survives, as after a clean shutdown.

  RecoveryReport report;
  auto reopened = VersionStore::Open("doc.log", {}, store_options, &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_EQ(report.versions_recovered, 6u);
  // 5 commits with a checkpoint every 2: checkpoints at v2 and v4, so the
  // head is rebuilt from v4 plus one delta.
  EXPECT_EQ(report.checkpoint_version, 4);
  EXPECT_EQ(report.deltas_replayed, 1u);

  ASSERT_EQ(reopened->VersionCount(), 6);
  for (int v = 0; v < reopened->VersionCount(); ++v) {
    auto tree = reopened->Materialize(v);
    ASSERT_TRUE(tree.ok()) << "version " << v;
    EXPECT_TRUE(Tree::Isomorphic(*tree, snapshots[static_cast<size_t>(v)]))
        << "version " << v;
  }
  // Info survives recovery (from the delta record headers).
  for (int v = 1; v < reopened->VersionCount(); ++v) {
    EXPECT_EQ(reopened->Info(v).nodes,
              snapshots[static_cast<size_t>(v)].size());
  }

  // The reopened store keeps working: commit and rollback continue the log.
  // New versions must evolve from a tree on the recovered label table, so
  // start from the materialized head rather than the pre-crash snapshot.
  Tree recovered_head = *reopened->Materialize(5);
  SimulatedVersion next =
      SimulateNewVersion(recovered_head, 3, {}, vocab, &rng);
  ASSERT_TRUE(reopened->Commit(next.new_tree).ok());
  ASSERT_TRUE(reopened->RollbackHead().ok());
  auto head = reopened->Materialize(5);
  ASSERT_TRUE(head.ok());
  EXPECT_TRUE(Tree::Isomorphic(*head, snapshots[5]));
}

TEST(VersionStoreTest, DurableRollbackSurvivesReopen) {
  auto labels = std::make_shared<LabelTable>();
  Tree v0 = *ParseSexpr("(D (S \"one two\"))", labels);
  Tree v1 = *ParseSexpr("(D (S \"one three\"))", labels);
  Tree v2 = *ParseSexpr("(D (S \"four three\"))", labels);

  MemEnv env;
  StoreOptions store_options;
  store_options.env = &env;
  auto store = VersionStore::Create("s.log", v0.Clone(), {}, store_options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Commit(v1).ok());
  ASSERT_TRUE(store->Commit(v2).ok());
  ASSERT_TRUE(store->RollbackHead().ok());

  auto reopened = VersionStore::Open("s.log", {}, store_options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->VersionCount(), 2);
  auto head = reopened->Materialize(1);
  ASSERT_TRUE(head.ok());
  EXPECT_TRUE(Tree::Isomorphic(*head, v1));
}

TEST(VersionStoreTest, CreateRefusesExistingPath) {
  MemEnv env;
  StoreOptions store_options;
  store_options.env = &env;
  Tree base = *ParseSexpr("(D (S \"x\"))");
  ASSERT_TRUE(
      VersionStore::Create("dup.log", base.Clone(), {}, store_options).ok());
  EXPECT_EQ(
      VersionStore::Create("dup.log", base.Clone(), {}, store_options)
          .status()
          .code(),
      Code::kFailedPrecondition);
}

TEST(VersionStoreTest, DurableRoundTripOnPosixEnv) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "treediff_version_store_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "store.log").string();

  auto labels = std::make_shared<LabelTable>();
  Tree v0 = *ParseSexpr("(D (P (S \"alpha beta\") (S \"gamma delta\")))",
                        labels);
  Tree v1 = *ParseSexpr(
      "(D (P (S \"alpha beta\") (S \"gamma epsilon\")))", labels);
  {
    auto store = VersionStore::Create(path, v0.Clone());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE(store->Commit(v1).ok());
  }
  RecoveryReport report;
  auto reopened = VersionStore::Open(path, {}, {}, &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(report.clean()) << report.ToString();
  ASSERT_EQ(reopened->VersionCount(), 2);
  auto head = reopened->Materialize(1);
  ASSERT_TRUE(head.ok());
  EXPECT_TRUE(Tree::Isomorphic(*head, v1));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace treediff
