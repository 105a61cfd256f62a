#ifndef TREEDIFF_STORE_REPLICATION_H_
#define TREEDIFF_STORE_REPLICATION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "store/version_store.h"
#include "util/io.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace treediff {

/// Replicated VersionStore: one primary, N followers, each backed by its
/// own Env + log file. The unit of replication is the commit log itself —
/// followers *tail the primary's log bytes* from a cursor, re-verify every
/// record's CRC32C before appending it locally, and fsync before
/// acknowledging, so a follower's log is at all times a verified,
/// byte-identical prefix of the primary's. A promoted follower therefore
/// serves every version it holds exactly as the old primary did, with no
/// separate state-transfer protocol to get wrong. Followers only stand by:
/// every read goes to the primary, which holds each version in memory.
///
/// **Ack modes.** kLeaderOnly returns once the primary's fsync completes
/// (the pre-replication durability contract). kQuorum additionally blocks
/// the commit until a majority of the replica set has fsynced the record;
/// a quorum-acked commit then survives the permanent loss of any minority
/// of replicas, because the promotion rule below always picks a replica
/// that has it.
///
/// **Failover is explicit and fenced.** Every format-2 log record carries
/// the epoch it was written under. Promote() picks the most-caught-up
/// follower, reopens it as the primary, and durably bumps the epoch
/// (VersionStore::BumpEpoch appends a kEpoch record); the old primary is
/// deposed. Two fences then reject the deposed primary's leftovers:
///  * Commits carry a CommitLease (an epoch-stamped token). A lease minted
///    before the promotion no longer matches and the commit fails with
///    kFailedPrecondition instead of silently interleaving — the
///    fencing-token pattern.
///  * A follower rejects any shipped record that claims an epoch older
///    than the fence it learned at promotion, so a stale in-flight batch
///    (or a zombie writer appending to the shared medium) cannot extend a
///    follower's log past the new epoch's history.
///
/// **Divergence is detected, not assumed away.** Each follower maintains a
/// running CRC32C chain over its local log bytes; Scrub() re-reads the
/// follower logs and recomputes the chain, and any mismatch (local rot) or
/// primary log rewrite (rotation, detected by the primary's rotation
/// counter) triggers a full resync instead of silent drift.
///
/// Thread-safety: all public methods are safe to call concurrently. The
/// background shipper (ReplicationOptions::background_ship) is optional —
/// deterministic tests disable it and drive PumpFollowers() by hand.
class ReplicatedVersionStore;

/// When a group Commit acknowledges.
enum class AckMode {
  kLeaderOnly,  // Durable on the primary.
  kQuorum,      // Durable on a majority of the replica set.
};

/// Role of one replica inside the group.
enum class ReplicaRole {
  kPrimary,
  kFollower,
  kDeposed,  // A demoted primary; rejects writes until Rejoin().
};

const char* ReplicaRoleName(ReplicaRole role);

/// A fencing token: commits performed under a lease are rejected once a
/// promotion has bumped the group past the lease's epoch. Obtain via
/// ReplicatedVersionStore::lease() before a batch of writes; the stale
/// token is how a deposed primary's writer discovers it lost leadership.
struct CommitLease {
  uint64_t epoch = 0;
};

/// Placement of one replica: its file system and log path. Replicas may
/// share an Env (distinct paths) or use one Env each; the chaos harness
/// gives every replica its own FaultInjectingEnv so machines fail
/// independently.
struct ReplicaConfig {
  Env* env = nullptr;  // Null means Env::Default().
  std::string path;
};

/// Group-level knobs.
struct ReplicationOptions {
  AckMode ack_mode = AckMode::kLeaderOnly;

  /// How long a kQuorum commit waits for follower fsyncs before giving up
  /// with kUnavailable. The commit is durable on the primary either way —
  /// the error tells the caller the *replication* guarantee was not met.
  double ack_timeout_seconds = 5.0;

  /// Background shipper cadence (also woken by every commit).
  double poll_interval_seconds = 0.010;

  /// False disables the shipper thread; tests drive PumpFollowers()
  /// explicitly for deterministic schedules. kQuorum commits then pump
  /// inline while they wait, so single-threaded tests still converge.
  bool background_ship = true;

  /// Registry for replication counters/histograms (see docs/replication.md
  /// for the names). Null disables. Must outlive the group.
  MetricsRegistry* metrics = nullptr;

  /// Per-replica store knobs (env/labels are overridden per replica; the
  /// retry budget and sleep hook apply to follower catch-up I/O too).
  StoreOptions store_options;
};

/// Point-in-time view of one replica, for STATUS lines and tests.
struct ReplicaStatus {
  int index = 0;
  ReplicaRole role = ReplicaRole::kFollower;
  uint64_t cursor = 0;      // Local log bytes (verified + fsync'd).
  uint64_t lag_bytes = 0;   // Primary durable offset minus cursor.
  uint64_t records = 0;     // Records appended locally by shipping.
  uint32_t chain = 0;       // CRC32C chain over the local log bytes.
  bool caught_up = false;
};

/// Cumulative replication activity (mirrored into the metrics registry).
struct ReplicationCounters {
  uint64_t records_shipped = 0;
  uint64_t bytes_shipped = 0;
  uint64_t failovers = 0;
  uint64_t stale_epoch_rejects = 0;  // Batches rejected by the epoch fence.
  uint64_t resyncs = 0;              // Full recopies (rotation/divergence).
  uint64_t quorum_timeouts = 0;
  uint64_t divergence = 0;           // Chain mismatches caught by Scrub.
};

class ReplicatedVersionStore {
 public:
  /// Creates the group: replicas[0] becomes the initial primary (a fresh
  /// durable VersionStore with version 0 = `base`); the rest start as
  /// empty followers and catch up by shipping. All replicas share the base
  /// tree's LabelTable so trees materialized anywhere stay
  /// diff-compatible across failovers. An empty `replicas` list makes a
  /// group of one whose primary is an in-memory VersionStore (no Env, no
  /// log). A group without followers starts no shipper thread.
  static StatusOr<std::unique_ptr<ReplicatedVersionStore>> Create(
      std::vector<ReplicaConfig> replicas, Tree base,
      DiffOptions diff_options = {}, ReplicationOptions options = {});

  /// Recovers a durable group from the logs an earlier group left at
  /// `replicas` (a restart), listed in the order the group was created
  /// with. Every log is first scanned read-only to find the replica that
  /// led last: the highest epoch a log carries (a promotion raises it
  /// durably), then the longest valid log. That replica is reopened as the
  /// primary with VersionStore::Open and keeps its index and its recovered
  /// epoch, so a promotion before the restart loses nothing. `base` must be
  /// isomorphic to that log's version 0, else the call fails with
  /// kFailedPrecondition before any log is written; its LabelTable becomes
  /// the group's. Every other replica then restarts as an empty follower
  /// and catches up through the resync path (its old log is discarded and
  /// recopied from the primary). Fails with kNotFound when no replica has a
  /// log, and with the read error when a log cannot be read.
  static StatusOr<std::unique_ptr<ReplicatedVersionStore>> Open(
      std::vector<ReplicaConfig> replicas, const Tree& base,
      DiffOptions diff_options = {}, ReplicationOptions options = {});

  ~ReplicatedVersionStore();
  ReplicatedVersionStore(const ReplicatedVersionStore&) = delete;
  ReplicatedVersionStore& operator=(const ReplicatedVersionStore&) = delete;

  /// The current fencing token. Mint one, then commit under it; a
  /// promotion in between invalidates it.
  CommitLease lease() const EXCLUDES(mu_);

  /// Commit under the current lease (the common single-writer path).
  StatusOr<int> Commit(const Tree& new_version);

  /// Commit under an explicit lease. Fails with kFailedPrecondition
  /// ("fenced") without touching any log when the lease's epoch is not the
  /// group's current epoch — the stale-primary write rejection.
  /// Under AckMode::kQuorum, blocks until a majority of the replica set
  /// has fsynced the record or ack_timeout expires (kUnavailable; the
  /// commit is durable on the primary but was NOT quorum-acked, and a
  /// subsequent failover may lose it).
  StatusOr<int> CommitWithLease(const Tree& new_version,
                                const CommitLease& lease);

  /// One synchronous shipping round: every follower catches up to the
  /// primary's current durable offset (verifying CRCs, enforcing the epoch
  /// fence, fsyncing). The background shipper calls this in a loop;
  /// deterministic tests call it directly.
  Status PumpFollowers();

  /// Promotes `follower_index` (or, if -1, the most-caught-up follower) to
  /// primary: bumps the epoch durably, deposes the old primary, and
  /// re-points the surviving followers (their logs are byte prefixes of
  /// the new primary's, so their cursors remain valid). Returns the new
  /// primary's replica index.
  StatusOr<int> Promote(int follower_index = -1) EXCLUDES(mu_);

  /// Promote, but only if the group is still at `expected_epoch` — the
  /// compare-and-swap two racing failover initiators use so exactly one
  /// epoch wins. The loser gets kFailedPrecondition("lost promotion race").
  StatusOr<int> PromoteIfEpoch(int follower_index, uint64_t expected_epoch)
      EXCLUDES(mu_);

  /// Re-admits a deposed replica as a follower. Its divergent stale-epoch
  /// suffix (commits the old primary took after losing quorum) is
  /// discarded by a full resync from the current primary.
  Status Rejoin(int index) EXCLUDES(mu_);

  /// Scrubs a durable primary (VersionStore::Scrub) and re-verifies every
  /// follower's CRC chain; a diverged or rotten follower is resynced.
  /// Returns the primary's report (empty for an in-memory primary); a
  /// follower read error fails the call after every replica was visited.
  StatusOr<ScrubReport> Scrub();

  // --- Introspection (delegating reads go to the current primary) ---

  uint64_t epoch() const EXCLUDES(mu_);
  int primary_index() const EXCLUDES(mu_);
  int replica_count() const { return static_cast<int>(states_.size()); }

  /// The current primary store (stable until the next promotion), and the
  /// one that serves reads: Materialize, DeltaFor and the label table. Do
  /// not Commit on it directly — that would bypass the lease fence.
  std::shared_ptr<VersionStore> primary() const EXCLUDES(mu_);

  const std::shared_ptr<LabelTable>& label_table() const { return labels_; }

  std::vector<ReplicaStatus> Replicas() const EXCLUDES(mu_);
  ReplicationCounters counters() const;

 private:
  /// Per-replica mutable state. Every replica has one, including the
  /// primary (whose shipping fields are dormant while it leads).
  struct ReplicaState {
    ReplicaConfig config;

    mutable Mutex mu;
    ReplicaRole role GUARDED_BY(mu) = ReplicaRole::kFollower;

    /// Open VersionStore while this replica is (or last was) the primary;
    /// kept after deposal until Rejoin discards it. Null for followers. In
    /// an in-memory group of one it is the only store and has no log.
    std::shared_ptr<VersionStore> store GUARDED_BY(mu);

    // Shipping state (follower role).
    std::unique_ptr<WritableFile> out GUARDED_BY(mu);  // Local log append.
    uint64_t cursor GUARDED_BY(mu) = 0;  // Verified + fsync'd local bytes.
    uint32_t chain GUARDED_BY(mu) = 0;   // CRC32C over bytes [0, cursor).
    uint64_t records GUARDED_BY(mu) = 0;
    bool dirty GUARDED_BY(mu) = false;  // Unverified tail past the cursor.
    // The Layout [0, cursor) copies: its primary's epoch and rotations.
    uint64_t source_epoch GUARDED_BY(mu) = 0;
    uint64_t primary_rotations GUARDED_BY(mu) = 0;

    // Epoch fence: records at/after fence_cursor must carry an epoch
    // >= fence_epoch. Offsets before it are accepted history (they
    // legitimately carry older epochs).
    uint64_t fence_epoch GUARDED_BY(mu) = 0;
    uint64_t fence_cursor GUARDED_BY(mu) = 0;
  };

  ReplicatedVersionStore() = default;

  /// The group around an open `primary`: replicas[leader] leads, the rest
  /// start as followers with an empty cursor. No shipper runs yet.
  static std::unique_ptr<ReplicatedVersionStore> Assemble(
      std::vector<ReplicaConfig> replicas,
      std::shared_ptr<VersionStore> primary, int leader,
      std::shared_ptr<LabelTable> labels, DiffOptions diff_options,
      ReplicationOptions options);

  /// Starts the background shipper when there is a follower to ship to and
  /// ReplicationOptions::background_ship is on.
  void StartShipper();

  /// Ships one batch to `state` from the current primary. Returns OK when
  /// the follower is caught up (or the round made progress); transient
  /// errors leave the cursor unchanged for the next round.
  Status PumpOne(ReplicaState* state) EXCLUDES(state->mu);

  /// Full recopy of the primary log into `state` (rotation, divergence,
  /// rejoin). Caller holds the state lock.
  Status ResyncLocked(ReplicaState* state,
                      const std::shared_ptr<VersionStore>& primary)
      REQUIRES(state->mu);

  /// Appends `batch` to the follower's local log and fsyncs, repairing a
  /// torn local tail (truncate back to the cursor) between attempts. The
  /// retries are counted on `primary` (VersionStore::AddRetries).
  Status AppendBatchLocked(ReplicaState* state, std::string_view batch,
                           VersionStore* primary) REQUIRES(state->mu);

  StatusOr<int> PromoteInternal(int follower_index,
                                const uint64_t* expected_epoch)
      EXCLUDES(mu_, commit_mu_);

  std::shared_ptr<VersionStore> PrimarySnapshot() const EXCLUDES(mu_);

  void BumpMetric(const char* name, uint64_t n = 1);
  void ObserveMetric(const char* name, double value);

  void ShipLoop();

  DiffOptions diff_options_;
  ReplicationOptions options_;
  std::shared_ptr<LabelTable> labels_;

  /// Serializes commits and promotions against each other so a commit
  /// checks its lease and lands on the primary atomically with respect to
  /// any failover. Never held during quorum waits or shipping.
  Mutex commit_mu_ ACQUIRED_BEFORE(mu_);

  /// Guards the group view (who leads, what epoch).
  mutable Mutex mu_;
  int primary_index_ GUARDED_BY(mu_) = 0;
  uint64_t epoch_ GUARDED_BY(mu_) = 0;

  /// {epoch, rotations} of the primary store that wrote a log. A rotation
  /// rewrites the log, so byte offsets compare only within one layout.
  using Layout = std::pair<uint64_t, uint64_t>;

  /// The epoch a promotion started, the layout the candidate copied, and
  /// the bytes of it the new primary kept (0 if opening it rewrote the log).
  struct Promotion {
    uint64_t epoch = 0;
    Layout from;
    uint64_t kept = 0;
  };

  /// Recent promotions, newest last. A quorum waiter whose commit predates
  /// a promotion consults this: unless every promotion since its epoch
  /// kept the record's layout up to the commit's end offset, the record no
  /// longer exists on the surviving stream and the wait must fail rather
  /// than count votes against a different byte sequence. Bounded
  /// (failovers are rare); an evicted epoch fails conservatively.
  std::vector<Promotion> promotion_history_ GUARDED_BY(mu_);

  /// Fixed at Create; ReplicaState addresses are stable (unique_ptr).
  std::vector<std::unique_ptr<ReplicaState>> states_;

  // Ack signaling: followers advancing their cursor wake quorum waiters.
  Mutex ack_mu_;
  CondVar ack_cv_;

  // Shipper thread.
  Mutex ship_mu_;
  CondVar ship_cv_;
  bool stop_ GUARDED_BY(ship_mu_) = false;
  std::thread shipper_;

  // Counters (atomics: pumps may run concurrently with inline quorum
  // pumping, and readers must not need a lock).
  std::atomic<uint64_t> records_shipped_{0};
  std::atomic<uint64_t> bytes_shipped_{0};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> stale_epoch_rejects_{0};
  std::atomic<uint64_t> resyncs_{0};
  std::atomic<uint64_t> quorum_timeouts_{0};
  std::atomic<uint64_t> divergence_{0};
};

}  // namespace treediff

#endif  // TREEDIFF_STORE_REPLICATION_H_
