#ifndef TREEDIFF_STORE_VERSION_STORE_H_
#define TREEDIFF_STORE_VERSION_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/diff.h"
#include "core/edit_script.h"
#include "store/log.h"
#include "tree/tree.h"
#include "util/io.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/retry.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace treediff {

/// How VersionStore::Open treats corruption found *before* the log tail.
enum class RecoveryMode {
  /// Stop at the first invalid record and truncate it plus everything
  /// after — the conservative posture, and always correct for the common
  /// failure (a torn tail after a crash). Mid-log bit rot costs every
  /// version after the damage.
  kTruncate,

  /// Scan past damaged ranges (store/log.h salvage), re-anchor the version
  /// chain on the next checkpoint, and quarantine the damaged original by
  /// rotating it aside — one flipped byte costs the versions inside the
  /// damaged range, not the rest of the log. Versions lost to a gap fail
  /// Materialize with kDataLoss instead of silently vanishing.
  kSalvage,
};

/// Durability knobs for a file-backed VersionStore.
struct StoreOptions {
  /// File-system implementation; null means Env::Default() (POSIX). Tests
  /// substitute MemEnv / FaultInjectingEnv (util/fault_env.h).
  Env* env = nullptr;

  /// Append a checkpoint record (full snapshot of the head) every this many
  /// commits, bounding how many deltas recovery must replay to rebuild the
  /// head. 0 disables checkpoints (recovery replays from the base).
  /// Checkpoints are also what salvage recovery re-anchors on: a log
  /// without them can only be recovered up to its first damaged byte.
  /// The same interval spaces the in-memory anchors Materialize replays
  /// from (every store, durable or not). A read records the anchors its
  /// replay passes, so once a range has been read, a materialization in it
  /// applies fewer than this many deltas. 0 disables them too.
  int checkpoint_interval = 16;

  /// Recovery posture for Open (see RecoveryMode).
  RecoveryMode recovery = RecoveryMode::kTruncate;

  /// Retry budget for transient I/O faults (kUnavailable) on the append,
  /// sync, and recovery-scan paths. Permanent errors are never retried.
  RetryPolicy retry;

  /// Replaces the real backoff sleep (tests pass a no-op or recorder);
  /// null means a real clock wait.
  std::function<void(double seconds)> sleep;

  /// Optional registry mirroring the store's fault counters as
  /// `store_retries_total` (every retried I/O attempt), `store_rotations_total`, `store_scrubs_total`,
  /// `store_scrub_corruption_total`, `store_salvage_records_skipped_total`,
  /// and the deltas Materialize replays as `store_deltas_replayed_total`.
  /// Must outlive the store. Null disables the mirror.
  MetricsRegistry* metrics = nullptr;

  /// Label table Open recovers into; null means a fresh table per store.
  /// A replication group passes one shared table to every member so trees
  /// materialized from different replicas stay diff-compatible (DiffTrees
  /// requires both trees to share a LabelTable; the table itself is fully
  /// synchronized, so sharing across stores is safe).
  std::shared_ptr<LabelTable> labels;
};

/// What VersionStore::Open found and did while recovering a commit log,
/// mirroring the DiffResult::report idiom: the caller can log it, alert on
/// truncation, or assert cleanliness in tests.
struct RecoveryReport {
  uint64_t bytes_total = 0;      // Log size before recovery.
  uint64_t bytes_truncated = 0;  // Corrupt/torn tail discarded.
  size_t records_scanned = 0;    // Valid records accepted.
  size_t checksum_failures = 0;  // Corruption events (0/1 when truncating;
                                 // one per damaged range when salvaging).
  bool torn_tail = false;        // Partial record at the tail.
  size_t versions_recovered = 0;
  size_t deltas_replayed = 0;    // Scripts applied to rebuild the head.
  int checkpoint_version = -1;   // Checkpoint the head was rebuilt from.

  // Salvage-mode outcomes (all zero/empty under RecoveryMode::kTruncate).
  size_t records_skipped = 0;  // Records lost inside damaged/unusable spans.
  size_t versions_lost = 0;    // Versions no longer materializable.
  bool rotated = false;        // Log was rewritten; original quarantined.
  /// Damaged byte ranges of the *original* log that salvage stepped over
  /// (offsets refer to the quarantined file once `rotated`).
  std::vector<SkippedRange> salvage_ranges;

  /// True if the log was fully intact (nothing truncated, skipped, or
  /// corrupt).
  bool clean() const {
    return bytes_truncated == 0 && checksum_failures == 0 && !torn_tail &&
           records_skipped == 0 && versions_lost == 0 && !rotated &&
           salvage_ranges.empty();
  }

  std::string ToString() const;
};

/// Post-hoc integrity check of the cold log (VersionStore::Scrub).
struct ScrubReport {
  uint64_t bytes_verified = 0;  // Prefix re-read and CRC-checked.
  size_t records_verified = 0;
  bool corruption_found = false;
  bool repaired = false;  // A rotation rewrote the log from memory.
};

/// The first step of VersionStore::Open, and only a read: opens the log at
/// `path` on `store_options.env`, scans it under `store_options.retry`
/// (salvaging when `store_options.recovery` says so), and checks that its
/// first record is a base snapshot. kDataLoss for a zero-length file, a bad
/// magic, or a missing or resynced base snapshot; the Env's status (e.g.
/// kNotFound) when the file cannot be opened. Replication's restart
/// recovery probes every replica log with it. The scan's transient-fault
/// retries are added to `*retries`.
StatusOr<LogScanResult> ScanStoreLog(const std::string& path,
                                     const StoreOptions& store_options,
                                     uint64_t* retries);

/// A delta-compressed version store for hierarchical data — the version and
/// configuration management application of the paper's introduction
/// ([HKG+94], and the C3 project of [WU95] that Section 9 points to).
///
/// The store keeps the base version in full and each subsequent version as
/// the minimum-cost edit script against its predecessor (computed with the
/// paper's pipeline). Any version can be materialized by replaying the
/// script chain; scripts address nodes by the deterministic ids the replay
/// itself produces, so materialization is exact (isomorphic to the
/// committed snapshot).
///
/// Commits always diff with the share-map pre-pass (ShareMode::kIndexed):
/// the `share_mode` in the DiffOptions a store is given does not affect
/// commits, and its other fields apply as given. Every store therefore
/// stores the same deltas for the same history, and a stored delta is
/// byte-identical to the script a pruned live diff of the same two versions
/// produces. Materialize replays from the nearest in-memory anchor that an
/// earlier read left (one per StoreOptions::checkpoint_interval versions),
/// not from the base.
///
/// Two modes:
///  * **In-memory** (the constructor): nothing touches disk.
///  * **Durable** (Create/Open): every commit is appended to a checksummed
///    commit log (store/log.h) and fsync'd *before* the in-memory state
///    advances — write-ahead semantics, so an acknowledged commit survives
///    a crash and a failed commit leaves the store unchanged. Open recovers
///    by scanning the log, dropping any torn or corrupt tail, and
///    rebuilding the head from the latest checkpoint.
///
/// Fault handling in durable mode, from least to most severe:
///  * **Transient faults** (kUnavailable — flaky medium, interrupted
///    syscall) are retried under StoreOptions::retry with exponential
///    backoff. A failed *sync* is never naively re-issued — an fsync that
///    reported failure may have dropped its dirty pages, so a second OK
///    proves nothing. Instead the store **rotates**: it rewrites its full
///    state to a fresh log, quarantines the old file as `path + ".N"`, and
///    atomically swaps the new one into place.
///  * **Permanent faults** (disk full, unknown errors) *poison* the store:
///    mutations fail fast with kFailedPrecondition, reads still work, and
///    Repair() (or reopening) restores service by the same rotation.
///  * **Bit rot** is caught by Scrub(), which re-verifies the checksums of
///    everything already on disk and repairs by rotation, and by Open's
///    salvage mode (RecoveryMode::kSalvage), which recovers everything
///    outside the damaged ranges.
///
/// Salvage can leave *holes* in the version history: a version lost to a
/// damaged range fails Materialize with kDataLoss (and Info/DeltaFor report
/// it as absent) while every version outside the hole stays available.
/// RollbackHead cannot cross a hole.
///
/// Thread-safety: every method serializes on an internal Mutex (checked by
/// the thread-safety analysis), so concurrent Commit/Materialize/accessor
/// calls from different threads are safe. Multi-step protocols that span
/// calls — parsing a document into the store's LabelTable and then
/// committing it — still need external serialization, which DiffService
/// provides per attached store. Moving a store concurrently with any other
/// use is (as for any type) undefined.
class VersionStore {
 public:
  /// Creates an in-memory store whose version 0 is `base`.
  explicit VersionStore(Tree base, DiffOptions options = {});

  // The store owns a log writer in durable mode; it moves but does not
  // copy. Moves transfer the logical state but not the mutex (each store
  // owns its own); they are excluded from the analysis since the moved-from
  // store's lock is not held.
  VersionStore(VersionStore&& other) NO_THREAD_SAFETY_ANALYSIS;
  VersionStore& operator=(VersionStore&& other) NO_THREAD_SAFETY_ANALYSIS;
  VersionStore(const VersionStore&) = delete;
  VersionStore& operator=(const VersionStore&) = delete;

  /// Creates a durable store at `path` (a single log file) with version 0 =
  /// `base`. The file is built as `path + ".tmp"`, synced, and atomically
  /// renamed into place, so a crash mid-create leaves no half-written
  /// store at `path`. Fails if `path` already exists.
  static StatusOr<VersionStore> Create(const std::string& path, Tree base,
                                       DiffOptions options = {},
                                       StoreOptions store_options = {});

  /// Opens and recovers a durable store from `path`. The log is scanned
  /// front to back; the longest prefix of checksum-valid records wins, and
  /// a torn or corrupt tail is physically truncated so the next commit
  /// appends to a clean log. Under RecoveryMode::kSalvage, mid-log damage
  /// is skipped instead of truncated (see RecoveryMode). Recovered state
  /// always equals the state after some acknowledged commit — never a torn
  /// mix. `report`, when non-null, receives what recovery found.
  static StatusOr<VersionStore> Open(const std::string& path,
                                     DiffOptions options = {},
                                     StoreOptions store_options = {},
                                     RecoveryReport* report = nullptr);

  /// True when backed by a commit log.
  bool durable() const { return durable_; }

  /// The registry the fault counters are mirrored into (StoreOptions).
  MetricsRegistry* metrics() const { return store_options_.metrics; }

  /// The label table shared by the base, the head, and every materialized
  /// version. Trees passed to Commit must use this table — note that Open
  /// recovers into a *fresh* table, not the one the original snapshots were
  /// built with.
  const std::shared_ptr<LabelTable>& label_table() const {
    return base_.label_table();
  }

  /// OK unless an I/O failure has poisoned the store (durable mode only).
  Status io_status() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return io_status_;
  }

  /// Commits `new_version` (same LabelTable as the base) as the next
  /// version, storing only its delta against the current head, diffed with
  /// the share-map pre-pass whatever the store's share_mode. In durable
  /// mode the delta record is appended and fsync'd before the in-memory
  /// head advances; on any failure the store is observably unchanged.
  /// Returns the new version number.
  StatusOr<int> Commit(const Tree& new_version) EXCLUDES(mu_);

  /// Number of versions in the numbering space (>= 1; version 0 is the
  /// base, VersionCount()-1 is the head). After a salvage with holes, some
  /// versions inside the range are lost: Materialize fails them with
  /// kDataLoss.
  int VersionCount() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return VersionCountLocked();
  }

  /// Rebuilds version `v` (0 = base, VersionCount()-1 = head) by replaying
  /// the stored scripts from the nearest in-memory anchor at or below it.
  /// Fails with kOutOfRange outside [0, VersionCount()) and kDataLoss for a
  /// version lost to a salvage hole.
  StatusOr<Tree> Materialize(int v) const EXCLUDES(mu_);

  /// Discards the newest version: the head is rolled back to the previous
  /// version by applying the inverse of the last stored delta
  /// (InvertScript), and the delta is dropped. In durable mode a rollback
  /// record is appended and fsync'd first. Returns the new head version
  /// number; fails (leaving the store unchanged) if only the base remains
  /// or the previous version lies across a salvage hole.
  StatusOr<int> RollbackHead() EXCLUDES(mu_);

  /// The stored delta that takes version v-1 to version v (1-based v), or
  /// null if `v` is out of range [1, VersionCount()-1] or either endpoint
  /// was lost to a salvage hole. The pointer stays valid until the next
  /// Commit or RollbackHead — hold the result across mutations and it
  /// dangles, so don't.
  const EditScript* DeltaFor(int v) const EXCLUDES(mu_);

  /// Aggregate per-version change counters, the "querying over changes"
  /// facility a warehouse needs.
  struct VersionInfo {
    size_t inserts = 0;
    size_t deletes = 0;
    size_t updates = 0;
    size_t moves = 0;
    double cost = 0.0;
    size_t nodes = 0;  // Size of the version after the delta.
  };

  /// Info for version `v`. The base has no delta, so only its `nodes` is
  /// set. A zero VersionInfo when `v` is out of range, lost to a salvage
  /// hole, or a salvage re-anchor (whose delta stats did not survive).
  VersionInfo Info(int v) const EXCLUDES(mu_);

  /// Storage accounting: serialized bytes of all stored scripts versus what
  /// storing every version in full (as s-expressions) would take — the
  /// delta-compression argument for shipping scripts.
  struct StorageStats {
    size_t delta_bytes = 0;
    size_t full_copy_bytes = 0;

    double CompressionRatio() const {
      return delta_bytes == 0
                 ? 0.0
                 : static_cast<double>(full_copy_bytes) /
                       static_cast<double>(delta_bytes);
    }
  };
  StorageStats Storage() const EXCLUDES(mu_);

  // --- Self-healing (durable mode) ---

  /// Rewrites the full in-memory state to a fresh log, quarantines the old
  /// file as `path + ".N"` (first free N), atomically swaps the new log
  /// into place, and clears the poison. This is how the store recovers
  /// from a failed fsync (whose covered bytes have unknown durability) and
  /// from scrub-detected bit rot without losing any acknowledged commit —
  /// the in-memory state *is* the acknowledged state. Fails (store stays
  /// poisoned, if it was) when the environment itself cannot complete the
  /// rewrite.
  Status Repair() EXCLUDES(mu_);

  /// Re-reads the cold log (everything appended before the scrub started)
  /// and re-verifies every checksum — the background defense against bit
  /// rot that would otherwise surface only at the next Open. On corruption
  /// the store repairs itself by rotation (see Repair). Cheap enough to
  /// run periodically; DiffService schedules it.
  StatusOr<ScrubReport> Scrub() EXCLUDES(mu_);

  /// Cumulative fault-handling activity, for tests and service metrics.
  struct FaultCounters {
    uint64_t transient_retries = 0;   // I/O attempts retried.
    uint64_t rotations = 0;           // Log rewrites (Repair + self-heal).
    uint64_t scrubs = 0;              // Scrub passes completed.
    uint64_t scrub_corruption = 0;    // Scrubs that found corruption.
    uint64_t salvage_skipped = 0;     // Records skipped by salvage Open.
  };
  FaultCounters fault_counters() const EXCLUDES(mu_);

  /// Adds `n` retried I/O attempts to FaultCounters::transient_retries and
  /// `store_retries_total`. The store counts its own retries (appends,
  /// rotations, recovery and scrub scans); a replication group adds its
  /// followers' append retries and its restart probes to the primary's.
  void AddRetries(uint64_t n) EXCLUDES(mu_);

  // --- Replication hooks (durable mode) ---

  /// The log path this store appends to (empty for in-memory stores).
  /// Replication tails these bytes directly.
  const std::string& log_path() const { return path_; }

  /// The environment the log lives in (null for in-memory stores).
  Env* env() const { return env_; }

  /// Framing of the live log. Freshly created stores write format 2;
  /// Open preserves whatever format it found (so pre-replication logs are
  /// not rewritten just for being opened), and any rotation upgrades the
  /// file to format 2.
  LogFormat log_format() const EXCLUDES(mu_);

  /// Byte offset one past the last appended record — the durable prefix a
  /// follower may ship up to. 0 for in-memory stores.
  uint64_t DurableOffset() const EXCLUDES(mu_);

  /// Number of log rewrites so far (Repair, self-heal, scrub repair). A
  /// follower that cached this count can detect that the primary's log was
  /// rewritten underneath its cursor and must resync from scratch.
  uint64_t rotations() const EXCLUDES(mu_);

  /// The fencing epoch stamped into every appended format-2 record. 0
  /// until the first BumpEpoch (and for format-1 logs).
  uint64_t epoch() const EXCLUDES(mu_);

  /// Durably raises the fencing epoch: appends a kEpoch record (rotating a
  /// format-1 log up to format 2 first) and stamps all subsequent records
  /// with the new value. Fails with kInvalidArgument unless `new_epoch` is
  /// strictly greater than the current epoch, and with kFailedPrecondition
  /// on in-memory or poisoned stores. Promotion is the only caller.
  Status BumpEpoch(uint64_t new_epoch) EXCLUDES(mu_);

 private:
  VersionStore() = default;  // Assembled field-by-field in Create/Open.

  /// A contiguous run of versions: `anchor` is the materialized tree of
  /// version `first`, and scripts[i] takes version first+i to first+i+1.
  /// A healthy store has exactly one segment (first = 0, anchor = base);
  /// salvage recovery adds one segment per re-anchoring checkpoint, with
  /// the versions between two segments lost to the damage.
  struct Segment {
    int first = 0;
    Tree anchor;
    std::vector<EditScript> scripts;
    std::vector<VersionInfo> infos;          // Aligned with scripts.
    std::vector<size_t> full_sizes;          // Aligned with scripts.
    size_t anchor_full_size = 0;             // Snapshot bytes of `first`.
    /// interval_anchors[k] is the tree of version first + (k+1) *
    /// checkpoint_interval: a contiguous prefix that MaterializeLocked
    /// extends as its replays pass the next boundary (hence mutable; always
    /// under mu_).
    mutable std::vector<Tree> interval_anchors;
  };

  int VersionCountLocked() const REQUIRES(mu_) {
    const Segment& last = segments_.back();
    return last.first + static_cast<int>(last.scripts.size()) + 1;
  }

  /// The segment owning version `v`, or null when `v` is out of range or
  /// lost in a gap between segments.
  const Segment* FindSegment(int v) const REQUIRES(mu_);

  /// Materialize with the lock already held (RollbackHead's replay).
  /// Records the interval anchors its replay passes.
  StatusOr<Tree> MaterializeLocked(int v) const REQUIRES(mu_);

  /// Spacing of the in-memory anchors: checkpoint_interval, 0 for none.
  size_t AnchorInterval() const;

  /// Appends `payload` as a `type` record and fsyncs, retrying transient
  /// faults and self-healing by rotation when the log file itself has
  /// become untrustworthy (failed sync). On permanent failure poisons the
  /// store and returns the error; the in-memory state must not have been
  /// touched yet (write-ahead ordering).
  Status AppendDurable(LogRecordType type, std::string_view payload)
      REQUIRES(mu_);

  /// One append+sync attempt, no retry or healing.
  Status AppendOnce(LogRecordType type, std::string_view payload)
      REQUIRES(mu_);

  /// Appends a checkpoint record if the interval policy says so.
  /// Best-effort: a failure poisons the store (future commits fail fast)
  /// but does not undo the already durable commit.
  void MaybeCheckpoint() REQUIRES(mu_);

  /// Serializes the in-memory state into fresh log bytes (magic, snapshot,
  /// segment-0 deltas, then per later segment a re-anchoring checkpoint
  /// and its deltas).
  std::string EncodeStateLocked() const REQUIRES(mu_);

  /// The one way a whole log is published: writes EncodeStateLocked() to
  /// `path.tmp` and syncs it, copies the current log to `path.N` when
  /// `quarantine_old`, atomically renames the new log into place, and
  /// appends to it from then on. Create publishes a fresh store with it.
  Status PublishLocked(bool quarantine_old) REQUIRES(mu_);

  /// Rotation: PublishLocked with the old log quarantined. On success the
  /// store is not poisoned, and the rotation counters advance.
  Status RotateLocked() REQUIRES(mu_);

  void BumpCounter(const char* name, uint64_t n) const REQUIRES(mu_);
  void AddRetriesLocked(uint64_t n) REQUIRES(mu_);

  /// Serializes every method; guards the mutable version/log state below.
  /// Immutable-after-construction members (base_, options_, env_, path_,
  /// store_options_) are read without it.
  mutable Mutex mu_;

  Tree base_;
  DiffOptions options_;

  // Materialized head, kept for diffing the next commit.
  Tree head_ GUARDED_BY(mu_);
  // Never empty: segments_[0].first == 0 and its anchor is the base.
  std::vector<Segment> segments_ GUARDED_BY(mu_);

  // Durable mode (false/null/empty in memory-only stores). The writer is
  // replaced on rotation; all access is under the lock.
  bool durable_ = false;
  std::unique_ptr<LogWriter> writer_ PT_GUARDED_BY(mu_);
  Env* env_ = nullptr;
  std::string path_;
  StoreOptions store_options_;
  Status io_status_ GUARDED_BY(mu_);
  int commits_since_checkpoint_ GUARDED_BY(mu_) = 0;
  FaultCounters faults_ GUARDED_BY(mu_);
  LogFormat log_format_ GUARDED_BY(mu_) = LogFormat::kV2;
  uint64_t epoch_ GUARDED_BY(mu_) = 0;
};

}  // namespace treediff

#endif  // TREEDIFF_STORE_VERSION_STORE_H_
