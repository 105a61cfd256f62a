#include "store/version_store.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <utility>

#include "core/script_io.h"
#include "store/codec.h"

namespace treediff {

namespace {

/// Delta record payload: a small stats header, then the script text.
/// Storing nodes/full_size/cost in the header lets recovery rebuild
/// VersionInfo and StorageStats without materializing every version (the
/// script text alone cannot: update costs are not serialized).
///
///   varint   nodes        (tree size after the delta)
///   varint   full_size    (s-expression bytes of the full snapshot)
///   fixed64  cost bits    (IEEE double, TotalCost of the original script)
///   bytes    script text  (FormatEditScript)
std::string EncodeDeltaPayload(const VersionStore::VersionInfo& info,
                               size_t full_size,
                               const std::string& script_text) {
  std::string payload;
  PutVarint64(&payload, info.nodes);
  PutVarint64(&payload, full_size);
  PutFixed64(&payload, std::bit_cast<uint64_t>(info.cost));
  payload.append(script_text);
  return payload;
}

bool DecodeDeltaHeader(std::string_view* payload, uint64_t* nodes,
                       uint64_t* full_size, double* cost) {
  if (!GetVarint64(payload, nodes) || !GetVarint64(payload, full_size)) {
    return false;
  }
  if (payload->size() < 8) return false;
  *cost = std::bit_cast<double>(DecodeFixed64(payload->data()));
  payload->remove_prefix(8);
  return true;
}

}  // namespace

std::string RecoveryReport::ToString() const {
  std::string out = "recovered " + std::to_string(versions_recovered) +
                    " version(s) from " + std::to_string(records_scanned) +
                    " record(s), " + std::to_string(bytes_total) + " byte(s)";
  if (checkpoint_version >= 0) {
    out += ", head from checkpoint v" + std::to_string(checkpoint_version) +
           " + " + std::to_string(deltas_replayed) + " delta(s)";
  } else {
    out += ", head replayed from base (" + std::to_string(deltas_replayed) +
           " delta(s))";
  }
  if (bytes_truncated > 0) {
    out += "; truncated " + std::to_string(bytes_truncated) + " byte(s) (" +
           (checksum_failures > 0 ? "checksum failure" : "torn tail") + ")";
  }
  if (!salvage_ranges.empty()) {
    out += "; salvaged past " + std::to_string(salvage_ranges.size()) +
           " damaged range(s) [";
    for (size_t i = 0; i < salvage_ranges.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(salvage_ranges[i].begin) + "-" +
             std::to_string(salvage_ranges[i].end);
    }
    out += ")";
  }
  if (records_skipped > 0) {
    out += "; skipped " + std::to_string(records_skipped) + " record(s)";
  }
  if (versions_lost > 0) {
    out += "; lost " + std::to_string(versions_lost) + " version(s)";
  }
  if (rotated) {
    out += "; log rewritten (original quarantined)";
  }
  return out;
}

VersionStore::VersionStore(Tree base, DiffOptions options)
    : base_(base.Clone()), options_(options), head_(std::move(base)) {
  Segment seg;
  seg.first = 0;
  seg.anchor = base_.Clone();
  seg.anchor_full_size = base_.DebugStringSize();
  segments_.push_back(std::move(seg));
}

// Moves transfer everything but the mutex. The analysis is disabled here
// (see the header): the moved-from object is not shared, so its guarded
// members are read without its lock by design.
VersionStore::VersionStore(VersionStore&& other)
    : base_(std::move(other.base_)),
      options_(other.options_),
      head_(std::move(other.head_)),
      segments_(std::move(other.segments_)),
      durable_(other.durable_),
      writer_(std::move(other.writer_)),
      env_(other.env_),
      path_(std::move(other.path_)),
      store_options_(std::move(other.store_options_)),
      io_status_(std::move(other.io_status_)),
      commits_since_checkpoint_(other.commits_since_checkpoint_),
      faults_(other.faults_),
      log_format_(other.log_format_),
      epoch_(other.epoch_) {}

VersionStore& VersionStore::operator=(VersionStore&& other) {
  if (this == &other) return *this;
  base_ = std::move(other.base_);
  options_ = other.options_;
  head_ = std::move(other.head_);
  segments_ = std::move(other.segments_);
  durable_ = other.durable_;
  writer_ = std::move(other.writer_);
  env_ = other.env_;
  path_ = std::move(other.path_);
  store_options_ = std::move(other.store_options_);
  io_status_ = std::move(other.io_status_);
  commits_since_checkpoint_ = other.commits_since_checkpoint_;
  faults_ = other.faults_;
  log_format_ = other.log_format_;
  epoch_ = other.epoch_;
  return *this;
}

void VersionStore::BumpCounter(const char* name, uint64_t n) const {
  if (store_options_.metrics) {
    store_options_.metrics->counter(name)->Increment(n);
  }
}

void VersionStore::AddRetriesLocked(uint64_t n) {
  if (n == 0) return;
  faults_.transient_retries += n;
  BumpCounter("store_retries_total", n);
}

void VersionStore::AddRetries(uint64_t n) {
  MutexLock lock(&mu_);
  AddRetriesLocked(n);
}

Status VersionStore::AppendOnce(LogRecordType type, std::string_view payload) {
  TREEDIFF_RETURN_IF_ERROR(writer_->AppendRecord(type, payload));
  return writer_->Sync();
}

Status VersionStore::AppendDurable(LogRecordType type,
                                   std::string_view payload) {
  // Transient faults are retried under the store's budget, but never by
  // naively re-running append+sync on the same file: the failed attempt may
  // have left a torn record, and a sync that reported failure may have
  // dropped its dirty pages — re-issuing it and trusting the second OK is
  // the fsyncgate mistake. Instead each retry first *rotates*: the full
  // in-memory state (which the failed record is not yet part of) is written
  // to a fresh log and atomically swapped in, so the retry appends to a
  // tail whose every byte is known good.
  bool need_rotation = false;
  Retryer retryer(store_options_.retry, store_options_.sleep);
  const Status appended = retryer.Run([&]() REQUIRES(mu_) {
    if (need_rotation) {
      TREEDIFF_RETURN_IF_ERROR(RotateLocked());
      need_rotation = false;
    }
    Status st = AppendOnce(type, payload);
    need_rotation = !st.ok();
    return st;
  });
  AddRetriesLocked(retryer.total_retries());
  // On failure the log tail is in an unknown state; poison the store so no
  // further mutation can commit on top of it. Reads stay available, and
  // Repair() or reopening restores service.
  if (!appended.ok()) io_status_ = appended;
  return appended;
}

void VersionStore::MaybeCheckpoint() {
  if (store_options_.checkpoint_interval <= 0) return;
  if (++commits_since_checkpoint_ < store_options_.checkpoint_interval) return;
  std::string payload;
  PutVarint64(&payload, static_cast<uint64_t>(VersionCountLocked() - 1));
  payload.append(EncodeTree(head_));
  // Best-effort: the commit this rides on is already durable. A failure
  // poisons the store (the tail may hold a torn checkpoint record), which
  // recovery simply truncates.
  if (AppendDurable(LogRecordType::kCheckpoint, payload).ok()) {
    commits_since_checkpoint_ = 0;
  }
}

StatusOr<int> VersionStore::Commit(const Tree& new_version) {
  MutexLock lock(&mu_);
  if (!io_status_.ok()) {
    return Status::FailedPrecondition(
        "store is poisoned by an earlier I/O error: " + io_status_.message());
  }
  if (new_version.label_table().get() != base_.label_table().get()) {
    return Status::InvalidArgument(
        "committed versions must share the store's LabelTable");
  }
  // Commits always diff with the share-map pre-pass, whatever share_mode
  // the store was given: the stored delta is then the script a pruned live
  // read of the same pair computes, and its cost follows the changed region
  // rather than the document.
  DiffOptions commit_options = options_;
  commit_options.share_mode = ShareMode::kIndexed;
  StatusOr<DiffResult> diff = DiffTrees(head_, new_version, commit_options);
  if (!diff.ok()) return diff.status();

  // Apply the delta to the head; the head's id space (not the snapshot's)
  // is what subsequent scripts address, so replay from the anchor stays
  // deterministic.
  Tree next = head_.Clone();
  TREEDIFF_RETURN_IF_ERROR(diff->script.ApplyTo(&next));
  if (!Tree::Isomorphic(next, new_version)) {
    return Status::Internal("delta replay does not reproduce the snapshot");
  }

  VersionInfo info;
  info.inserts = diff->script.num_inserts();
  info.deletes = diff->script.num_deletes();
  info.updates = diff->script.num_updates();
  info.moves = diff->script.num_moves();
  info.cost = diff->script.TotalCost();
  info.nodes = next.size();

  size_t full_size = new_version.DebugStringSize();
  if (durable()) {
    // Write-ahead: the record must be on disk before the head advances. A
    // failed append leaves the in-memory store exactly as it was.
    std::string payload = EncodeDeltaPayload(
        info, full_size, FormatEditScript(diff->script, base_.labels()));
    TREEDIFF_RETURN_IF_ERROR(AppendDurable(LogRecordType::kDelta, payload));
  }

  head_ = std::move(next);
  Segment& last = segments_.back();
  last.scripts.push_back(std::move(diff->script));
  last.infos.push_back(info);
  last.full_sizes.push_back(full_size);
  if (durable()) MaybeCheckpoint();
  return VersionCountLocked() - 1;
}

size_t VersionStore::AnchorInterval() const {
  return static_cast<size_t>(std::max(store_options_.checkpoint_interval, 0));
}

const VersionStore::Segment* VersionStore::FindSegment(int v) const {
  if (v < 0 || v >= VersionCountLocked()) return nullptr;
  // Few segments (one unless salvage re-anchored); scan from the back.
  for (auto it = segments_.rbegin(); it != segments_.rend(); ++it) {
    if (it->first <= v) {
      return v <= it->first + static_cast<int>(it->scripts.size()) ? &*it
                                                                   : nullptr;
    }
  }
  return nullptr;
}

StatusOr<Tree> VersionStore::Materialize(int v) const {
  MutexLock lock(&mu_);
  return MaterializeLocked(v);
}

StatusOr<Tree> VersionStore::MaterializeLocked(int v) const {
  if (v < 0 || v >= VersionCountLocked()) {
    return Status::OutOfRange("no such version: " + std::to_string(v));
  }
  const Segment* seg = FindSegment(v);
  if (!seg) {
    return Status::DataLoss("version " + std::to_string(v) +
                            " was lost to log corruption (salvage hole)");
  }
  // Start from the nearest interval anchor at or below `v`. The replay
  // records each boundary it passes right after the last anchor, so the
  // anchors stay a contiguous prefix and later replays stay short. Anchors
  // are only made here: a version never read costs no memory.
  const size_t interval = AnchorInterval();
  const size_t offset = static_cast<size_t>(v - seg->first);
  const size_t k =
      interval == 0
          ? 0
          : std::min(offset / interval, seg->interval_anchors.size());
  Tree tree =
      k == 0 ? seg->anchor.Clone() : seg->interval_anchors[k - 1].Clone();
  for (size_t i = k * interval; i < offset; ++i) {
    TREEDIFF_RETURN_IF_ERROR(seg->scripts[i].ApplyTo(&tree));
    if (interval > 0 &&
        i + 1 == (seg->interval_anchors.size() + 1) * interval) {
      seg->interval_anchors.push_back(tree.Clone());
    }
  }
  BumpCounter("store_deltas_replayed_total", offset - k * interval);
  return tree;
}

StatusOr<int> VersionStore::RollbackHead() {
  MutexLock lock(&mu_);
  if (!io_status_.ok()) {
    return Status::FailedPrecondition(
        "store is poisoned by an earlier I/O error: " + io_status_.message());
  }
  Segment& last = segments_.back();
  if (last.scripts.empty()) {
    if (segments_.size() > 1) {
      // The head is a salvage anchor: the delta beneath it was lost with
      // the damaged range, so there is nothing to invert.
      return Status::FailedPrecondition(
          "cannot roll back across a salvage hole");
    }
    return Status::FailedPrecondition("cannot roll back the base version");
  }
  // The inverse must be computed against the pre-state of the last delta,
  // which replaying the chain up to the previous version reproduces with
  // the exact node ids the head evolved from.
  StatusOr<Tree> prev = MaterializeLocked(VersionCountLocked() - 2);
  if (!prev.ok()) return prev.status();
  StatusOr<EditScript> inverse = InvertScript(last.scripts.back(), *prev);
  if (!inverse.ok()) return inverse.status();
  // Verify on a scratch copy so the member state stays untouched until the
  // rollback is durable.
  Tree check = head_.Clone();
  TREEDIFF_RETURN_IF_ERROR(inverse->ApplyTo(&check));
  if (!Tree::Isomorphic(check, *prev)) {
    return Status::Internal("inverse delta did not restore the head");
  }
  if (durable()) {
    std::string payload;
    PutVarint64(&payload, static_cast<uint64_t>(VersionCountLocked() - 1));
    TREEDIFF_RETURN_IF_ERROR(AppendDurable(LogRecordType::kRollback, payload));
  }
  // Adopt the replayed tree (not the undone head): the id space must match
  // what future commits' scripts will see when materialized from the base.
  head_ = std::move(*prev);
  last.scripts.pop_back();
  last.infos.pop_back();
  last.full_sizes.pop_back();
  // An anchor of the discarded version describes no surviving state.
  while (!last.interval_anchors.empty() &&
         last.interval_anchors.size() * AnchorInterval() >
             last.scripts.size()) {
    last.interval_anchors.pop_back();
  }
  return VersionCountLocked() - 1;
}

const EditScript* VersionStore::DeltaFor(int v) const {
  MutexLock lock(&mu_);
  const Segment* seg = FindSegment(v);
  if (!seg || v <= seg->first) return nullptr;  // Anchor or base: no delta.
  return &seg->scripts[static_cast<size_t>(v - seg->first - 1)];
}

VersionStore::VersionInfo VersionStore::Info(int v) const {
  MutexLock lock(&mu_);
  const Segment* seg = FindSegment(v);
  if (!seg) return {};
  if (v == 0) {  // The base: no delta, but its size is known.
    VersionInfo base;
    base.nodes = base_.size();
    return base;
  }
  if (v <= seg->first) return {};
  return seg->infos[static_cast<size_t>(v - seg->first - 1)];
}

VersionStore::StorageStats VersionStore::Storage() const {
  MutexLock lock(&mu_);
  StorageStats stats;
  const LabelTable& labels = base_.labels();
  for (const Segment& seg : segments_) {
    for (const EditScript& script : seg.scripts) {
      stats.delta_bytes += FormatEditScript(script, labels).size();
    }
    // The base is stored in full either way; count every other version,
    // including salvage anchors (which really are stored in full).
    if (seg.first != 0) stats.full_copy_bytes += seg.anchor_full_size;
    for (size_t size : seg.full_sizes) stats.full_copy_bytes += size;
  }
  return stats;
}

std::string VersionStore::EncodeStateLocked() const {
  // Rotation always rewrites in format 2 (every record stamped with the
  // current epoch): the rewrite happens under this writer's authority, and
  // upgrading here is what migrates pre-replication logs without a separate
  // conversion pass. A follower tailing the old bytes detects the rotation
  // via rotations() and resyncs.
  std::string out(kLogMagicV2, kLogMagicSize);
  auto put = [&](LogRecordType type, std::string_view payload) {
    out += EncodeLogRecordV2(type, payload, epoch_);
  };
  put(LogRecordType::kSnapshot, EncodeTree(base_));
  if (epoch_ > 0) {
    // Re-announce the fencing epoch explicitly so even a log whose later
    // records are truncated by a crash still recovers the right epoch.
    std::string payload;
    PutVarint64(&payload, epoch_);
    put(LogRecordType::kEpoch, payload);
  }
  const LabelTable& labels = base_.labels();
  for (const Segment& seg : segments_) {
    if (seg.first != 0) {
      // Re-anchoring checkpoint: recovery reads the version jump and
      // resumes the chain here (the versions before it that fall in a gap
      // stay lost, by design).
      std::string payload;
      PutVarint64(&payload, static_cast<uint64_t>(seg.first));
      payload.append(EncodeTree(seg.anchor));
      put(LogRecordType::kCheckpoint, payload);
    }
    for (size_t i = 0; i < seg.scripts.size(); ++i) {
      put(LogRecordType::kDelta,
          EncodeDeltaPayload(seg.infos[i], seg.full_sizes[i],
                             FormatEditScript(seg.scripts[i], labels)));
    }
  }
  return out;
}

Status VersionStore::PublishLocked(bool quarantine_old) {
  // 1. Build the replacement under a tmp name and make it durable.
  const std::string tmp = path_ + ".tmp";
  const std::string bytes = EncodeStateLocked();
  auto file = env_->NewWritableFile(tmp, /*truncate=*/true);
  if (!file.ok()) return file.status();
  TREEDIFF_RETURN_IF_ERROR((*file)->Append(bytes));
  TREEDIFF_RETURN_IF_ERROR((*file)->Sync());
  TREEDIFF_RETURN_IF_ERROR((*file)->Close());

  // 2. Quarantine the current log by *copying* it to path.N — never by
  // renaming it away, which would leave a moment with no store at `path`.
  // Best-effort: keeping the forensic copy is worth less than restoring
  // service, so a copy failure does not abort the rotation.
  if (quarantine_old && env_->FileExists(path_)) {
    std::string quarantine;
    for (int n = 1;; ++n) {
      quarantine = path_ + "." + std::to_string(n);
      if (!env_->FileExists(quarantine)) break;
    }
    auto old_file = env_->NewRandomAccessFile(path_);
    if (old_file.ok()) {
      auto size = (*old_file)->Size();
      StatusOr<std::string> old_bytes =
          size.ok() ? (*old_file)->Read(0, static_cast<size_t>(*size))
                    : StatusOr<std::string>(size.status());
      if (old_bytes.ok()) {
        auto qfile = env_->NewWritableFile(quarantine, /*truncate=*/true);
        if (qfile.ok()) {
          (*qfile)->Append(*old_bytes).IgnoreError();
          (*qfile)->Sync().IgnoreError();
          (*qfile)->Close().IgnoreError();
        }
      }
    }
  }

  // 3. Atomic swap: `path` is at every instant either the old log (still
  // recoverable, possibly via salvage) or the complete new one.
  if (writer_) writer_->Close().IgnoreError();
  writer_.reset();
  TREEDIFF_RETURN_IF_ERROR(env_->RenameFile(tmp, path_));
  auto append = env_->NewWritableFile(path_, /*truncate=*/false);
  if (!append.ok()) return append.status();
  log_format_ = LogFormat::kV2;
  writer_ = std::make_unique<LogWriter>(std::move(*append), bytes.size(),
                                        LogFormat::kV2, epoch_);
  // Replay cost of the fresh log equals the last segment's delta count.
  commits_since_checkpoint_ =
      static_cast<int>(segments_.back().scripts.size());
  return Status::Ok();
}

Status VersionStore::RotateLocked() {
  TREEDIFF_RETURN_IF_ERROR(PublishLocked(/*quarantine_old=*/true));
  io_status_ = Status::Ok();  // The new log is trustworthy end to end.
  ++faults_.rotations;
  BumpCounter("store_rotations_total", 1);
  return Status::Ok();
}

Status VersionStore::Repair() {
  MutexLock lock(&mu_);
  if (!durable()) {
    return Status::FailedPrecondition("repair of a non-durable store");
  }
  return RotateLocked();
}

StatusOr<ScrubReport> VersionStore::Scrub() {
  uint64_t cold_limit = 0;
  {
    MutexLock lock(&mu_);
    if (!durable()) {
      return Status::FailedPrecondition("scrub of a non-durable store");
    }
    if (!writer_) {
      return Status::FailedPrecondition("scrub of a store without a log");
    }
    cold_limit = writer_->offset();
  }

  // Scan outside the lock: scrubbing must not stall commits. Bytes at or
  // beyond `cold_limit` may legitimately be mid-append, so only damage
  // strictly before it counts. Transient read faults are retried.
  StatusOr<LogScanResult> scan = Status::Internal("scan never ran");
  Retryer retryer(store_options_.retry, store_options_.sleep);
  Status scanned = retryer.Run([&]() {
    auto file = env_->NewRandomAccessFile(path_);
    if (!file.ok()) {
      scan = file.status();
      return file.status();
    }
    scan = ScanLog(file->get());
    return scan.status();
  });
  AddRetries(retryer.total_retries());
  if (!scanned.ok()) return scanned;

  ScrubReport report;
  report.bytes_verified = std::min(scan->durable_prefix, cold_limit);
  report.records_verified = scan->records.size();
  report.corruption_found = scan->durable_prefix < cold_limit;

  MutexLock lock(&mu_);
  ++faults_.scrubs;
  BumpCounter("store_scrubs_total", 1);
  if (report.corruption_found) {
    // Bit rot in bytes that were once verified durable. The in-memory
    // state is still the acknowledged truth, so a rotation rewrites a
    // fully valid log from it — detection *and* repair in one pass.
    ++faults_.scrub_corruption;
    BumpCounter("store_scrub_corruption_total", 1);
    report.repaired = RotateLocked().ok();
  }
  return report;
}

VersionStore::FaultCounters VersionStore::fault_counters() const {
  MutexLock lock(&mu_);
  return faults_;
}

LogFormat VersionStore::log_format() const {
  MutexLock lock(&mu_);
  return log_format_;
}

uint64_t VersionStore::DurableOffset() const {
  MutexLock lock(&mu_);
  return writer_ ? writer_->offset() : 0;
}

uint64_t VersionStore::rotations() const {
  MutexLock lock(&mu_);
  return faults_.rotations;
}

uint64_t VersionStore::epoch() const {
  MutexLock lock(&mu_);
  return epoch_;
}

Status VersionStore::BumpEpoch(uint64_t new_epoch) {
  MutexLock lock(&mu_);
  if (!durable()) {
    return Status::FailedPrecondition("epoch bump on a non-durable store");
  }
  if (!io_status_.ok()) {
    return Status::FailedPrecondition(
        "store is poisoned by an earlier I/O error: " + io_status_.message());
  }
  if (new_epoch <= epoch_) {
    return Status::InvalidArgument(
        "epoch must advance: " + std::to_string(new_epoch) + " <= " +
        std::to_string(epoch_));
  }
  if (log_format_ == LogFormat::kV1) {
    // Format-1 records have no epoch field to stamp; upgrade by rotation
    // (which rewrites in format 2) before announcing the bump.
    TREEDIFF_RETURN_IF_ERROR(RotateLocked());
  }
  // Stamp first so the kEpoch record itself — and any rotation a retry
  // performs — already carries the new epoch.
  epoch_ = new_epoch;
  writer_->set_epoch(new_epoch);
  std::string payload;
  PutVarint64(&payload, new_epoch);
  return AppendDurable(LogRecordType::kEpoch, payload);
}

StatusOr<VersionStore> VersionStore::Create(const std::string& path, Tree base,
                                            DiffOptions options,
                                            StoreOptions store_options) {
  Env* env = store_options.env ? store_options.env : Env::Default();
  if (env->FileExists(path)) {
    return Status::FailedPrecondition("store already exists: " + path);
  }
  VersionStore store(std::move(base), options);
  store.durable_ = true;
  store.env_ = env;
  store.path_ = path;
  store.store_options_ = std::move(store_options);
  {
    MutexLock lock(&store.mu_);  // Satisfies the analysis; no contention yet.
    // The rotation's publish step: a crash anywhere before its rename
    // leaves no (possibly half-written) store at `path`.
    TREEDIFF_RETURN_IF_ERROR(store.PublishLocked(/*quarantine_old=*/false));
  }
  return store;
}

StatusOr<LogScanResult> ScanStoreLog(const std::string& path,
                                     const StoreOptions& store_options,
                                     uint64_t* retries) {
  Env* env = store_options.env ? store_options.env : Env::Default();
  auto file = env->NewRandomAccessFile(path);
  if (!file.ok()) return file.status();  // NotFound / InvalidArgument(dir).
  {
    auto size = (*file)->Size();
    if (size.ok() && *size == 0) {
      return Status::DataLoss("store log is empty (zero-length file): " +
                              path);
    }
  }

  // Scan with a retry budget: a transient short read must not be mistaken
  // for a torn tail (ScanLog fails such reads with kUnavailable).
  LogScanOptions scan_options;
  scan_options.salvage = store_options.recovery == RecoveryMode::kSalvage;
  StatusOr<LogScanResult> scan = Status::Internal("scan never ran");
  Retryer retryer(store_options.retry, store_options.sleep);
  Status scanned = retryer.Run([&]() {
    scan = ScanLog(file->get(), scan_options);
    return scan.status();
  });
  *retries += retryer.total_retries();
  if (!scanned.ok()) {
    if (scanned.code() == Code::kParseError) {
      // Bad or truncated magic: the file is not (or no longer) a log.
      return Status::DataLoss("unrecoverable store " + path + ": " +
                              scanned.message());
    }
    return scanned;
  }
  if (scan->records.empty() ||
      scan->records[0].type != LogRecordType::kSnapshot ||
      scan->records[0].resynced) {
    return Status::DataLoss(
        "unrecoverable store: the base snapshot record is missing or "
        "corrupt: " + path);
  }
  return scan;
}

StatusOr<VersionStore> VersionStore::Open(const std::string& path,
                                          DiffOptions options,
                                          StoreOptions store_options,
                                          RecoveryReport* report) {
  Env* env = store_options.env ? store_options.env : Env::Default();
  const bool salvage = store_options.recovery == RecoveryMode::kSalvage;
  uint64_t scan_retries = 0;
  StatusOr<LogScanResult> scan =
      ScanStoreLog(path, store_options, &scan_retries);
  if (!scan.ok()) return scan.status();

  std::shared_ptr<LabelTable> labels =
      store_options.labels ? store_options.labels
                           : std::make_shared<LabelTable>();
  StatusOr<Tree> base = DecodeTree(scan->records[0].payload, labels);
  if (!base.ok()) {
    return Status::DataLoss("unrecoverable store: base snapshot of " + path +
                            ": " + base.status().message());
  }

  // Replay the record sequence into the logical state (a segment chain —
  // one segment for a healthy log; salvage adds one per re-anchoring
  // checkpoint). Under kTruncate a record that passes its checksum but
  // fails payload-level validation is treated exactly like a corrupt tail:
  // accept the prefix before it, truncate it and everything after
  // (`accepted_end` tracks the truncation point). Under kSalvage it is
  // skipped and the chain stays broken (`in_hole`) until the next
  // re-anchoring checkpoint.
  std::vector<Segment> segments(1);
  segments[0].first = 0;
  segments[0].anchor = base->Clone();
  segments[0].anchor_full_size = base->DebugStringSize();
  struct InnerCheckpoint {
    int version;
    std::string payload;  // Codec bytes (payload minus the version varint).
  };
  std::optional<InnerCheckpoint> checkpoint;  // Replay bound, last segment.
  const size_t header_size = LogRecordHeaderSize(scan->format);
  uint64_t accepted_end =
      scan->records[0].offset + header_size + scan->records[0].payload.size();
  size_t accepted_records = 1;
  size_t records_skipped = 0;
  std::vector<SkippedRange> payload_holes;
  bool invalid_record = false;
  bool in_hole = false;
  // The recovered fencing epoch: the max over every accepted record's
  // header stamp and every kEpoch announcement. Headers alone would do for
  // an intact log; the explicit records make the value survive rewrites.
  uint64_t epoch_seen = scan->records[0].epoch;

  auto head_version = [&segments]() {
    return segments.back().first +
           static_cast<int>(segments.back().scripts.size());
  };
  auto record_end = [header_size](const LogScanRecord& r) {
    return r.offset + header_size + r.payload.size();
  };

  for (size_t i = 1; i < scan->records.size(); ++i) {
    const LogScanRecord& record = scan->records[i];
    if (record.resynced) in_hole = true;  // A damaged range precedes it.
    std::string_view payload = record.payload;
    bool used = true;
    // Rejects this record. Without salvage that ends the accepted prefix.
    // Under salvage the record is skipped, and with `break_chain` the
    // versions the rest of the log describes can no longer be derived, so
    // replay stays in the hole until a checkpoint re-anchors it.
    auto reject = [&](bool break_chain) {
      if (!salvage) {
        invalid_record = true;
        return;
      }
      used = false;
      ++records_skipped;
      payload_holes.push_back({record.offset, record_end(record)});
      if (break_chain) in_hole = true;
    };
    switch (record.type) {
      case LogRecordType::kDelta: {
        if (in_hole) {
          // Deltas carry no version number; after a gap there is no way to
          // know which version this one produces.
          reject(true);
          break;
        }
        uint64_t nodes = 0, full_size = 0;
        double cost = 0.0;
        StatusOr<EditScript> script = Status::ParseError("bad delta header");
        if (DecodeDeltaHeader(&payload, &nodes, &full_size, &cost)) {
          script = ParseEditScript(payload, labels.get());
        }
        if (!script.ok()) {
          reject(true);
          break;
        }
        VersionInfo info;
        info.inserts = script->num_inserts();
        info.deletes = script->num_deletes();
        info.updates = script->num_updates();
        info.moves = script->num_moves();
        info.cost = cost;
        info.nodes = static_cast<size_t>(nodes);
        Segment& last = segments.back();
        last.scripts.push_back(std::move(*script));
        last.infos.push_back(info);
        last.full_sizes.push_back(static_cast<size_t>(full_size));
        break;
      }
      case LogRecordType::kCheckpoint: {
        uint64_t version64 = 0;
        if (!GetVarint64(&payload, &version64)) {
          reject(true);
          break;
        }
        const int version = static_cast<int>(version64);
        const int head = head_version();
        if (version == head && !in_hole) {
          // The normal interval checkpoint: a replay bound for rebuilding
          // the head without touching the chain.
          checkpoint = InnerCheckpoint{version, std::string(payload)};
          break;
        }
        if (version > head || (in_hole && version >= segments.back().first)) {
          // A re-anchoring checkpoint: either a version jump written by a
          // salvage rewrite, or the first trustworthy state after a
          // damaged range. The checkpoint is self-describing (version +
          // full tree), so the chain resumes here.
          StatusOr<Tree> anchor = DecodeTree(payload, labels);
          if (!anchor.ok()) {
            reject(true);
            break;
          }
          Segment& last = segments.back();
          // Drop any scripts the new anchor shadows (possible only when
          // re-anchoring inside a hole at the current head version, e.g.
          // the gap swallowed a rollback+recommit pair): the checkpoint,
          // being later in the log, is authoritative for its version.
          while (!last.scripts.empty() &&
                 last.first + static_cast<int>(last.scripts.size()) >=
                     version) {
            last.scripts.pop_back();
            last.infos.pop_back();
            last.full_sizes.pop_back();
          }
          if (last.first == version && last.scripts.empty() &&
              segments.size() > 1) {
            last.anchor = std::move(*anchor);
            last.anchor_full_size = last.anchor.DebugStringSize();
          } else {
            Segment seg;
            seg.first = version;
            seg.anchor = std::move(*anchor);
            seg.anchor_full_size = seg.anchor.DebugStringSize();
            segments.push_back(std::move(seg));
          }
          checkpoint.reset();
          in_hole = false;
          break;
        }
        // A checkpoint of an older version (stale after rollbacks, or
        // scrambled): useless but harmless — the chain is unaffected.
        reject(false);
        break;
      }
      case LogRecordType::kRollback: {
        if (in_hole) {
          reject(true);
          break;
        }
        uint64_t dropped = 0;
        Segment& last = segments.back();
        if (!GetVarint64(&payload, &dropped) || last.scripts.empty() ||
            static_cast<int>(dropped) != head_version()) {
          reject(true);
          break;
        }
        last.scripts.pop_back();
        last.infos.pop_back();
        last.full_sizes.pop_back();
        // A checkpoint of a version the rollback discarded no longer
        // describes any surviving state.
        if (checkpoint && checkpoint->version > head_version()) {
          checkpoint.reset();
        }
        break;
      }
      case LogRecordType::kEpoch: {
        // A fencing bump. Self-describing (the payload repeats the epoch),
        // so it is trusted even inside a salvage hole — it affects only the
        // epoch high-water mark, never the version chain.
        uint64_t announced = 0;
        if (!GetVarint64(&payload, &announced)) {
          reject(false);
          break;
        }
        epoch_seen = std::max(epoch_seen, announced);
        break;
      }
      case LogRecordType::kSnapshot:  // Only the first record may be one.
      default:                        // Or a type from a future version.
        reject(true);
        break;
    }
    if (invalid_record) break;
    // Salvage keeps scanning past skipped records; truncation mode only
    // reaches here for records it accepted.
    accepted_end = record_end(record);
    if (used) {
      ++accepted_records;
      epoch_seen = std::max(epoch_seen, record.epoch);
    }
  }

  // Rebuild the head: the last segment's anchor (or the newest surviving
  // in-segment checkpoint, bounding replay cost) plus its deltas.
  const Segment& tail_segment = segments.back();
  Tree head;
  size_t replay_from = 0;  // Index into tail_segment.scripts.
  int checkpoint_version = -1;
  if (checkpoint) {
    StatusOr<Tree> decoded = DecodeTree(checkpoint->payload, labels);
    if (decoded.ok()) {
      head = std::move(*decoded);
      replay_from =
          static_cast<size_t>(checkpoint->version - tail_segment.first);
      checkpoint_version = checkpoint->version;
    }
  }
  if (checkpoint_version < 0) {
    head = tail_segment.anchor.Clone();
    if (tail_segment.first > 0) checkpoint_version = tail_segment.first;
  }
  for (size_t i = replay_from; i < tail_segment.scripts.size(); ++i) {
    Status applied = tail_segment.scripts[i].ApplyTo(&head);
    if (!applied.ok()) {
      return Status::Internal(
          "recovery replay failed at delta " +
          std::to_string(tail_segment.first + static_cast<int>(i) + 1) +
          ": " + applied.message());
    }
  }
  const size_t deltas_replayed = tail_segment.scripts.size() - replay_from;

  size_t versions_lost = 0;
  for (size_t k = 0; k + 1 < segments.size(); ++k) {
    versions_lost += static_cast<size_t>(
        segments[k + 1].first - segments[k].first -
        static_cast<int>(segments[k].scripts.size()) - 1);
  }
  size_t versions_recovered = 0;
  for (const Segment& seg : segments) {
    versions_recovered += seg.scripts.size() + 1;
  }

  VersionStore store;
  store.base_ = std::move(*base);
  store.options_ = options;
  store.durable_ = true;
  store.env_ = env;
  store.path_ = path;
  store.store_options_ = store_options;
  {
    MutexLock lock(&store.mu_);  // Satisfies the analysis; no contention yet.
    store.head_ = std::move(head);
    store.segments_ = std::move(segments);
    store.commits_since_checkpoint_ = static_cast<int>(
        store.segments_.back().scripts.size() - replay_from);
    store.faults_.salvage_skipped = records_skipped;
    store.log_format_ = scan->format;
    store.epoch_ = epoch_seen;
    store.AddRetriesLocked(scan_retries);
  }
  if (records_skipped > 0) {
    MutexLock lock(&store.mu_);
    store.BumpCounter("store_salvage_records_skipped_total", records_skipped);
  }

  const bool damaged_interior = !scan->skipped.empty() || records_skipped > 0;
  bool rotated = false;
  if (salvage && damaged_interior) {
    // Interior damage cannot be truncated away. Rewrite the log compactly
    // from the recovered state (re-anchoring checkpoints bridge the holes)
    // and quarantine the damaged original — crash-safe because `path` is
    // swapped atomically and the old log stays salvageable until then.
    MutexLock lock(&store.mu_);
    Retryer retryer(store_options.retry, store_options.sleep);
    const Status rotation = retryer.Run(
        [&]() REQUIRES(store.mu_) { return store.RotateLocked(); });
    store.AddRetriesLocked(retryer.total_retries());
    TREEDIFF_RETURN_IF_ERROR(rotation);
    rotated = true;
  } else {
    // Tail-only damage (or none): physically drop the rejected tail so the
    // next commit appends to a log whose every byte is valid.
    if (accepted_end < scan->file_size) {
      TREEDIFF_RETURN_IF_ERROR(env->TruncateFile(path, accepted_end));
    }
    auto append = env->NewWritableFile(path, /*truncate=*/false);
    if (!append.ok()) return append.status();
    MutexLock lock(&store.mu_);
    // Appends continue in the format the log already uses: a clean open of
    // a pre-replication (format-1) log leaves its bytes untouched.
    store.writer_ = std::make_unique<LogWriter>(
        std::move(*append), accepted_end, scan->format, epoch_seen);
  }

  if (report) {
    report->bytes_total = scan->file_size;
    report->bytes_truncated = rotated ? 0 : scan->file_size - accepted_end;
    report->records_scanned = accepted_records;
    report->checksum_failures = scan->checksum_failures;
    report->torn_tail = scan->torn_tail;
    report->versions_recovered = versions_recovered;
    report->deltas_replayed = deltas_replayed;
    report->checkpoint_version = checkpoint_version;
    report->records_skipped = records_skipped;
    report->versions_lost = versions_lost;
    report->rotated = rotated;
    report->salvage_ranges = scan->skipped;
    report->salvage_ranges.insert(report->salvage_ranges.end(),
                                  payload_holes.begin(), payload_holes.end());
    std::sort(report->salvage_ranges.begin(), report->salvage_ranges.end(),
              [](const SkippedRange& a, const SkippedRange& b) {
                return a.begin < b.begin;
              });
  }
  return store;
}

}  // namespace treediff
