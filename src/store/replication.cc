#include "store/replication.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

#include "store/codec.h"
#include "store/log.h"
#include "util/crc32c.h"
#include "util/retry.h"

namespace treediff {
namespace {

/// Verification of one shipped byte range before it touches a follower's
/// log. Every record is decoded by recovery's own decoder (DecodeLogRecord
/// in store/log.h): a follower never appends a byte it has not
/// independently checksummed, so a primary-side read error (or a rotation
/// racing the copy) is caught here instead of being replayed into every
/// downstream open. What remains here is the fence and epoch bookkeeping.
struct BatchCheck {
  bool valid = false;          // Framing and every CRC verified.
  bool stale = false;          // Some record violates the epoch fence.
  size_t records = 0;
  uint64_t top_epoch = 0;      // Highest epoch stamped in the batch.
  uint64_t top_epoch_offset = 0;  // Absolute offset of that record.
};

BatchCheck CheckBatch(std::string_view batch, uint64_t base_offset,
                      LogFormat format, uint64_t fence_epoch,
                      uint64_t fence_cursor) {
  BatchCheck out;
  std::string_view rest = batch;
  if (base_offset == 0 && ConsumeLogMagic(&rest) != format) return out;
  while (!rest.empty()) {
    const LogRecordView record = DecodeLogRecord(rest, format);
    if (record.state != LogRecordState::kValid) return out;
    const uint64_t abs = base_offset + (batch.size() - rest.size());
    if (record.epoch < fence_epoch && abs >= fence_cursor) out.stale = true;
    if (record.epoch > out.top_epoch) {
      out.top_epoch = record.epoch;
      out.top_epoch_offset = abs;
    }
    ++out.records;
    rest.remove_prefix(record.size);
  }
  out.valid = true;
  return out;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

const char* ReplicaRoleName(ReplicaRole role) {
  switch (role) {
    case ReplicaRole::kPrimary:
      return "primary";
    case ReplicaRole::kFollower:
      return "follower";
    case ReplicaRole::kDeposed:
      return "deposed";
  }
  return "unknown";
}

namespace {

/// Fills in Env::Default() and rejects an empty path.
Status NormalizeReplicas(std::vector<ReplicaConfig>* replicas) {
  for (ReplicaConfig& r : *replicas) {
    if (r.env == nullptr) r.env = Env::Default();
    if (r.path.empty()) {
      return Status::InvalidArgument("replication: replica path is empty");
    }
  }
  return Status::Ok();
}

/// What a replica's log says about its history, read without writing.
struct LogProbe {
  uint64_t epoch = 0;        // Highest epoch its valid records carry.
  uint64_t valid_bytes = 0;  // End of the last valid record.
  std::string base;          // Codec bytes of version 0.
};

/// Scans the log of `replica` with VersionStore::Open's own first step
/// (ScanStoreLog), which only reads it. kNotFound when there is no log,
/// kDataLoss when it holds no usable base snapshot (nothing to recover
/// from it). The scan's transient-fault retries are added to `*retries`.
StatusOr<LogProbe> ProbeLog(const ReplicaConfig& replica,
                            StoreOptions store_options, uint64_t* retries) {
  store_options.env = replica.env;
  StatusOr<LogScanResult> scan =
      ScanStoreLog(replica.path, store_options, retries);
  if (!scan.ok()) return scan.status();
  LogProbe probe;
  probe.valid_bytes = scan->durable_prefix;
  probe.base = std::move(scan->records[0].payload);
  for (const LogScanRecord& record : scan->records) {
    probe.epoch = std::max(probe.epoch, record.epoch);
    std::string_view payload = record.payload;
    uint64_t announced = 0;
    if (record.type == LogRecordType::kEpoch &&
        GetVarint64(&payload, &announced)) {
      probe.epoch = std::max(probe.epoch, announced);
    }
  }
  return probe;
}

}  // namespace

StatusOr<std::unique_ptr<ReplicatedVersionStore>> ReplicatedVersionStore::
    Create(std::vector<ReplicaConfig> replicas, Tree base,
           DiffOptions diff_options, ReplicationOptions options) {
  TREEDIFF_RETURN_IF_ERROR(NormalizeReplicas(&replicas));
  std::shared_ptr<LabelTable> labels = base.label_table();
  std::shared_ptr<VersionStore> primary_store;
  if (replicas.empty()) {
    // A group of one in memory: the primary has no log to ship or scrub.
    primary_store =
        std::make_shared<VersionStore>(std::move(base), diff_options);
    replicas.emplace_back();
  } else {
    StoreOptions so = options.store_options;
    so.env = replicas[0].env;
    so.labels = labels;
    auto primary = VersionStore::Create(replicas[0].path, std::move(base),
                                        diff_options, so);
    if (!primary.ok()) return primary.status();
    primary_store = std::make_shared<VersionStore>(std::move(*primary));
  }
  auto group =
      Assemble(std::move(replicas), std::move(primary_store), /*leader=*/0,
               std::move(labels), diff_options, std::move(options));
  group->StartShipper();
  return group;
}

StatusOr<std::unique_ptr<ReplicatedVersionStore>> ReplicatedVersionStore::
    Open(std::vector<ReplicaConfig> replicas, const Tree& base,
         DiffOptions diff_options, ReplicationOptions options) {
  if (replicas.empty()) {
    return Status::InvalidArgument(
        "replication: an in-memory group has no log to recover");
  }
  TREEDIFF_RETURN_IF_ERROR(NormalizeReplicas(&replicas));

  // Find the replica that led last before any log is written. A promotion
  // durably raises the new primary's epoch, so the highest epoch marks the
  // last leader; within one epoch every follower log is a byte prefix of
  // the leader's, so the longest valid log wins. A replica with no log or
  // no usable base is skipped (it is recopied below); one that cannot be
  // read at all fails the open, since it might be the one that led.
  int leader = -1;
  LogProbe best;
  Status absent = Status::Ok();
  uint64_t probe_retries = 0;
  for (size_t i = 0; i < replicas.size(); ++i) {
    StatusOr<LogProbe> probe =
        ProbeLog(replicas[i], options.store_options, &probe_retries);
    if (!probe.ok()) {
      const Code code = probe.status().code();
      if (code != Code::kNotFound && code != Code::kDataLoss) {
        return probe.status();
      }
      if (absent.ok() || absent.code() == Code::kNotFound) {
        absent = probe.status();
      }
      continue;
    }
    if (leader < 0 || probe->epoch > best.epoch ||
        (probe->epoch == best.epoch && probe->valid_bytes > best.valid_bytes)) {
      leader = static_cast<int>(i);
      best = std::move(*probe);
    }
  }
  if (leader < 0) return absent;
  const ReplicaConfig& led = replicas[static_cast<size_t>(leader)];
  StatusOr<Tree> recorded_base = DecodeTree(best.base, base.label_table());
  if (!recorded_base.ok()) {
    return Status::DataLoss("replication: base snapshot of " + led.path +
                            ": " + recorded_base.status().message());
  }
  if (!Tree::Isomorphic(*recorded_base, base)) {
    return Status::FailedPrecondition(
        "replication: the base differs from version 0 of the store at " +
        led.path);
  }

  StoreOptions so = options.store_options;
  so.env = led.env;
  so.labels = base.label_table();
  auto primary = VersionStore::Open(led.path, diff_options, so);
  if (!primary.ok()) return primary.status();
  auto primary_store = std::make_shared<VersionStore>(std::move(*primary));
  primary_store->AddRetries(probe_retries);
  const uint64_t epoch = primary_store->epoch();
  auto group = Assemble(std::move(replicas), primary_store, leader,
                        base.label_table(), diff_options, std::move(options));
  {
    MutexLock lock(&group->mu_);
    group->epoch_ = epoch;
  }
  // A follower's old log may trail the primary or hold a suffix the
  // primary never kept; recopying from scratch is the one catch-up that is
  // right in every case.
  for (size_t i = 0; i < group->states_.size(); ++i) {
    if (static_cast<int>(i) == leader) continue;
    ReplicaState* state = group->states_[i].get();
    MutexLock lock(&state->mu);
    TREEDIFF_RETURN_IF_ERROR(group->ResyncLocked(state, primary_store));
  }
  group->StartShipper();
  return group;
}

std::unique_ptr<ReplicatedVersionStore> ReplicatedVersionStore::Assemble(
    std::vector<ReplicaConfig> replicas, std::shared_ptr<VersionStore> primary,
    int leader, std::shared_ptr<LabelTable> labels, DiffOptions diff_options,
    ReplicationOptions options) {
  auto group =
      std::unique_ptr<ReplicatedVersionStore>(new ReplicatedVersionStore());
  group->diff_options_ = diff_options;
  group->options_ = std::move(options);
  group->labels_ = std::move(labels);
  {
    MutexLock lock(&group->mu_);
    group->primary_index_ = leader;
  }
  for (size_t i = 0; i < replicas.size(); ++i) {
    auto state = std::make_unique<ReplicaState>();
    state->config = replicas[i];
    MutexLock lock(&state->mu);
    if (static_cast<int>(i) == leader) {
      state->role = ReplicaRole::kPrimary;
      state->store = primary;
    } else {
      state->role = ReplicaRole::kFollower;
      state->source_epoch = primary->epoch();
      state->primary_rotations = primary->rotations();
    }
    group->states_.push_back(std::move(state));
  }
  return group;
}

void ReplicatedVersionStore::StartShipper() {
  if (options_.background_ship && states_.size() > 1) {
    shipper_ = std::thread([this] { ShipLoop(); });
  }
}

ReplicatedVersionStore::~ReplicatedVersionStore() {
  {
    MutexLock lock(&ship_mu_);
    stop_ = true;
  }
  ship_cv_.SignalAll();
  if (shipper_.joinable()) shipper_.join();
}

void ReplicatedVersionStore::ShipLoop() {
  for (;;) {
    {
      MutexLock lock(&ship_mu_);
      if (stop_) return;
      ship_cv_.WaitFor(&ship_mu_, options_.poll_interval_seconds);
      if (stop_) return;
    }
    PumpFollowers().IgnoreError();
  }
}

std::shared_ptr<VersionStore> ReplicatedVersionStore::PrimarySnapshot() const {
  MutexLock lock(&mu_);
  ReplicaState* state = states_[static_cast<size_t>(primary_index_)].get();
  MutexLock state_lock(&state->mu);
  return state->store;
}

CommitLease ReplicatedVersionStore::lease() const {
  MutexLock lock(&mu_);
  return CommitLease{epoch_};
}

uint64_t ReplicatedVersionStore::epoch() const {
  MutexLock lock(&mu_);
  return epoch_;
}

int ReplicatedVersionStore::primary_index() const {
  MutexLock lock(&mu_);
  return primary_index_;
}

std::shared_ptr<VersionStore> ReplicatedVersionStore::primary() const {
  return PrimarySnapshot();
}

StatusOr<int> ReplicatedVersionStore::Commit(const Tree& new_version) {
  return CommitWithLease(new_version, lease());
}

StatusOr<int> ReplicatedVersionStore::CommitWithLease(
    const Tree& new_version, const CommitLease& commit_lease) {
  std::shared_ptr<VersionStore> primary;
  uint64_t target = 0;
  Layout layout;
  int version = 0;
  {
    // The lease check and the primary append are atomic with respect to
    // promotions (which also hold commit_mu_): a deposed primary cannot
    // slip a write in between losing the check and reaching the log.
    MutexLock commit_lock(&commit_mu_);
    {
      MutexLock lock(&mu_);
      if (commit_lease.epoch != epoch_) {
        return Status::FailedPrecondition(
            "fenced: commit lease is from epoch " +
            std::to_string(commit_lease.epoch) + ", group is at epoch " +
            std::to_string(epoch_));
      }
      ReplicaState* state = states_[static_cast<size_t>(primary_index_)].get();
      MutexLock state_lock(&state->mu);
      primary = state->store;
    }
    auto committed = primary->Commit(new_version);
    if (!committed.ok()) return committed.status();
    version = *committed;
    target = primary->DurableOffset();
    layout = {primary->epoch(), primary->rotations()};
  }
  ship_cv_.Signal();  // Wake the shipper for the new bytes.

  if (options_.ack_mode == AckMode::kLeaderOnly) return version;

  // Quorum wait: block until a majority of the non-deposed replica set has
  // fsynced up to `target` of `layout`. The primary's own fsync already
  // happened inside Commit, so it votes immediately; a follower votes only
  // while it copies that layout. A promotion mid-wait is fine ONLY if
  // every promotion since our append kept `target` bytes of the record's
  // layout — then the record sits inside the byte prefix all streams share
  // and cursor comparisons stay meaningful. Any other promotion replaced
  // our record's bytes with the new primary's stream; counting cursors
  // against that stream would ack a commit that no surviving replica
  // holds, so the wait fails as unacked instead. The check and the count
  // share one lock, so no promotion lands between them.
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    int votes = 0;
    int voters = 0;
    {
      MutexLock lock(&mu_);
      Layout current = layout;
      if (epoch_ != commit_lease.epoch) {
        // Every promotion bumps the epoch by one and appends to the
        // history, so the promotions since our append are exactly the
        // entries with epoch > commit_lease.epoch — provided none were
        // evicted (front() must reach back to our epoch + 1).
        bool survived = !promotion_history_.empty() &&
                        promotion_history_.front().epoch <=
                            commit_lease.epoch + 1;
        for (const Promotion& promotion : promotion_history_) {
          if (promotion.epoch <= commit_lease.epoch) continue;
          if (promotion.from != current || promotion.kept < target) {
            survived = false;
          }
          current = {promotion.epoch, 0};
        }
        if (!survived) {
          quorum_timeouts_.fetch_add(1, std::memory_order_relaxed);
          BumpMetric("replication_quorum_timeouts_total");
          return Status::Unavailable(
              "failover during ack wait: commit " + std::to_string(version) +
              " was never quorum-acked and the promoted follower's log does "
              "not contain it");
        }
      }
      for (const auto& state_ptr : states_) {
        ReplicaState* state = state_ptr.get();
        MutexLock state_lock(&state->mu);
        if (state->role == ReplicaRole::kDeposed) continue;
        ++voters;
        if (state->role == ReplicaRole::kPrimary) {
          if (state->store && state->store->DurableOffset() >= target) ++votes;
        } else if (Layout{state->source_epoch, state->primary_rotations} ==
                       current &&
                   state->cursor >= target) {
          ++votes;
        }
      }
    }
    const double elapsed = SecondsSince(start);
    if (votes * 2 > voters) {
      ObserveMetric("replication_ack_seconds", elapsed);
      return version;
    }
    if (elapsed >= options_.ack_timeout_seconds) {
      quorum_timeouts_.fetch_add(1, std::memory_order_relaxed);
      BumpMetric("replication_quorum_timeouts_total");
      return Status::Unavailable(
          "quorum timeout: commit " + std::to_string(version) +
          " is durable on the primary but only " + std::to_string(votes) +
          "/" + std::to_string(voters) +
          " replicas acked; a failover may lose it");
    }
    if (!options_.background_ship) {
      // Deterministic mode: the committing thread does the shipping work
      // itself instead of waiting for a thread that does not exist.
      PumpFollowers().IgnoreError();
    } else {
      MutexLock lock(&ack_mu_);
      ack_cv_.WaitFor(&ack_mu_,
                      std::min(0.005, options_.ack_timeout_seconds - elapsed));
    }
  }
}

Status ReplicatedVersionStore::PumpFollowers() {
  Status first;
  for (const auto& state : states_) {
    Status st = PumpOne(state.get());
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

Status ReplicatedVersionStore::PumpOne(ReplicaState* state) {
  std::shared_ptr<VersionStore> primary = PrimarySnapshot();
  if (!primary) {
    return Status::FailedPrecondition("replication: group has no primary");
  }

  MutexLock lock(&state->mu);
  if (state->role != ReplicaRole::kFollower) return Status::Ok();
  // A snapshot older than the promotion that re-pointed this follower is
  // stale; the next round ships from the new primary.
  if (state->source_epoch != primary->epoch()) return Status::Ok();

  // A rewritten primary log (rotation: self-heal, scrub repair, salvage)
  // invalidates byte offsets wholesale — the cursor means nothing against
  // the new layout, so the follower recopies from scratch.
  if (state->primary_rotations != primary->rotations() ||
      primary->DurableOffset() < state->cursor) {
    Status st = ResyncLocked(state, primary);
    if (!st.ok()) return st;
  }

  const LogFormat format = primary->log_format();
  const uint64_t target = primary->DurableOffset();
  if (target <= state->cursor) {
    ObserveMetric("replication_follower_lag_bytes", 0.0);
    return Status::Ok();
  }

  auto file = primary->env()->NewRandomAccessFile(primary->log_path());
  if (!file.ok()) return file.status();
  auto batch = (*file)->Read(state->cursor,
                             static_cast<size_t>(target - state->cursor));
  if (!batch.ok()) return batch.status();
  if (batch->size() != target - state->cursor) {
    return Status::Unavailable("replication: short read of primary log");
  }

  const BatchCheck check = CheckBatch(*batch, state->cursor, format,
                                      state->fence_epoch, state->fence_cursor);
  // The fence verdict outranks a torn tail: `stale` is only ever set for a
  // record whose CRC verified, so a zombie writer's well-formed stale
  // record is rejected as such even when the bytes after it are garbage.
  if (check.stale) {
    stale_epoch_rejects_.fetch_add(1, std::memory_order_relaxed);
    BumpMetric("replication_stale_epoch_rejects_total");
    return Status::FailedPrecondition(
        "replication: rejected batch carrying a fenced (stale) epoch");
  }
  if (!check.valid) {
    // Garbage can be benign (a rotation racing the read); the next round
    // re-detects and resyncs. It is never appended.
    return Status::Unavailable(
        "replication: shipped batch failed CRC verification");
  }

  Status st = AppendBatchLocked(state, *batch, primary.get());
  if (!st.ok()) return st;

  state->chain = Crc32cExtend(state->chain, batch->data(), batch->size());
  state->cursor = target;
  state->records += check.records;
  if (check.top_epoch > state->fence_epoch) {
    state->fence_epoch = check.top_epoch;
    state->fence_cursor = check.top_epoch_offset;
  }
  records_shipped_.fetch_add(check.records, std::memory_order_relaxed);
  bytes_shipped_.fetch_add(batch->size(), std::memory_order_relaxed);
  BumpMetric("replication_records_shipped_total", check.records);
  BumpMetric("replication_bytes_shipped_total", batch->size());
  ObserveMetric("replication_follower_lag_bytes",
                static_cast<double>(primary->DurableOffset() - target));
  ack_cv_.SignalAll();
  return Status::Ok();
}

Status ReplicatedVersionStore::ResyncLocked(
    ReplicaState* state, const std::shared_ptr<VersionStore>& primary) {
  resyncs_.fetch_add(1, std::memory_order_relaxed);
  BumpMetric("replication_resyncs_total");
  state->out.reset();
  state->cursor = 0;
  state->chain = 0;
  state->records = 0;
  state->dirty = false;
  // The recopy comes from the current primary's (rewritten) log, which is
  // trusted in full; the fence re-arms from the kEpoch record the rewrite
  // preserved. Offsets in the old layout no longer mean anything.
  state->fence_epoch = 0;
  state->fence_cursor = 0;
  state->source_epoch = primary->epoch();
  state->primary_rotations = primary->rotations();
  state->config.env->DeleteFile(state->config.path).IgnoreError();
  return Status::Ok();
}

Status ReplicatedVersionStore::AppendBatchLocked(ReplicaState* state,
                                                 std::string_view batch,
                                                 VersionStore* primary) {
  Env* env = state->config.env;
  const std::string& path = state->config.path;
  Retryer retryer(options_.store_options.retry, options_.store_options.sleep);
  const Status appended = retryer.Run([&]() REQUIRES(state->mu) {
    // Repair a torn local tail first: a failed append may have persisted a
    // prefix of the batch, and appending after garbage corrupts everything
    // downstream of it. Truncating back to the cursor restores the
    // last-known-good state.
    if (state->dirty) {
      TREEDIFF_RETURN_IF_ERROR(env->TruncateFile(path, state->cursor));
      state->dirty = false;
    }
    if (!state->out) {
      auto out = env->NewWritableFile(path, /*truncate=*/state->cursor == 0);
      if (!out.ok()) return out.status();
      state->out = std::move(*out);
    }
    Status st = state->out->Append(batch);
    if (!st.ok()) {
      state->dirty = true;  // A prefix may have landed (torn append).
      return st;
    }
    st = state->out->Sync();
    if (!st.ok()) {
      // Never re-issue an fsync over the same bytes and trust the second
      // OK (the fsyncgate lesson, same as the store's rotation policy):
      // discard the suspect suffix and rewrite it through a fresh handle.
      state->dirty = true;
      state->out.reset();
    }
    return st;
  });
  primary->AddRetries(retryer.total_retries());
  return appended;
}

StatusOr<int> ReplicatedVersionStore::Promote(int follower_index) {
  return PromoteInternal(follower_index, nullptr);
}

StatusOr<int> ReplicatedVersionStore::PromoteIfEpoch(int follower_index,
                                                     uint64_t expected_epoch) {
  return PromoteInternal(follower_index, &expected_epoch);
}

StatusOr<int> ReplicatedVersionStore::PromoteInternal(
    int follower_index, const uint64_t* expected_epoch) {
  MutexLock commit_lock(&commit_mu_);
  MutexLock lock(&mu_);
  if (expected_epoch != nullptr && *expected_epoch != epoch_) {
    return Status::FailedPrecondition(
        "lost promotion race: expected epoch " +
        std::to_string(*expected_epoch) + ", group is at epoch " +
        std::to_string(epoch_));
  }

  // Pick the most-caught-up follower unless the caller named one. Maximal
  // cursor is what makes quorum acks durable across the failover: the
  // longest follower log contains every byte any majority fsynced — within
  // one layout. A follower's first pump after a rotation copies the whole
  // rewritten log, so any bytes of a newer layout outrank an older one.
  int candidate = -1;
  uint64_t candidate_cursor = 0;
  Layout candidate_layout;
  if (follower_index >= 0) {
    if (follower_index >= static_cast<int>(states_.size())) {
      return Status::OutOfRange("replication: no replica " +
                                std::to_string(follower_index));
    }
    ReplicaState* state = states_[static_cast<size_t>(follower_index)].get();
    MutexLock state_lock(&state->mu);
    if (state->role != ReplicaRole::kFollower) {
      return Status::FailedPrecondition(
          "replication: replica " + std::to_string(follower_index) + " is " +
          ReplicaRoleName(state->role) + ", not a follower");
    }
    candidate = follower_index;
    candidate_cursor = state->cursor;
    candidate_layout = {state->source_epoch, state->primary_rotations};
  } else {
    auto rank = [](uint64_t cursor, const Layout& layout) {
      return std::make_tuple(cursor > 0, layout, cursor);
    };
    for (size_t i = 0; i < states_.size(); ++i) {
      ReplicaState* state = states_[i].get();
      MutexLock state_lock(&state->mu);
      if (state->role != ReplicaRole::kFollower) continue;
      const Layout layout{state->source_epoch, state->primary_rotations};
      if (candidate < 0 || rank(state->cursor, layout) >
                               rank(candidate_cursor, candidate_layout)) {
        candidate = static_cast<int>(i);
        candidate_cursor = state->cursor;
        candidate_layout = layout;
      }
    }
    if (candidate < 0) {
      return Status::FailedPrecondition(
          "replication: no follower available to promote");
    }
  }

  ReplicaState* cand = states_[static_cast<size_t>(candidate)].get();
  const uint64_t new_epoch = epoch_ + 1;

  // Claim the candidate (so a concurrent pump stops appending to it) and
  // drop any unverified local tail before opening it as a store.
  {
    MutexLock cand_lock(&cand->mu);
    if (cand->dirty) {
      Status st = cand->config.env->TruncateFile(cand->config.path,
                                                 cand->cursor);
      if (!st.ok()) return st;  // Promotion aborted; state unchanged.
      cand->dirty = false;
    }
    cand->role = ReplicaRole::kPrimary;
    cand->out.reset();
  }

  StoreOptions so = options_.store_options;
  so.env = cand->config.env;
  so.labels = labels_;
  auto opened = VersionStore::Open(cand->config.path, diff_options_, so);
  Status bump = opened.ok() ? opened->BumpEpoch(new_epoch) : opened.status();
  if (!bump.ok()) {
    MutexLock cand_lock(&cand->mu);
    cand->role = ReplicaRole::kFollower;  // Roll the claim back.
    return bump;
  }
  auto new_primary = std::make_shared<VersionStore>(std::move(*opened));
  // Opening or stamping the candidate may rotate its log (salvage, or a
  // fault on the kEpoch append): records survive, byte offsets do not.
  const uint64_t kept = new_primary->rotations() == 0 ? candidate_cursor : 0;

  // Point of no return: depose the old primary and flip the group view.
  ReplicaState* old = states_[static_cast<size_t>(primary_index_)].get();
  {
    MutexLock old_lock(&old->mu);
    old->role = ReplicaRole::kDeposed;
    // old->store stays alive: raw pointers handed out while it led remain
    // valid (and poisoned-or-fenced) until Rejoin discards it.
  }
  {
    MutexLock cand_lock(&cand->mu);
    cand->store = new_primary;
  }
  primary_index_ = candidate;
  epoch_ = new_epoch;
  promotion_history_.push_back({new_epoch, candidate_layout, kept});
  if (promotion_history_.size() > 64) {
    promotion_history_.erase(promotion_history_.begin());
  }

  // Re-point the surviving followers. One copying the candidate's layout,
  // at or behind the bytes the new primary kept, is a byte prefix of the
  // new primary's log and keeps its cursor/chain. One *ahead* of the
  // candidate (possible only with an explicitly named, non-maximal
  // candidate) holds bytes the new primary replaced with its kEpoch
  // record, and one copying another layout shares no offsets with it —
  // both diverged and must resync.
  for (size_t i = 0; i < states_.size(); ++i) {
    if (static_cast<int>(i) == candidate) continue;
    ReplicaState* state = states_[i].get();
    MutexLock state_lock(&state->mu);
    if (state->role != ReplicaRole::kFollower) continue;
    if (state->cursor > kept ||
        Layout{state->source_epoch, state->primary_rotations} !=
            candidate_layout) {
      ResyncLocked(state, new_primary).IgnoreError();
      continue;
    }
    state->fence_epoch = new_epoch;
    state->fence_cursor = candidate_cursor;
    state->source_epoch = new_primary->epoch();
    state->primary_rotations = new_primary->rotations();
  }

  failovers_.fetch_add(1, std::memory_order_relaxed);
  BumpMetric("replication_failovers_total");
  ack_cv_.SignalAll();
  ship_cv_.Signal();
  return candidate;
}

Status ReplicatedVersionStore::Rejoin(int index) {
  MutexLock commit_lock(&commit_mu_);
  std::shared_ptr<VersionStore> primary;
  {
    MutexLock lock(&mu_);
    if (index < 0 || index >= static_cast<int>(states_.size())) {
      return Status::OutOfRange("replication: no replica " +
                                std::to_string(index));
    }
    if (index == primary_index_) {
      return Status::FailedPrecondition(
          "replication: replica " + std::to_string(index) +
          " is the current primary");
    }
    ReplicaState* pstate = states_[static_cast<size_t>(primary_index_)].get();
    MutexLock pstate_lock(&pstate->mu);
    primary = pstate->store;
  }
  ReplicaState* state = states_[static_cast<size_t>(index)].get();
  MutexLock state_lock(&state->mu);
  if (state->role != ReplicaRole::kDeposed) {
    return Status::FailedPrecondition(
        "replication: replica " + std::to_string(index) + " is " +
        ReplicaRoleName(state->role) + ", not deposed");
  }
  // The deposed log may hold a divergent stale-epoch suffix (writes taken
  // after quorum was lost); resync discards it wholesale.
  state->role = ReplicaRole::kFollower;
  state->store.reset();
  Status st = ResyncLocked(state, primary);
  if (!st.ok()) return st;
  ship_cv_.Signal();
  return Status::Ok();
}

StatusOr<ScrubReport> ReplicatedVersionStore::Scrub() {
  std::shared_ptr<VersionStore> primary = PrimarySnapshot();
  StatusOr<ScrubReport> report = ScrubReport{};
  if (primary && primary->durable()) report = primary->Scrub();
  Status first = report.status();
  for (const auto& state_ptr : states_) {
    ReplicaState* state = state_ptr.get();
    MutexLock lock(&state->mu);
    if (state->role != ReplicaRole::kFollower) continue;
    if (state->cursor == 0) continue;
    auto file = state->config.env->NewRandomAccessFile(state->config.path);
    if (!file.ok()) {
      if (first.ok()) first = file.status();
      continue;
    }
    auto bytes = (*file)->Read(0, static_cast<size_t>(state->cursor));
    if (!bytes.ok() || bytes->size() != state->cursor) {
      if (first.ok()) {
        first = bytes.ok() ? Status::Unavailable(
                                 "replication: short read scrubbing follower")
                           : bytes.status();
      }
      continue;
    }
    if (Crc32c(*bytes) != state->chain) {
      // Local rot or divergence: the follower's bytes no longer match what
      // it verified and acked. Discard and recopy from the primary.
      divergence_.fetch_add(1, std::memory_order_relaxed);
      BumpMetric("replication_divergence_total");
      if (primary) ResyncLocked(state, primary).IgnoreError();
    }
  }
  if (!first.ok()) return first;
  return report;
}

std::vector<ReplicaStatus> ReplicatedVersionStore::Replicas() const {
  std::shared_ptr<VersionStore> primary = PrimarySnapshot();
  const uint64_t durable = primary ? primary->DurableOffset() : 0;
  std::vector<ReplicaStatus> out;
  out.reserve(states_.size());
  for (size_t i = 0; i < states_.size(); ++i) {
    ReplicaState* state = states_[i].get();
    MutexLock lock(&state->mu);
    ReplicaStatus rs;
    rs.index = static_cast<int>(i);
    rs.role = state->role;
    rs.cursor = state->cursor;
    rs.records = state->records;
    rs.chain = state->chain;
    if (state->role == ReplicaRole::kFollower) {
      rs.lag_bytes = durable > state->cursor ? durable - state->cursor : 0;
      rs.caught_up = rs.lag_bytes == 0;
    } else if (state->role == ReplicaRole::kPrimary) {
      rs.caught_up = true;
    }
    out.push_back(rs);
  }
  return out;
}

ReplicationCounters ReplicatedVersionStore::counters() const {
  ReplicationCounters c;
  c.records_shipped = records_shipped_.load(std::memory_order_relaxed);
  c.bytes_shipped = bytes_shipped_.load(std::memory_order_relaxed);
  c.failovers = failovers_.load(std::memory_order_relaxed);
  c.stale_epoch_rejects =
      stale_epoch_rejects_.load(std::memory_order_relaxed);
  c.resyncs = resyncs_.load(std::memory_order_relaxed);
  c.quorum_timeouts = quorum_timeouts_.load(std::memory_order_relaxed);
  c.divergence = divergence_.load(std::memory_order_relaxed);
  return c;
}

void ReplicatedVersionStore::BumpMetric(const char* name, uint64_t n) {
  if (options_.metrics != nullptr) options_.metrics->counter(name)->Increment(n);
}

void ReplicatedVersionStore::ObserveMetric(const char* name, double value) {
  if (options_.metrics != nullptr) options_.metrics->histogram(name)->Observe(value);
}

}  // namespace treediff
