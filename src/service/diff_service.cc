#include "service/diff_service.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/script_io.h"
#include "doc/xml.h"
#include "tree/builder.h"

namespace treediff {

namespace {

/// The tree cache: 64 MiB of parsed, indexed documents over 8 shards.
constexpr size_t kTreeCacheBytes = 64u << 20;
constexpr int kTreeCacheShards = 8;

/// The token memo: 8 MiB of tokenized values and their word dictionary per
/// generation, shared by every request and commit of the service.
constexpr size_t kTokenMemoBytes = 8u << 20;

/// Where a request admitted under queue pressure starts on the ladder:
/// O(n log n) label/value bucketing with no value comparisons.
constexpr DiffRung kDegradedStartRung = DiffRung::kKeyedStructural;

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// The lower (cheaper) of two ladder rungs. Rungs are ordered best-first,
/// so "lower on the ladder" is the numerically larger enum value.
DiffRung LowerRung(DiffRung a, DiffRung b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

/// Errors that say the store itself is sick. Requests for things that do
/// not exist (kNotFound/kOutOfRange), unparseable documents, and versions
/// permanently lost to a salvage hole (kDataLoss) are answered correctly
/// by a healthy store, so they never move the breaker.
bool CountsTowardBreaker(const Status& status) {
  switch (status.code()) {
    case Code::kNotFound:
    case Code::kOutOfRange:
    case Code::kInvalidArgument:
    case Code::kParseError:
    case Code::kDataLoss:
      return false;
    default:
      return true;
  }
}

Status AlreadyAttached(const std::string& doc_id) {
  return Status::FailedPrecondition("doc_id \"" + doc_id +
                                    "\" already attached");
}

}  // namespace

const char* StoreHealthName(StoreHealth health) {
  switch (health) {
    case StoreHealth::kHealthy:
      return "healthy";
    case StoreHealth::kDegraded:
      return "degraded";
    case StoreHealth::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

DiffService::DiffService(DiffServiceOptions options)
    : options_(options),
      cache_(TreeCache::Options{kTreeCacheBytes, kTreeCacheShards}),
      token_memo_(kTokenMemoBytes),
      pool_(ThreadPool::Options{std::max(options.num_threads, 1),
                                std::max<size_t>(options.queue_capacity, 1)}) {
  options_.diff.share_mode = ShareMode::kIndexed;
  options_.diff.token_memo = &token_memo_;
  requests_ = metrics_.counter("diff_requests_total");
  responses_ok_ = metrics_.counter("diff_responses_ok_total");
  responses_error_ = metrics_.counter("diff_responses_error_total");
  shed_queue_full_ = metrics_.counter("diff_shed_queue_full_total");
  shed_deadline_ = metrics_.counter("diff_shed_queue_deadline_total");
  shed_degraded_ = metrics_.counter("diff_admitted_degraded_total");
  cache_hits_ = metrics_.counter("tree_cache_hits_total");
  cache_misses_ = metrics_.counter("tree_cache_misses_total");
  for (int r = 0; r < 4; ++r) {
    rung_counters_[r] = metrics_.counter(
        std::string("diff_rung_total{rung=\"") +
        DiffRungName(static_cast<DiffRung>(r)) + "\"}");
  }
  prune_subtrees_ = metrics_.counter("diff_prune_subtrees_total");
  prune_nodes_ = metrics_.counter("diff_prune_nodes_total");
  prune_collisions_ = metrics_.counter("diff_prune_collisions_total");
  match_cache_hits_ = metrics_.counter("diff_match_cache_hits_total");
  match_cache_misses_ = metrics_.counter("diff_match_cache_misses_total");
  chain_log_hits_ = metrics_.counter("diff_chain_log_hits_total");
  breaker_trips_ = metrics_.counter("store_breaker_trips_total");
  breaker_fast_fails_ = metrics_.counter("store_breaker_fast_fails_total");
  store_repairs_ = metrics_.counter("store_repairs_total");
  store_failovers_ = metrics_.counter("store_failovers_total");
  scrub_runs_ = metrics_.counter("store_scrub_runs_total");
  scrub_corruption_found_ = metrics_.counter("store_scrub_corruption_total");
  queue_wait_h_ = metrics_.histogram("diff_queue_wait_seconds");
  resolve_h_ = metrics_.histogram("diff_resolve_seconds");
  match_h_ = metrics_.histogram("diff_match_seconds");
  gen_h_ = metrics_.histogram("diff_gen_seconds");
  e2e_h_ = metrics_.histogram("diff_e2e_seconds");

  if (options_.scrub_interval_seconds > 0.0) {
    scrubber_ = std::thread([this] { ScrubLoop(); });
  }
}

DiffService::~DiffService() { Shutdown(); }

void DiffService::Shutdown() {
  {
    MutexLock lock(&scrub_mu_);
    scrub_stop_ = true;
  }
  scrub_cv_.SignalAll();
  if (scrubber_.joinable()) scrubber_.join();
  pool_.Shutdown();
}

void DiffService::ScrubLoop() {
  for (;;) {
    {
      MutexLock lock(&scrub_mu_);
      if (!scrub_stop_) {
        scrub_cv_.WaitFor(&scrub_mu_, options_.scrub_interval_seconds);
      }
      if (scrub_stop_) return;
    }
    // Scrub outside scrub_mu_ so Shutdown never waits on store I/O.
    ScrubNow();
  }
}

int DiffService::ScrubNow() {
  // Snapshot the registry first: entries are never removed, so the
  // pointers stay valid after the lock drops, and the slow per-store work
  // does not hold the registry lock against attaches and lookups.
  std::vector<StoreEntry*> entries;
  {
    ReaderMutexLock lock(&stores_mu_);
    entries.reserve(stores_.size());
    for (const auto& [id, entry] : stores_) entries.push_back(entry.get());
  }
  int scrubbed = 0;
  for (StoreEntry* entry : entries) {
    const std::shared_ptr<VersionStore> primary = entry->group->primary();
    if (!primary->durable()) continue;
    // The group scrubs the primary's log *and* re-verifies every
    // follower's CRC chain (divergence detection + resync).
    const StatusOr<ScrubReport> report = entry->group->Scrub();
    scrub_runs_->Increment();
    ++scrubbed;
    // A primary that mirrors its fault counters into this registry has
    // already counted the corrupt pass under the same name.
    if (report.ok() && report->corruption_found &&
        primary->metrics() != &metrics_) {
      scrub_corruption_found_->Increment();
    }
  }
  return scrubbed;
}

std::vector<DiffService::StoreStatus> DiffService::StoreStatuses() {
  std::vector<std::pair<std::string, StoreEntry*>> entries;
  {
    ReaderMutexLock lock(&stores_mu_);
    entries.reserve(stores_.size());
    for (const auto& [id, entry] : stores_) {
      entries.emplace_back(id, entry.get());
    }
  }
  std::vector<StoreStatus> statuses;
  statuses.reserve(entries.size());
  for (const auto& [id, entry] : entries) {
    StoreStatus status;
    status.doc_id = id;
    {
      MutexLock lock(&entry->mu);
      const std::shared_ptr<VersionStore> primary = entry->group->primary();
      status.versions = primary->VersionCount();
      status.durable = primary->durable();
      status.faults = primary->fault_counters();
      status.health = entry->health;
      status.consecutive_failures = entry->consecutive_failures;
    }
    status.repl_epoch = entry->group->epoch();
    status.repl_primary = entry->group->primary_index();
    status.replicas = entry->group->Replicas();
    statuses.push_back(std::move(status));
  }
  return statuses;
}

Status DiffService::GuardedStoreOp(
    StoreEntry* entry, const std::function<Status(VersionStore*)>& op) {
  MutexLock lock(&entry->mu);
  if (entry->health == StoreHealth::kQuarantined) {
    if (Clock::now() < entry->quarantined_until) {
      breaker_fast_fails_->Increment();
      return Status::Unavailable(
          "store quarantined by circuit breaker; retry after cooldown");
    }
    // Cooldown over: fall through and let this request probe (half-open).
  }

  // A store poisoned by an earlier I/O failure is healed by rotation
  // before anything runs on it; no acknowledged commit is lost (the
  // in-memory state is the acknowledged state). `op` then runs once: the
  // store's own Retryer already retried its transient I/O, and re-running
  // a whole commit is not safe (a quorum timeout leaves it committed).
  const std::shared_ptr<VersionStore> primary = entry->group->primary();
  Status last = Status::Ok();
  if (!primary->io_status().ok()) {
    store_repairs_->Increment();
    last = primary->Repair();
  }
  if (last.ok()) last = op(primary.get());

  if (last.ok()) {
    entry->consecutive_failures = 0;
    entry->health = StoreHealth::kHealthy;
  } else if (CountsTowardBreaker(last)) {
    ++entry->consecutive_failures;
    if (entry->consecutive_failures >=
        std::max(options_.breaker_failure_threshold, 1)) {
      // A group with followers has a stronger recovery rung than
      // quarantine: fail away from the sick primary. Promote the
      // most-caught-up follower (fenced: the epoch bump invalidates the
      // deposed primary's leases) and probe the new primary with the same
      // op. A group of one has no follower, so Promote fails.
      if (entry->group->Promote().ok()) {
        store_failovers_->Increment();
        entry->consecutive_failures = 0;
        last = op(entry->group->primary().get());
        if (last.ok()) {
          entry->health = StoreHealth::kHealthy;
          return last;
        }
        ++entry->consecutive_failures;  // New primary is failing too.
      }
      entry->health = StoreHealth::kQuarantined;
      entry->quarantined_until =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 options_.breaker_cooldown_seconds));
      breaker_trips_->Increment();
    } else {
      entry->health = StoreHealth::kDegraded;
    }
  }
  return last;
}

void DiffService::Submit(DiffRequest request,
                         std::function<void(DiffResponse)> done) {
  requests_->Increment();
  const Clock::time_point submitted = Clock::now();

  // Pressure probe at admission, not at execution: the decision must be
  // based on how much work is queued ahead of this request.
  bool shed_degraded = false;
  if (options_.degrade_queue_fraction <= 1.0) {
    const size_t depth = pool_.QueueDepth();
    const double fraction =
        static_cast<double>(depth) /
        static_cast<double>(pool_.queue_capacity());
    shed_degraded = fraction >= options_.degrade_queue_fraction;
  }

  // Shared, not moved into the lambda directly: the shed path below still
  // needs the callback when TrySubmit declines the closure.
  auto done_ptr =
      std::make_shared<std::function<void(DiffResponse)>>(std::move(done));

  const bool admitted = pool_.TrySubmit(
      [this, done_ptr, request = std::move(request), submitted,
       shed_degraded]() mutable {
        (*done_ptr)(Process(request, submitted, shed_degraded));
      });
  if (!admitted) {
    shed_queue_full_->Increment();
    responses_error_->Increment();
    DiffResponse shed;
    shed.status =
        Status::ResourceExhausted("request queue full: request shed");
    shed.total_seconds = Seconds(Clock::now() - submitted);
    (*done_ptr)(std::move(shed));
  }
}

std::future<DiffResponse> DiffService::Submit(DiffRequest request) {
  auto promise = std::make_shared<std::promise<DiffResponse>>();
  std::future<DiffResponse> future = promise->get_future();
  Submit(std::move(request), [promise](DiffResponse response) {
    promise->set_value(std::move(response));
  });
  return future;
}

DiffResponse DiffService::SubmitSync(DiffRequest request) {
  return Submit(std::move(request)).get();
}

std::shared_ptr<const DiffService::Answer> DiffService::LookupAnswer(
    uint64_t key_old, uint64_t key_new, DiffRung rung) {
  MutexLock lock(&answer_cache_mu_);
  for (auto it = answer_cache_.begin(); it != answer_cache_.end(); ++it) {
    if (it->key_old == key_old && it->key_new == key_new &&
        it->rung == rung) {
      answer_cache_.splice(answer_cache_.begin(), answer_cache_, it);
      return answer_cache_.front().answer;
    }
  }
  return nullptr;
}

void DiffService::StoreAnswer(uint64_t key_old, uint64_t key_new,
                              DiffRung rung,
                              std::shared_ptr<const Answer> answer) {
  MutexLock lock(&answer_cache_mu_);
  for (const AnswerSlot& slot : answer_cache_) {
    if (slot.key_old == key_old && slot.key_new == key_new &&
        slot.rung == rung) {
      return;  // A concurrent request published the same answer first.
    }
  }
  answer_cache_.push_front({key_old, key_new, rung, std::move(answer)});
  while (answer_cache_.size() > kDiffCacheEntries) answer_cache_.pop_back();
}

std::shared_ptr<const DiffService::Answer> DiffService::LogAnswer(
    const DiffRequest& request, DiffRung start_rung) {
  // Commits diff from kFastMatch: the log cannot answer a better rung.
  if (request.doc_id.empty() || request.from_version < 0 ||
      request.to_version != request.from_version + 1 ||
      static_cast<int>(start_rung) < static_cast<int>(DiffRung::kFastMatch)) {
    return nullptr;
  }
  StoreEntry* entry = FindStore(request.doc_id);
  if (entry == nullptr) return nullptr;  // The resolve path reports it.

  // The script is copied under the entry lock: the DeltaFor pointer
  // dangles across the next Commit/RollbackHead.
  MutexLock lock(&entry->mu);
  const std::shared_ptr<VersionStore> primary = entry->group->primary();
  if (entry->health == StoreHealth::kQuarantined ||
      !primary->io_status().ok()) {
    return nullptr;
  }
  const EditScript* delta = primary->DeltaFor(request.to_version);
  if (delta == nullptr) return nullptr;
  auto answer = std::make_shared<Answer>();
  answer->script = *delta;
  answer->labels = primary->label_table();
  return answer;
}

DiffResponse DiffService::Process(const DiffRequest& request,
                                  Clock::time_point submitted,
                                  bool shed_degraded) {
  DiffResponse response;
  response.shed_degraded = shed_degraded;
  if (shed_degraded) shed_degraded_->Increment();

  const Clock::time_point started = Clock::now();
  response.queue_seconds = Seconds(started - submitted);
  queue_wait_h_->Observe(response.queue_seconds);

  auto finish = [&](DiffResponse&& r) {
    r.total_seconds = Seconds(Clock::now() - submitted);
    e2e_h_->Observe(r.total_seconds);
    if (r.status.ok()) {
      responses_ok_->Increment();
    } else {
      responses_error_->Increment();
    }
    return std::move(r);
  };

  // Per-request budget. The deadline is end-to-end: time burned waiting in
  // the queue comes off the pipeline's allowance, and a request that aged
  // out entirely while queued is shed before any work is done on it.
  const double deadline = request.deadline_seconds > 0.0
                              ? request.deadline_seconds
                              : options_.default_deadline_seconds;
  Budget budget;
  bool budgeted = false;
  if (deadline > 0.0) {
    const double remaining = deadline - response.queue_seconds;
    if (remaining <= 0.0) {
      shed_deadline_->Increment();
      response.status = Status::DeadlineExceeded(
          "deadline expired while queued: request shed");
      return finish(std::move(response));
    }
    budget.set_deadline_seconds(remaining);
    budgeted = true;
  }
  if (request.node_cap > 0) {
    budget.set_node_cap(request.node_cap);
    budgeted = true;
  }

  const DiffRung start_rung =
      shed_degraded ? LowerRung(request.start_rung, kDegradedStartRung)
                    : request.start_rung;

  // Every answer, however it was found, is reported the same way.
  auto serve = [&](const Answer& answer) {
    response.rung = answer.rung;
    response.operations = answer.script.size();
    response.pruned_subtrees = answer.pruned_subtrees;
    response.pruned_nodes = answer.pruned_nodes;
    rung_counters_[static_cast<int>(answer.rung)]->Increment();
    if (request.want_script_text) {
      response.script = FormatEditScript(answer.script, *answer.labels);
    }
    return finish(std::move(response));
  };

  // An adjacent stored-mode request is answered from the commit log
  // without resolving, matching, or generating.
  if (const auto logged = LogAnswer(request, start_rung)) {
    response.chain_log_hit = true;
    chain_log_hits_->Increment();
    return serve(*logged);
  }

  // Resolve both documents through the tree cache.
  const Clock::time_point resolve_start = Clock::now();
  StatusOr<std::shared_ptr<const CachedTree>> old_entry = [&] {
    return request.doc_id.empty()
               ? ResolveInline(request.old_doc, request.format,
                               &response.cache_hit_old)
               : ResolveVersion(request.doc_id, request.from_version,
                                &response.cache_hit_old);
  }();
  if (!old_entry.ok()) {
    response.status = old_entry.status();
    return finish(std::move(response));
  }
  StatusOr<std::shared_ptr<const CachedTree>> new_entry = [&] {
    return request.doc_id.empty()
               ? ResolveInline(request.new_doc, request.format,
                               &response.cache_hit_new)
               : ResolveVersion(request.doc_id, request.to_version,
                                &response.cache_hit_new);
  }();
  if (!new_entry.ok()) {
    response.status = new_entry.status();
    return finish(std::move(response));
  }
  response.resolve_seconds = Seconds(Clock::now() - resolve_start);
  resolve_h_->Observe(response.resolve_seconds);

  const CachedTree& old_cached = **old_entry;
  const CachedTree& new_cached = **new_entry;

  DiffOptions diff = options_.diff;
  diff.budget = budgeted ? &budget : nullptr;
  diff.index1 = &old_cached.index;
  diff.index2 = &new_cached.index;
  diff.start_rung = start_rung;

  // The diff cache: only unbudgeted requests read or write it (a budget can
  // stop the pipeline anywhere, so only a full, deterministic answer is
  // cacheable), keyed by the content fingerprints of both trees plus the
  // effective starting rung. A hit runs neither phase.
  std::shared_ptr<const Answer> answer;
  if (!budgeted) {
    answer = LookupAnswer(old_cached.key, new_cached.key, start_rung);
    (answer != nullptr ? match_cache_hits_ : match_cache_misses_)
        ->Increment();
  }
  if (answer != nullptr) {
    response.matching_cache_hit = true;
  } else {
    StatusOr<DiffResult> result =
        DiffTrees(old_cached.tree, new_cached.tree, diff);
    if (!result.ok()) {
      response.status = result.status();
      return finish(std::move(response));
    }
    prune_subtrees_->Increment(result->report.prune_settled_subtrees);
    prune_nodes_->Increment(result->report.prune_settled_nodes);
    prune_collisions_->Increment(result->report.prune_collisions);
    response.degraded = result->report.degraded;
    response.match_seconds = result->report.match_seconds;
    response.gen_seconds = result->report.script_seconds;
    match_h_->Observe(response.match_seconds);
    gen_h_->Observe(response.gen_seconds);

    auto fresh = std::make_shared<Answer>();
    fresh->script = std::move(result->script);
    fresh->labels = old_cached.tree.label_table();
    fresh->rung = result->report.rung;
    fresh->pruned_subtrees = result->report.prune_settled_subtrees;
    fresh->pruned_nodes = result->report.prune_settled_nodes;
    answer = std::move(fresh);
    if (!budgeted && !response.degraded) {
      StoreAnswer(old_cached.key, new_cached.key, start_rung, answer);
    }
  }
  return serve(*answer);
}

StatusOr<Tree> DiffService::ParseDoc(const std::string& text,
                                     DiffRequest::Format format) {
  return format == DiffRequest::Format::kSexpr ? ParseSexpr(text, labels_)
                                               : ParseXml(text, labels_);
}

StatusOr<std::shared_ptr<const CachedTree>> DiffService::ResolveInline(
    const std::string& text, DiffRequest::Format format, bool* cache_hit) {
  const uint64_t key = TreeCache::FingerprintText(
      format == DiffRequest::Format::kSexpr ? "sexpr" : "xml", text);
  if (auto entry = cache_.Lookup(key)) {
    *cache_hit = true;
    cache_hits_->Increment();
    return entry;
  }
  *cache_hit = false;
  cache_misses_->Increment();
  StatusOr<Tree> tree = ParseDoc(text, format);
  if (!tree.ok()) return tree.status();
  return cache_.Insert(key, std::move(tree).value());
}

DiffService::StoreEntry* DiffService::FindStore(const std::string& doc_id) {
  ReaderMutexLock lock(&stores_mu_);
  auto it = stores_.find(doc_id);
  return it == stores_.end() ? nullptr : it->second.get();
}

StatusOr<std::shared_ptr<const CachedTree>> DiffService::ResolveVersion(
    const std::string& doc_id, int version, bool* cache_hit) {
  StoreEntry* entry = FindStore(doc_id);
  if (entry == nullptr) {
    return Status::NotFound("no store attached under doc_id \"" + doc_id +
                            "\"");
  }
  // The key carries the group epoch: a version number can be reused
  // across a failover (a non-quorum-acked commit lost with the deposed
  // primary, then the slot recommitted under the new epoch), and a key
  // without it would keep serving the dead timeline.
  const uint64_t key =
      TreeCache::FingerprintVersion(doc_id, version, entry->group->epoch());
  if (auto cached = cache_.Lookup(key)) {
    *cache_hit = true;
    cache_hits_->Increment();
    return cached;
  }
  *cache_hit = false;
  cache_misses_->Increment();
  // Materialize through the resilience wrapper (repair / breaker);
  // freezing + indexing happen inside Insert, off the store lock.
  std::optional<Tree> tree;
  const Status status = GuardedStoreOp(entry, [&](VersionStore* store) {
    if (version < 0 || version >= store->VersionCount()) {
      return Status::OutOfRange(
          "version " + std::to_string(version) + " out of range [0, " +
          std::to_string(store->VersionCount() - 1) + "] for \"" + doc_id +
          "\"");
    }
    StatusOr<Tree> materialized = store->Materialize(version);
    if (!materialized.ok()) return materialized.status();
    tree = std::move(materialized).value();
    return Status::Ok();
  });
  if (!status.ok()) return status;
  return cache_.Insert(key, std::move(*tree));
}

StatusOr<int> DiffService::CommitVersion(const std::string& doc_id,
                                         const std::string& doc,
                                         DiffRequest::Format format) {
  StoreEntry* entry = FindStore(doc_id);
  if (entry == nullptr) {
    return Status::NotFound("no store attached under doc_id \"" + doc_id +
                            "\"");
  }
  // Commits must use the group's label table (every replica shares it),
  // which for attached stores is not the service's inline table. The parse
  // runs outside GuardedStoreOp: a document the parser rejects, for syntax
  // or for depth, says nothing about the store's health, so it must never
  // move the breaker.
  const std::shared_ptr<LabelTable>& labels = entry->group->label_table();
  StatusOr<Tree> tree = format == DiffRequest::Format::kSexpr
                            ? ParseSexpr(doc, labels)
                            : ParseXml(doc, labels);
  if (!tree.ok()) return tree.status();
  int version = -1;
  const Status status = GuardedStoreOp(entry, [&](VersionStore*) {
    // Commits go through the group: a lease minted now fences the write
    // against concurrent failovers, and quorum mode blocks for follower
    // acks. Direct store->Commit would bypass both.
    StatusOr<int> committed = entry->group->Commit(*tree);
    if (!committed.ok()) return committed.status();
    version = *committed;
    return Status::Ok();
  });
  if (!status.ok()) return status;
  return version;
}

Status DiffService::CreateStore(const std::string& doc_id,
                                const std::string& base_doc,
                                std::vector<ReplicaConfig> replicas,
                                AckMode ack_mode,
                                DiffRequest::Format format) {
  StatusOr<Tree> base = ParseDoc(base_doc, format);
  if (!base.ok()) return base.status();
  auto group = ReplicatedVersionStore::Create(
      std::move(replicas), std::move(base).value(), options_.diff,
      GroupOptions(ack_mode));
  if (!group.ok()) return group.status();
  return AttachStore(doc_id, std::move(*group));
}

StatusOr<int> DiffService::RecoverStore(const std::string& doc_id,
                                        const std::string& base_doc,
                                        std::vector<ReplicaConfig> replicas,
                                        AckMode ack_mode,
                                        DiffRequest::Format format) {
  {
    // Claim the id before touching any log: recovery must never reopen a
    // log that an attached group, or a concurrent recovery, still writes.
    WriterMutexLock lock(&stores_mu_);
    if (stores_.count(doc_id) > 0 || !recovering_.insert(doc_id).second) {
      return AlreadyAttached(doc_id);
    }
  }
  const StatusOr<Tree> base = ParseDoc(base_doc, format);
  if (!base.ok()) {
    WriterMutexLock lock(&stores_mu_);
    recovering_.erase(doc_id);
    return base.status();
  }
  StatusOr<std::unique_ptr<ReplicatedVersionStore>> group =
      ReplicatedVersionStore::Open(std::move(replicas), *base, options_.diff,
                                   GroupOptions(ack_mode));
  const int head = group.ok() ? (*group)->primary()->VersionCount() - 1 : 0;
  WriterMutexLock lock(&stores_mu_);
  recovering_.erase(doc_id);
  if (!group.ok()) return group.status();
  TREEDIFF_RETURN_IF_ERROR(AttachLocked(doc_id, std::move(*group)));
  return head;
}

ReplicationOptions DiffService::GroupOptions(AckMode ack_mode) {
  ReplicationOptions repl;
  repl.ack_mode = ack_mode;
  repl.metrics = &metrics_;
  repl.store_options.metrics = &metrics_;
  repl.store_options.sleep = options_.sleep;
  return repl;
}

Status DiffService::AttachStore(const std::string& doc_id,
                                std::shared_ptr<ReplicatedVersionStore> group) {
  WriterMutexLock lock(&stores_mu_);
  return AttachLocked(doc_id, std::move(group));
}

Status DiffService::AttachLocked(
    const std::string& doc_id, std::shared_ptr<ReplicatedVersionStore> group) {
  if (group == nullptr) {
    return Status::InvalidArgument("AttachStore: null group");
  }
  if (stores_.count(doc_id) > 0 || recovering_.count(doc_id) > 0) {
    return AlreadyAttached(doc_id);
  }
  auto entry = std::make_unique<StoreEntry>();
  entry->group = std::move(group);
  stores_.emplace(doc_id, std::move(entry));
  return Status::Ok();
}

}  // namespace treediff
