#ifndef TREEDIFF_SERVICE_DIFF_SERVICE_H_
#define TREEDIFF_SERVICE_DIFF_SERVICE_H_

#include <chrono>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/diff.h"
#include "service/tree_cache.h"
#include "store/replication.h"
#include "store/version_store.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace treediff {

/// One diff request. Two addressing modes:
///  * **Inline**: `old_doc`/`new_doc` carry the documents as text in
///    `format`; both are parsed (or fetched from the tree cache) into the
///    service's shared label table.
///  * **Stored**: `doc_id` names a store previously created with
///    CreateStore or attached with AttachStore, and `from_version`/
///    `to_version` select the two versions to diff.
struct DiffRequest {
  enum class Format { kSexpr, kXml };
  Format format = Format::kSexpr;

  std::string old_doc;
  std::string new_doc;

  std::string doc_id;  // Stored mode when non-empty.
  int from_version = -1;
  int to_version = -1;

  /// Per-request budget caps; 0 means "use the service default". The
  /// deadline covers queue wait: a request that waited its whole deadline
  /// out in the queue is shed without running.
  double deadline_seconds = 0.0;
  size_t node_cap = 0;

  /// Where on the degradation ladder to start (admission pressure may push
  /// it further down; see DiffServiceOptions::degrade_queue_fraction).
  DiffRung start_rung = DiffRung::kFastMatch;

  /// Render the edit script as text into DiffResponse::script. Off saves
  /// the serialization when the caller only wants counters.
  bool want_script_text = true;
};

/// What one request produced. `status` is OK for a served diff (possibly
/// degraded); kResourceExhausted / kDeadlineExceeded for a shed request;
/// kNotFound / kOutOfRange / kParseError for bad requests.
struct DiffResponse {
  Status status = Status::Ok();

  std::string script;      // FormatEditScript output (when requested).
  size_t operations = 0;   // Ops in the script.
  DiffRung rung = DiffRung::kFastMatch;
  bool degraded = false;       // Budget forced a ladder step-down.
  bool shed_degraded = false;  // Admission pressure lowered the start rung.

  bool cache_hit_old = false;  // Tree cache served the old / new document.
  bool cache_hit_new = false;

  /// Where the answer came from. `matching_cache_hit` (a name the wire
  /// and its clients keep): answered from the diff cache, so neither phase
  /// ran. `chain_log_hit`: an adjacent stored-mode read answered with the
  /// delta its commit stored, so nothing was resolved or diffed.
  bool matching_cache_hit = false;
  bool chain_log_hit = false;
  size_t pruned_subtrees = 0;       // Share-map pre-pass wholesale matches.
  size_t pruned_nodes = 0;          // Nodes settled by those matches.

  double queue_seconds = 0.0;    // Submit -> worker pickup.
  double resolve_seconds = 0.0;  // Parse / materialize / cache fetch.
  double match_seconds = 0.0;    // Phase 1 (matching); 0 on a cache hit.
  double gen_seconds = 0.0;      // Phase 2 (generation); 0 on a cache hit.
  double total_seconds = 0.0;    // Submit -> response.
};

/// Circuit-breaker health of one attached store, from the service's view.
/// A healthy store serves normally; a degraded store has had recent
/// server-side failures but still takes traffic; a quarantined store
/// fast-fails every request until its cooldown expires, after which one
/// request is let through as a probe (half-open) and its outcome decides
/// between recovery and another quarantine round.
enum class StoreHealth { kHealthy, kDegraded, kQuarantined };

const char* StoreHealthName(StoreHealth health);

/// Tuning of a DiffService instance.
struct DiffServiceOptions {
  int num_threads = 4;
  size_t queue_capacity = 256;

  /// Admission pressure: once the queue is at least this fraction full,
  /// newly admitted requests start at kKeyedStructural (if that is lower
  /// than what they asked for) instead of being queued at full cost —
  /// load-shedding by degradation, the DiffRung ladder's serving-side use.
  /// Values > 1.0 disable pressure degradation.
  double degrade_queue_fraction = 0.75;

  /// Default per-request deadline; 0 = unlimited. A request's own
  /// deadline_seconds or node_cap, when set, overrides it or adds a cap.
  double default_deadline_seconds = 0.0;

  /// Store resilience. A store operation runs once: the store retries its
  /// own transient I/O (StoreOptions::retry). A durable store that an
  /// earlier failure poisoned is repaired (VersionStore::Repair) before the
  /// next operation runs on it. After `breaker_failure_threshold`
  /// consecutive server-side failures a store's circuit breaker opens: a
  /// group with followers fails over, and otherwise its requests fast-fail
  /// with kUnavailable for `breaker_cooldown_seconds` instead of piling
  /// onto a sick store.
  int breaker_failure_threshold = 3;
  double breaker_cooldown_seconds = 5.0;

  /// No effect: every DiffService serves incrementally. Kept only because
  /// perfbench/driver.cc assigns it; it goes with that benchmark's next change.
  bool incremental = true;

  /// Period of the background scrubber, which re-verifies the log
  /// checksums of every attached durable store (VersionStore::Scrub);
  /// 0 disables the thread. ScrubNow() works either way.
  double scrub_interval_seconds = 0.0;

  /// Replaces the real retry backoff sleep of the stores this service
  /// creates (tests pass a no-op); null means a real clock wait. The
  /// scrubber cadence is not affected.
  std::function<void(double seconds)> sleep;

  /// Base pipeline options (thresholds, matcher choice, cost model, ...).
  /// `budget`, `index1`, `index2` and `start_rung` are set per request;
  /// `share_mode` is always kIndexed, the rule every commit applies, and
  /// `token_memo` is always the service's own. A custom `comparator` must
  /// be thread-safe — the default (null: one WordLcsComparator per request
  /// and per commit, all tokenizing through the service's TokenMemo) is.
  DiffOptions diff;
};

/// An in-process, multi-tenant diff server core: a fixed worker pool pulls
/// requests off a bounded queue, resolves each request's two trees through
/// a sharded content-fingerprint cache (parse and index exactly once per
/// distinct document), runs the paper's pipeline under a per-request
/// budget, and answers through a future. Admission control is two-layered:
/// a full queue sheds new requests immediately (kResourceExhausted), and a
/// nearly-full queue admits requests onto a lower rung of the degradation
/// ladder so they cost less. Counters and latency histograms for every
/// stage live in the service's MetricsRegistry.
///
/// Every request is served incrementally. Reads diff with the share-map
/// pre-pass (ShareMode::kIndexed), so their cost tracks the edit, not the
/// document. A repeated unbudgeted request is answered from the diff cache.
/// An adjacent stored-mode read (from = to - 1) starting at kFastMatch or
/// lower is answered with the delta its commit stored, which is what
/// Materialize replays.
///
/// Every store is a replication group (ReplicatedVersionStore); an
/// in-memory store is a group of one. Reads come from the group's primary;
/// commits route through the group (lease-fenced, quorum-acked when asked).
/// Stores are served through a resilience wrapper: a poisoned durable
/// primary is repaired in place (VersionStore::Repair) before the next
/// operation runs on it, a group with followers fails over to the
/// most-caught-up one (fenced promotion) once its primary keeps failing,
/// and a per-store circuit breaker (StoreHealth) quarantines a store that
/// keeps failing so requests fail fast instead of piling onto it. An
/// optional background scrubber re-verifies every durable store's log
/// checksums on a timer (DiffServiceOptions::scrub_interval_seconds).
///
/// Thread-safety: Submit and the store/metrics accessors may be called
/// from any thread. Shutdown (or destruction) drains in-flight requests.
class DiffService {
 public:
  /// Diff-cache capacity, in finished edit scripts keyed by (old
  /// fingerprint, new fingerprint, start rung); lookups scan every entry.
  static constexpr size_t kDiffCacheEntries = 64;

  explicit DiffService(DiffServiceOptions options = {});
  ~DiffService();

  DiffService(const DiffService&) = delete;
  DiffService& operator=(const DiffService&) = delete;

  /// Enqueues a request; the future completes when a worker finishes it
  /// (immediately, with kResourceExhausted, when the queue is full).
  std::future<DiffResponse> Submit(DiffRequest request);

  /// The async path the network front end builds on: enqueues a request and
  /// invokes `done` exactly once with the response. `done` runs on a worker
  /// thread for served requests, or inline on the caller's thread when the
  /// request is shed at admission (full queue) — callers that care about
  /// re-entrancy must tolerate the inline case. `done` must not throw and
  /// should be cheap; heavy completion work belongs on the caller's own
  /// executor.
  void Submit(DiffRequest request, std::function<void(DiffResponse)> done);

  /// Submit + wait.
  DiffResponse SubmitSync(DiffRequest request);

  /// Creates a service-owned group whose version 0 is `base_doc`, parsed
  /// into the service's label table. An empty `replicas` list makes an
  /// in-memory group of one; otherwise replicas[0] is the durable initial
  /// primary and the rest catch up by log shipping. The group's metrics
  /// land in this service's registry.
  Status CreateStore(const std::string& doc_id, const std::string& base_doc,
                     std::vector<ReplicaConfig> replicas = {},
                     AckMode ack_mode = AckMode::kLeaderOnly,
                     DiffRequest::Format format = DiffRequest::Format::kSexpr)
      EXCLUDES(stores_mu_);

  /// Recovers the durable group whose logs sit at `replicas` (see
  /// ReplicatedVersionStore::Open) and attaches it under `doc_id`: how a
  /// store written before a restart is served again. `base_doc`, parsed
  /// into the service's label table, must equal the recovered version 0
  /// (kFailedPrecondition otherwise, with no log written). Fails without
  /// opening any log while `doc_id` is attached or being recovered.
  /// Returns the recovered head version.
  StatusOr<int> RecoverStore(
      const std::string& doc_id, const std::string& base_doc,
      std::vector<ReplicaConfig> replicas,
      AckMode ack_mode = AckMode::kLeaderOnly,
      DiffRequest::Format format = DiffRequest::Format::kSexpr)
      EXCLUDES(stores_mu_);

  /// Attaches an externally built group under `doc_id`. All service-side
  /// store work is serialized per doc_id.
  Status AttachStore(const std::string& doc_id,
                     std::shared_ptr<ReplicatedVersionStore> group)
      EXCLUDES(stores_mu_);

  /// Commits a new version to the store under `doc_id`. Returns the new
  /// version number.
  StatusOr<int> CommitVersion(
      const std::string& doc_id, const std::string& doc,
      DiffRequest::Format format = DiffRequest::Format::kSexpr)
      EXCLUDES(stores_mu_);

  /// One attached store's service-side status, for the STATUS endpoint,
  /// operators, and tests.
  struct StoreStatus {
    std::string doc_id;
    int versions = 0;
    bool durable = false;
    StoreHealth health = StoreHealth::kHealthy;
    int consecutive_failures = 0;
    VersionStore::FaultCounters faults;

    /// Replication view of the group.
    uint64_t repl_epoch = 0;
    int repl_primary = -1;
    std::vector<ReplicaStatus> replicas;
  };

  /// Status of every attached store, ordered by doc_id.
  std::vector<StoreStatus> StoreStatuses() EXCLUDES(stores_mu_);

  /// Runs one scrub pass over every durable group (ReplicatedVersionStore::
  /// Scrub) — the same pass the background scrubber runs every
  /// scrub_interval_seconds. Returns the number of groups scrubbed.
  int ScrubNow() EXCLUDES(stores_mu_);

  /// The label table shared by every inline document this service parses.
  /// Pre-interning the expected label vocabulary here pins label ids, which
  /// makes concurrent runs byte-identical to sequential ones (ids otherwise
  /// depend on first-touch order across threads).
  const std::shared_ptr<LabelTable>& label_table() const { return labels_; }

  MetricsRegistry& metrics() { return metrics_; }
  TreeCache::Stats cache_stats() const { return cache_.stats(); }
  TokenMemo::Stats token_memo_stats() const { return token_memo_.stats(); }
  size_t queue_depth() const { return pool_.QueueDepth(); }

  /// Stops admissions, drains queued requests, joins workers. Idempotent.
  void Shutdown();

 private:
  using Clock = std::chrono::steady_clock;

  struct StoreEntry {
    /// Serializes all service-side use of the store, including parses into
    /// its LabelTable (which Commit-side parsing mutates).
    Mutex mu;
    /// Set once before the entry is published under stores_mu_. Every
    /// operation works on the group's *current* primary, fetched per use,
    /// so a failover never leaves the entry pointing at a deposed store.
    std::shared_ptr<ReplicatedVersionStore> group;

    /// Circuit-breaker state (see StoreHealth). Only server-side failures
    /// count toward the threshold — a client asking for a version that
    /// does not exist (kNotFound/kOutOfRange), failing to parse, or
    /// requesting a version permanently lost to a salvage hole (kDataLoss)
    /// says nothing about the store's ability to serve.
    StoreHealth health GUARDED_BY(mu) = StoreHealth::kHealthy;
    int consecutive_failures GUARDED_BY(mu) = 0;
    Clock::time_point quarantined_until GUARDED_BY(mu){};
  };

  /// Runs one admitted request on a worker thread.
  DiffResponse Process(const DiffRequest& request, Clock::time_point submitted,
                       bool shed_degraded);

  /// One finished answer: what a response needs, with the label table its
  /// script formats against (the old tree's, or the store's for a logged
  /// delta). The diff cache holds only undegraded ones, and they hold no
  /// tree, so they pin no tree-cache entry.
  struct Answer {
    EditScript script;
    std::shared_ptr<const LabelTable> labels;
    DiffRung rung = DiffRung::kFastMatch;
    size_t pruned_subtrees = 0;
    size_t pruned_nodes = 0;
  };

  /// The cached answer for (old fingerprint, new fingerprint, rung), or
  /// null. A hit is moved to the front of the LRU list.
  std::shared_ptr<const Answer> LookupAnswer(uint64_t key_old,
                                             uint64_t key_new, DiffRung rung)
      EXCLUDES(answer_cache_mu_);

  /// Publishes an answer under its key, evicting the LRU tail beyond
  /// kDiffCacheEntries.
  void StoreAnswer(uint64_t key_old, uint64_t key_new, DiffRung rung,
                   std::shared_ptr<const Answer> answer)
      EXCLUDES(answer_cache_mu_);

  /// The stored delta answering an adjacent stored-mode request that starts
  /// at `start_rung`, or null to run the pipeline. An in-memory read: it
  /// never repairs, moves the breaker or fast-fails; a poisoned or
  /// quarantined store is left to the resolve path, which does.
  std::shared_ptr<const Answer> LogAnswer(const DiffRequest& request,
                                          DiffRung start_rung)
      EXCLUDES(stores_mu_);

  /// Resolves one document (inline text or stored version) to a cache
  /// entry; `*cache_hit` reports whether parse/materialize was skipped.
  StatusOr<std::shared_ptr<const CachedTree>> ResolveInline(
      const std::string& text, DiffRequest::Format format, bool* cache_hit);
  StatusOr<std::shared_ptr<const CachedTree>> ResolveVersion(
      const std::string& doc_id, int version, bool* cache_hit)
      EXCLUDES(stores_mu_);

  /// The published entry under `doc_id`, or null. Takes the registry lock
  /// shared: lookups on the request path don't serialize behind each other.
  StoreEntry* FindStore(const std::string& doc_id) EXCLUDES(stores_mu_);

  /// Runs `op` once against the group's current primary under the entry
  /// lock, wrapped in the service's resilience policy: breaker fast-fail
  /// while quarantined, Repair of a primary already poisoned, failover to
  /// a follower (re-running `op` on the new primary), and breaker
  /// bookkeeping on the final outcome.
  Status GuardedStoreOp(StoreEntry* entry,
                        const std::function<Status(VersionStore*)>& op);

  /// Body of the background scrubber thread.
  void ScrubLoop() EXCLUDES(scrub_mu_);

  StatusOr<Tree> ParseDoc(const std::string& text, DiffRequest::Format format);

  /// Replication options for a service-owned group: the service's metrics
  /// registry and sleep hook.
  ReplicationOptions GroupOptions(AckMode ack_mode);

  /// Publishes `group` under `doc_id` unless the id is attached or being
  /// recovered.
  Status AttachLocked(const std::string& doc_id,
                      std::shared_ptr<ReplicatedVersionStore> group)
      REQUIRES(stores_mu_);

  DiffServiceOptions options_;
  std::shared_ptr<LabelTable> labels_ = std::make_shared<LabelTable>();
  MetricsRegistry metrics_;
  TreeCache cache_;
  /// Tokenized values shared by every request and by the commits of the
  /// groups this service creates (through options_.diff).
  TokenMemo token_memo_;
  ThreadPool pool_;  // Last member: workers must die before what they use.

  /// Guards the registry map (reader/writer: attach/create write, request
  /// lookups read); per-store work holds entry->mu.
  SharedMutex stores_mu_;
  std::map<std::string, std::unique_ptr<StoreEntry>> stores_
      GUARDED_BY(stores_mu_);
  /// Ids claimed by a RecoverStore in progress.
  std::set<std::string> recovering_ GUARDED_BY(stores_mu_);

  /// The diff cache. A plain mutex + LRU list: the capacity is tens of
  /// entries, so a linear key scan beats hash-map bookkeeping and keeps
  /// eviction trivial.
  struct AnswerSlot {
    uint64_t key_old = 0;
    uint64_t key_new = 0;
    DiffRung rung = DiffRung::kFastMatch;
    std::shared_ptr<const Answer> answer;
  };
  Mutex answer_cache_mu_;
  std::list<AnswerSlot> answer_cache_ GUARDED_BY(answer_cache_mu_);

  /// Background scrubber (running only when scrub_interval_seconds > 0;
  /// Shutdown stops and joins it before the worker pool).
  Mutex scrub_mu_;
  CondVar scrub_cv_;
  bool scrub_stop_ GUARDED_BY(scrub_mu_) = false;
  std::thread scrubber_;

  // Hot-path metric handles (registered once; recording is pure atomics).
  Counter* requests_ = nullptr;
  Counter* responses_ok_ = nullptr;
  Counter* responses_error_ = nullptr;
  Counter* shed_queue_full_ = nullptr;
  Counter* shed_deadline_ = nullptr;
  Counter* shed_degraded_ = nullptr;
  Counter* cache_hits_ = nullptr;
  Counter* cache_misses_ = nullptr;
  Counter* rung_counters_[4] = {nullptr, nullptr, nullptr, nullptr};
  Counter* prune_subtrees_ = nullptr;
  Counter* prune_nodes_ = nullptr;
  Counter* prune_collisions_ = nullptr;
  Counter* match_cache_hits_ = nullptr;
  Counter* match_cache_misses_ = nullptr;
  Counter* chain_log_hits_ = nullptr;
  Counter* breaker_trips_ = nullptr;
  Counter* breaker_fast_fails_ = nullptr;
  Counter* store_repairs_ = nullptr;
  Counter* store_failovers_ = nullptr;
  Counter* scrub_runs_ = nullptr;
  Counter* scrub_corruption_found_ = nullptr;
  Histogram* queue_wait_h_ = nullptr;
  Histogram* resolve_h_ = nullptr;
  Histogram* match_h_ = nullptr;
  Histogram* gen_h_ = nullptr;
  Histogram* e2e_h_ = nullptr;
};

}  // namespace treediff

#endif  // TREEDIFF_SERVICE_DIFF_SERVICE_H_
