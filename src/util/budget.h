#ifndef TREEDIFF_UTIL_BUDGET_H_
#define TREEDIFF_UTIL_BUDGET_H_

#include <chrono>
#include <cstddef>
#include <limits>
#include <string>

#include "util/status.h"

namespace treediff {

/// A resource budget for one diff (or parse, or apply) call: a wall-clock
/// deadline, a node-visit cap, a comparison cap, and an arena-memory
/// ceiling. The pipeline threads a `const Budget*` through every phase and
/// probes it at phase boundaries and inner-loop strides; on exhaustion the
/// caller degrades along a documented ladder (see DiffOptions / DiffReport
/// in core/diff.h and docs/robustness.md) instead of running unbounded.
///
/// Semantics:
///  * All limits default to "unlimited"; a default-constructed Budget never
///    exhausts but still counts work, so it doubles as an instrumentation
///    probe.
///  * Counters keep accumulating after exhaustion (they are reporting data);
///    `exhausted()` is sticky — once a limit trips, every later probe fails
///    until `Rearm()`.
///  * The deadline clock starts when the deadline is set (or at `Rearm()`).
///    Deadline probes hit the clock only every `kDeadlineStride` calls so a
///    probe costs a couple of increments and compares on the fast path.
///  * A Budget is shared mutable state probed through `const` pointers
///    (counters are `mutable`); it is NOT thread-safe — use one Budget per
///    concurrent pipeline invocation.
class Budget {
 public:
  static constexpr size_t kUnlimited = std::numeric_limits<size_t>::max();

  /// Deadline probes touch the clock once per this many Check() calls.
  static constexpr size_t kDeadlineStride = 64;

  /// Unlimited budget (counts work, never exhausts).
  Budget() : start_(Clock::now()), deadline_(TimePoint::max()) {}

  /// Convenience: a budget with only a wall-clock deadline, starting now.
  static Budget Deadline(double seconds) {
    Budget b;
    b.set_deadline_seconds(seconds);
    return b;
  }

  // ----- Limit configuration (chainable) -----

  /// Sets the wall-clock deadline `seconds` from now and restarts the clock.
  Budget& set_deadline_seconds(double seconds) {
    start_ = Clock::now();
    deadline_ = start_ + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
    return *this;
  }

  /// Caps the number of nodes the pipeline may visit.
  Budget& set_node_cap(size_t cap) {
    node_cap_ = cap;
    return *this;
  }

  /// Caps the number of comparisons (leaf compare() calls and partner
  /// checks, the paper's r1 + r2).
  Budget& set_comparison_cap(size_t cap) {
    comparison_cap_ = cap;
    return *this;
  }

  /// Caps the bytes of working memory (DP tables, tree clones) the pipeline
  /// may hold at once.
  Budget& set_arena_cap_bytes(size_t cap) {
    arena_cap_ = cap;
    return *this;
  }

  /// Clears the exhausted flag, zeroes the counters, and restarts the
  /// deadline clock (the deadline keeps its configured duration).
  void Rearm() {
    const auto duration = deadline_ == TimePoint::max()
                              ? Clock::duration::max()
                              : deadline_ - start_;
    start_ = Clock::now();
    deadline_ = duration == Clock::duration::max() ? TimePoint::max()
                                                   : start_ + duration;
    nodes_ = comparisons_ = arena_ = peak_arena_ = probe_calls_ = 0;
    exhausted_code_ = Code::kOk;
    exhausted_detail_.clear();
  }

  // ----- Probes (cheap; called from inner loops) -----

  /// Counts `n` visited nodes; false once the budget is exhausted.
  bool ChargeNodes(size_t n = 1) const {
    nodes_ += n;
    if (nodes_ > node_cap_) {
      Trip(Code::kResourceExhausted, "node cap");
    }
    return Check();
  }

  /// Counts `n` comparisons; false once the budget is exhausted.
  bool ChargeComparisons(size_t n = 1) const {
    comparisons_ += n;
    if (comparisons_ > comparison_cap_) {
      Trip(Code::kResourceExhausted, "comparison cap");
    }
    return Check();
  }

  /// Records an allocation of `bytes` of working memory; false once the
  /// budget is exhausted. Pair with ReleaseArena when the memory is freed.
  bool ChargeArena(size_t bytes) const {
    arena_ += bytes;
    if (arena_ > peak_arena_) peak_arena_ = arena_;
    if (arena_ > arena_cap_) {
      Trip(Code::kResourceExhausted, "arena cap");
    }
    return Check();
  }

  /// Records that `bytes` of previously charged working memory were freed.
  void ReleaseArena(size_t bytes) const {
    arena_ = bytes > arena_ ? 0 : arena_ - bytes;
  }

  /// The stride probe: true while the budget holds. Checks the sticky flag
  /// every call and the deadline clock every kDeadlineStride calls.
  bool Check() const {
    if (exhausted_code_ != Code::kOk) return false;
    if ((++probe_calls_ % kDeadlineStride) == 0) return CheckDeadline();
    return true;
  }

  /// The phase-boundary probe: like Check() but always consults the clock.
  bool CheckNow() const {
    if (exhausted_code_ != Code::kOk) return false;
    return CheckDeadline();
  }

  /// Predicts whether an operation needing `nodes` node visits,
  /// `comparisons` comparisons, and `arena_bytes` of working memory can
  /// possibly fit in what remains. Used by the degradation ladder to skip a
  /// rung that is doomed before burning budget on it.
  bool CouldAfford(size_t nodes, size_t comparisons,
                   size_t arena_bytes) const {
    if (exhausted_code_ != Code::kOk) return false;
    if (node_cap_ != kUnlimited && nodes_ + nodes > node_cap_) return false;
    if (comparison_cap_ != kUnlimited &&
        comparisons_ + comparisons > comparison_cap_) {
      return false;
    }
    if (arena_cap_ != kUnlimited && arena_ + arena_bytes > arena_cap_) {
      return false;
    }
    return true;
  }

  // ----- State -----

  bool exhausted() const { return exhausted_code_ != Code::kOk; }

  /// kDeadlineExceeded or kResourceExhausted once tripped; kOk before.
  Code exhaustion_code() const { return exhausted_code_; }

  /// Which limit tripped ("deadline", "node cap", ...); empty before.
  const std::string& exhaustion_detail() const { return exhausted_detail_; }

  /// OK while within budget; the exhaustion Status (code + tripped limit +
  /// counters) once tripped.
  Status ToStatus() const;

  // ----- Counters (read by the caller after a diff) -----

  size_t nodes_visited() const { return nodes_; }
  size_t comparisons() const { return comparisons_; }
  size_t arena_bytes() const { return arena_; }
  size_t peak_arena_bytes() const { return peak_arena_; }

  /// Seconds since the deadline clock (re)started.
  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

  bool CheckDeadline() const {
    if (deadline_ != TimePoint::max() && Clock::now() >= deadline_) {
      Trip(Code::kDeadlineExceeded, "deadline");
      return false;
    }
    return true;
  }

  void Trip(Code code, const char* what) const {
    if (exhausted_code_ == Code::kOk) {
      exhausted_code_ = code;
      exhausted_detail_ = what;
    }
  }

  TimePoint start_;
  TimePoint deadline_;
  size_t node_cap_ = kUnlimited;
  size_t comparison_cap_ = kUnlimited;
  size_t arena_cap_ = kUnlimited;

  mutable size_t nodes_ = 0;
  mutable size_t comparisons_ = 0;
  mutable size_t arena_ = 0;
  mutable size_t peak_arena_ = 0;
  mutable size_t probe_calls_ = 0;
  mutable Code exhausted_code_ = Code::kOk;
  mutable std::string exhausted_detail_;
};

// Null-safe wrappers for the `const Budget*` threaded through the pipeline:
// a null budget means "unlimited" and costs one pointer compare.

inline bool BudgetOk(const Budget* b) { return b == nullptr || !b->exhausted(); }

inline bool BudgetCheck(const Budget* b) { return b == nullptr || b->Check(); }

inline bool BudgetCheckNow(const Budget* b) {
  return b == nullptr || b->CheckNow();
}

inline bool BudgetChargeNodes(const Budget* b, size_t n = 1) {
  return b == nullptr || b->ChargeNodes(n);
}

inline bool BudgetChargeComparisons(const Budget* b, size_t n = 1) {
  return b == nullptr || b->ChargeComparisons(n);
}

inline bool BudgetChargeArena(const Budget* b, size_t bytes) {
  return b == nullptr || b->ChargeArena(bytes);
}

inline void BudgetReleaseArena(const Budget* b, size_t bytes) {
  if (b != nullptr) b->ReleaseArena(bytes);
}

/// The exhaustion status of a possibly-null budget (OK for null).
inline Status BudgetStatus(const Budget* b) {
  return b == nullptr ? Status::Ok() : b->ToStatus();
}

/// True for the two codes an exhausted budget produces.
inline bool IsExhaustion(Code code) {
  return code == Code::kResourceExhausted || code == Code::kDeadlineExceeded;
}

}  // namespace treediff

#endif  // TREEDIFF_UTIL_BUDGET_H_
