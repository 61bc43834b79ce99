// Per-rank memory governance for the simulated runtime.
//
// A MemoryBudget gives every rank a byte budget with two watermarks:
//
//  - soft: advisory. Crossing it makes budget-aware consumers (the
//    mapreduce shuffle/sort paths) spill sealed frames to disk instead of
//    holding a second in-memory copy. Work always completes, byte-identical
//    to the unconstrained run.
//  - hard: enforced. acquire() past the hard limit throws
//    BudgetExceededError naming the rank, stage, and high-water mark, so a
//    run that genuinely cannot fit fails with a typed, actionable error
//    instead of an OOM kill.
//
// The budget tracks two pools separately:
//
//  - tracked transients: working buffers the mapreduce layer explicitly
//    acquires (shuffle fill buffers, sort copies, rewrite spools). These
//    are what the watermarks govern, because they are the memory a spill
//    can actually give back.
//  - mailbox bytes: payloads queued in mpsim mailboxes. These are governed
//    by credit-based flow control (a sender blocks, never drops, while the
//    destination mailbox is over `mailbox_limit`), so the accounting here
//    is non-throwing and exists for reporting and the deadlock dump.
//
// The high-water mark reported per rank is the peak of tracked + mailbox
// bytes, which is the quantity an operator would provision for.
//
// Threading: all mutation paths are thread-safe; ranks run concurrently in
// mpsim, and a sender accounts mailbox bytes on the destination's slot.
// Usage, peaks and counter totals are plain atomics, and peak tracking is a
// lock-free compare-and-swap max, because acquire() runs once per record on
// a spooling rank. Only the stage label takes a per-rank mutex; it is kept
// for BudgetExceededError and the deadlock dump. The event counters are the
// only store of those quantities: the engine copies them into the run's
// StageReport (and from there into the metrics registry) after the run.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace papar {

/// Thrown when a rank's tracked working memory would exceed its hard
/// budget. Carries everything needed to act on the failure: which rank,
/// in which stage, how much was requested on top of what, and the
/// high-water mark the run reached before failing.
class BudgetExceededError : public Error {
 public:
  BudgetExceededError(int rank, std::string stage, std::size_t requested,
                      std::size_t used, std::size_t limit,
                      std::size_t high_water);

  int rank() const { return rank_; }
  const std::string& stage() const { return stage_; }
  std::size_t requested() const { return requested_; }
  std::size_t used() const { return used_; }
  std::size_t limit() const { return limit_; }
  std::size_t high_water() const { return high_water_; }

 private:
  int rank_;
  std::string stage_;
  std::size_t requested_;
  std::size_t used_;
  std::size_t limit_;
  std::size_t high_water_;
};

struct MemoryBudgetConfig {
  /// Per-rank hard limit on tracked working bytes; 0 = unlimited.
  std::size_t hard_limit = 0;
  /// Per-rank soft watermark above which consumers spill; 0 = never spill.
  std::size_t soft_limit = 0;
  /// Per-rank mailbox byte cap enforced by credit-based flow control in
  /// mpsim; 0 = unbounded mailboxes (the pre-governance behaviour).
  std::size_t mailbox_limit = 0;
  /// Directory for spill files. Consumers create it on first use.
  std::string spill_dir;
};

class MemoryBudget {
 public:
  explicit MemoryBudget(MemoryBudgetConfig cfg);

  /// Sizes the per-rank slots. Must be called (by Runtime::set_memory_budget
  /// or a test) before any per-rank accounting. Resets usage, keeps totals.
  void bind(int nranks);

  const MemoryBudgetConfig& config() const { return cfg_; }
  int nranks() const { return static_cast<int>(ranks_.size()); }

  /// Labels `rank` with a stage name ("job:group", "setup", ...): the stage
  /// BudgetExceededError and describe() name.
  void set_stage(int rank, const std::string& stage);
  std::string stage(int rank) const;

  /// Accounts `bytes` of tracked working memory to `rank`. Throws
  /// BudgetExceededError if the hard limit would be exceeded, and
  /// std::bad_alloc when an allocation-failure injection point armed with
  /// fail_allocation_after() fires (test hook).
  void acquire(int rank, std::size_t bytes);
  void release(int rank, std::size_t bytes) noexcept;

  /// Tracked working bytes currently accounted to `rank`.
  std::size_t used(int rank) const;
  /// Peak of tracked + mailbox bytes seen on `rank`.
  std::size_t high_water(int rank) const;
  /// Max high-water over all ranks.
  std::size_t high_water() const;

  /// True when `rank` holding `projected_extra` more tracked bytes would
  /// cross the soft watermark — the signal for consumers to spill.
  bool should_spill(int rank, std::size_t projected_extra) const;

  // --- mailbox accounting (mpsim; capped by credits, never throws) ---
  void add_mailbox(int rank, std::size_t bytes) noexcept;
  void sub_mailbox(int rank, std::size_t bytes) noexcept;
  std::size_t mailbox_used(int rank) const;

  // --- event counters (aggregated over ranks) ---
  void note_spill(int rank, std::size_t bytes);
  void note_soft_crossing(int rank);
  void note_backpressure(int rank);
  void note_emergency_credit(int rank);

  std::uint64_t spill_bytes() const { return spill_bytes_.load(std::memory_order_relaxed); }
  std::uint64_t spill_runs() const { return spill_runs_.load(std::memory_order_relaxed); }
  std::uint64_t soft_crossings() const { return soft_crossings_.load(std::memory_order_relaxed); }
  std::uint64_t backpressure_stalls() const { return backpressure_stalls_.load(std::memory_order_relaxed); }
  std::uint64_t emergency_credits() const { return emergency_credits_.load(std::memory_order_relaxed); }

  /// Test hook: the n-th acquire() from now (1-based) throws
  /// std::bad_alloc, emulating an allocation failure at a seeded point.
  void fail_allocation_after(std::uint64_t n);

  /// One-line credit/usage summary for rank `rank`, used by the deadlock
  /// watchdog dump.
  std::string describe(int rank) const;

 private:
  struct RankSlot {
    std::atomic<std::size_t> used{0};
    std::atomic<std::size_t> mailbox{0};
    std::atomic<std::size_t> high_water{0};
    mutable std::mutex stage_mutex;
    std::string stage = "setup";
  };

  void bump_high_water(RankSlot& slot) noexcept;

  MemoryBudgetConfig cfg_;
  std::vector<std::unique_ptr<RankSlot>> ranks_;

  std::atomic<std::uint64_t> spill_bytes_{0};
  std::atomic<std::uint64_t> spill_runs_{0};
  std::atomic<std::uint64_t> soft_crossings_{0};
  std::atomic<std::uint64_t> backpressure_stalls_{0};
  std::atomic<std::uint64_t> emergency_credits_{0};

  std::atomic<std::int64_t> fail_after_{-1};
};

/// RAII helper: acquires on construction, releases on destruction.
class BudgetScope {
 public:
  BudgetScope(MemoryBudget* budget, int rank, std::size_t bytes)
      : budget_(budget), rank_(rank), bytes_(bytes) {
    if (budget_ != nullptr && bytes_ > 0) budget_->acquire(rank_, bytes_);
  }
  ~BudgetScope() {
    if (budget_ != nullptr && bytes_ > 0) budget_->release(rank_, bytes_);
  }
  BudgetScope(const BudgetScope&) = delete;
  BudgetScope& operator=(const BudgetScope&) = delete;

  /// Grows the scope by `extra` bytes (throws like acquire).
  void grow(std::size_t extra) {
    if (budget_ != nullptr && extra > 0) {
      budget_->acquire(rank_, extra);
      bytes_ += extra;
    }
  }
  /// Shrinks the scope by `fewer` bytes (clamped).
  void shrink(std::size_t fewer) noexcept {
    if (budget_ == nullptr) return;
    if (fewer > bytes_) fewer = bytes_;
    budget_->release(rank_, fewer);
    bytes_ -= fewer;
  }
  std::size_t bytes() const { return bytes_; }

 private:
  MemoryBudget* budget_;
  int rank_;
  std::size_t bytes_;
};

}  // namespace papar
