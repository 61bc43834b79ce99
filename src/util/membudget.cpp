#include "util/membudget.hpp"

#include <new>
#include <sstream>

namespace papar {

namespace {

std::string budget_message(int rank, const std::string& stage,
                           std::size_t requested, std::size_t used,
                           std::size_t limit, std::size_t high_water) {
  std::ostringstream os;
  os << "memory budget exceeded on rank " << rank << " in stage `" << stage
     << "`: requested " << requested << " B on top of " << used
     << " B tracked, hard limit " << limit << " B (high water " << high_water
     << " B)";
  return os.str();
}

}  // namespace

BudgetExceededError::BudgetExceededError(int rank, std::string stage,
                                         std::size_t requested,
                                         std::size_t used, std::size_t limit,
                                         std::size_t high_water)
    : Error(budget_message(rank, stage, requested, used, limit, high_water)),
      rank_(rank),
      stage_(std::move(stage)),
      requested_(requested),
      used_(used),
      limit_(limit),
      high_water_(high_water) {}

MemoryBudget::MemoryBudget(MemoryBudgetConfig cfg) : cfg_(std::move(cfg)) {}

void MemoryBudget::bind(int nranks) {
  PAPAR_CHECK_MSG(nranks > 0, "MemoryBudget::bind needs at least one rank");
  ranks_.clear();
  ranks_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) ranks_.push_back(std::make_unique<RankSlot>());
}

void MemoryBudget::set_stage(int rank, const std::string& stage) {
  PAPAR_CHECK(rank >= 0 && rank < nranks());
  RankSlot& slot = *ranks_[static_cast<std::size_t>(rank)];
  std::lock_guard<std::mutex> lock(slot.stage_mutex);
  slot.stage = stage;
}

std::string MemoryBudget::stage(int rank) const {
  PAPAR_CHECK(rank >= 0 && rank < nranks());
  const RankSlot& slot = *ranks_[static_cast<std::size_t>(rank)];
  std::lock_guard<std::mutex> lock(slot.stage_mutex);
  return slot.stage;
}

void MemoryBudget::bump_high_water(RankSlot& slot) noexcept {
  // The increments in acquire() and add_mailbox() and these two loads are
  // sequentially consistent, so the bump after the last of several
  // concurrent increments sees all of them: holders that overlap peak at
  // exactly their sum. On x86 this costs nothing over relaxed ordering.
  const std::size_t total = slot.used.load() + slot.mailbox.load();
  std::size_t prev = slot.high_water.load(std::memory_order_relaxed);
  while (total > prev &&
         !slot.high_water.compare_exchange_weak(prev, total,
                                                std::memory_order_relaxed)) {
  }
}

void MemoryBudget::acquire(int rank, std::size_t bytes) {
  PAPAR_CHECK(rank >= 0 && rank < nranks());
  const std::int64_t fail = fail_after_.load(std::memory_order_relaxed);
  if (fail >= 0 && fail_after_.fetch_sub(1, std::memory_order_relaxed) == 0) {
    throw std::bad_alloc();
  }
  RankSlot& slot = *ranks_[static_cast<std::size_t>(rank)];
  const std::size_t before = slot.used.fetch_add(bytes);
  if (cfg_.hard_limit > 0 && before + bytes > cfg_.hard_limit) {
    slot.used.fetch_sub(bytes, std::memory_order_relaxed);
    throw BudgetExceededError(rank, stage(rank), bytes, before, cfg_.hard_limit,
                              high_water(rank));
  }
  if (cfg_.soft_limit > 0 && before <= cfg_.soft_limit &&
      before + bytes > cfg_.soft_limit) {
    note_soft_crossing(rank);
  }
  bump_high_water(slot);
}

void MemoryBudget::release(int rank, std::size_t bytes) noexcept {
  if (rank < 0 || rank >= nranks()) return;
  RankSlot& slot = *ranks_[static_cast<std::size_t>(rank)];
  std::size_t prev = slot.used.load(std::memory_order_relaxed);
  std::size_t next;
  do {
    next = bytes > prev ? 0 : prev - bytes;
  } while (!slot.used.compare_exchange_weak(prev, next, std::memory_order_relaxed));
}

std::size_t MemoryBudget::used(int rank) const {
  PAPAR_CHECK(rank >= 0 && rank < nranks());
  return ranks_[static_cast<std::size_t>(rank)]->used.load(std::memory_order_relaxed);
}

std::size_t MemoryBudget::high_water(int rank) const {
  PAPAR_CHECK(rank >= 0 && rank < nranks());
  return ranks_[static_cast<std::size_t>(rank)]->high_water.load(
      std::memory_order_relaxed);
}

std::size_t MemoryBudget::high_water() const {
  std::size_t hw = 0;
  for (const auto& slot : ranks_) {
    const std::size_t h = slot->high_water.load(std::memory_order_relaxed);
    if (h > hw) hw = h;
  }
  return hw;
}

bool MemoryBudget::should_spill(int rank, std::size_t projected_extra) const {
  if (cfg_.soft_limit == 0) return false;
  PAPAR_CHECK(rank >= 0 && rank < nranks());
  const RankSlot& slot = *ranks_[static_cast<std::size_t>(rank)];
  return slot.used.load(std::memory_order_relaxed) + projected_extra >
         cfg_.soft_limit;
}

void MemoryBudget::add_mailbox(int rank, std::size_t bytes) noexcept {
  if (rank < 0 || rank >= nranks()) return;
  RankSlot& slot = *ranks_[static_cast<std::size_t>(rank)];
  slot.mailbox.fetch_add(bytes);
  bump_high_water(slot);
}

void MemoryBudget::sub_mailbox(int rank, std::size_t bytes) noexcept {
  if (rank < 0 || rank >= nranks()) return;
  RankSlot& slot = *ranks_[static_cast<std::size_t>(rank)];
  std::size_t prev = slot.mailbox.load(std::memory_order_relaxed);
  std::size_t next;
  do {
    next = bytes > prev ? 0 : prev - bytes;
  } while (!slot.mailbox.compare_exchange_weak(prev, next,
                                               std::memory_order_relaxed));
}

std::size_t MemoryBudget::mailbox_used(int rank) const {
  PAPAR_CHECK(rank >= 0 && rank < nranks());
  return ranks_[static_cast<std::size_t>(rank)]->mailbox.load(
      std::memory_order_relaxed);
}

void MemoryBudget::note_spill(int rank, std::size_t bytes) {
  (void)rank;
  spill_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  spill_runs_.fetch_add(1, std::memory_order_relaxed);
}

void MemoryBudget::note_soft_crossing(int rank) {
  (void)rank;
  soft_crossings_.fetch_add(1, std::memory_order_relaxed);
}

void MemoryBudget::note_backpressure(int rank) {
  (void)rank;
  backpressure_stalls_.fetch_add(1, std::memory_order_relaxed);
}

void MemoryBudget::note_emergency_credit(int rank) {
  (void)rank;
  emergency_credits_.fetch_add(1, std::memory_order_relaxed);
}

void MemoryBudget::fail_allocation_after(std::uint64_t n) {
  PAPAR_CHECK_MSG(n > 0, "fail_allocation_after is 1-based");
  fail_after_.store(static_cast<std::int64_t>(n) - 1,
                    std::memory_order_relaxed);
}

std::string MemoryBudget::describe(int rank) const {
  if (rank < 0 || rank >= nranks()) return "budget: unbound";
  const RankSlot& slot = *ranks_[static_cast<std::size_t>(rank)];
  std::ostringstream os;
  os << "tracked " << slot.used.load(std::memory_order_relaxed) << "/"
     << cfg_.hard_limit << " B, mailbox "
     << slot.mailbox.load(std::memory_order_relaxed) << "/"
     << cfg_.mailbox_limit << " B, high water "
     << slot.high_water.load(std::memory_order_relaxed) << " B, stage `"
     << stage(rank) << "`";
  return os.str();
}

}  // namespace papar
