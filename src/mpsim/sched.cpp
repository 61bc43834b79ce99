#include "mpsim/sched.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

// Sanitizer fiber support. TSan must be told about every context switch or
// it attributes one rank's accesses to whatever rank last ran on the worker
// thread; ASan must be told about stack switches or stack-use-after-return
// bookkeeping corrupts when a fiber resumes on a different worker.
#if defined(__SANITIZE_THREAD__)
#define PAPAR_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PAPAR_TSAN_FIBERS 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define PAPAR_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PAPAR_ASAN_FIBERS 1
#endif
#endif
#ifdef PAPAR_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif
#ifdef PAPAR_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

namespace papar::mp {

int resolve_workers(int requested, int nranks) {
  int workers = requested;
  if (workers <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers = static_cast<int>(hw > 0 ? hw : 1);
  }
  return std::min(workers, nranks);
}

namespace detail {

namespace {

/// Usable stack per rank fiber. 1024 ranks reserve 256 MiB of address
/// space, of which only touched pages become resident.
constexpr std::size_t kStackBytes = 256 * 1024;

/// How long an idle worker waits before running on_idle anyway. Quiescence
/// triggers on_idle at once; this backstop paces the telemetry sweep while
/// some ranks still run, and re-scans a quiescent state that a scan left
/// unchanged.
constexpr std::chrono::milliseconds kIdlePoll{100};

/// Per-worker switching state, living on the worker's own stack.
struct WorkerContext {
  ucontext_t ctx;
#ifdef PAPAR_TSAN_FIBERS
  void* tsan = nullptr;  // the worker thread's own TSan fiber handle
#endif
#ifdef PAPAR_ASAN_FIBERS
  void* asan_save = nullptr;  // fake-stack save while a fiber runs
#endif
};

}  // namespace

struct FiberScheduler::Fiber {
  int rank = 0;
  Impl* impl = nullptr;
  ucontext_t ctx{};
  unsigned char* stack = nullptr;  // lowest usable byte; the guard page sits below
  /// The worker currently (or last) hosting this fiber; set by the worker
  /// immediately before each resume. The fiber swaps back through it, so a
  /// slice always parks on the worker it resumed on.
  WorkerContext* home = nullptr;
  bool done = false;
  // Scheduling state, guarded by Impl::mutex.
  bool parked = false;
  bool wake_pending = false;
#ifdef PAPAR_TSAN_FIBERS
  void* tsan = nullptr;
#endif
#ifdef PAPAR_ASAN_FIBERS
  void* asan_save = nullptr;
  /// Stack bounds of the context this fiber was last entered from (its
  /// hosting worker), reported by finish_switch and used to switch back.
  const void* from_bottom = nullptr;
  std::size_t from_size = 0;
#endif
};

struct FiberScheduler::Impl {
  /// One anonymous mapping holding every rank's stack, each above its own
  /// PROT_NONE guard page: [guard|stack 0][guard|stack 1]... A rank that
  /// overruns its stack faults on the guard instead of silently writing
  /// into its neighbour's memory.
  void* stacks = MAP_FAILED;
  std::size_t stacks_bytes = 0;
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Fiber> fibers;  // indexed by rank
  std::deque<int> runq;       // ranks ready to resume
  /// Mirror of runq.size(), maintained under `mutex` but readable without
  /// it (telemetry sampling from rank hot paths must not take the
  /// scheduler lock).
  std::atomic<std::size_t> runq_len{0};
  int live = 0;               // fibers not yet done
  /// Fibers popped from the run queue whose slice their worker has not yet
  /// committed back (parked, re-queued or finished). An empty queue with
  /// nothing in flight and live fibers left means every live fiber is
  /// parked: the run is quiescent and only on_idle can move it.
  int in_flight = 0;
  /// Set whenever a worker commits a slice as parked or finished, cleared
  /// by the quiescence trigger, so a quiescent state is scanned at most
  /// once however many workers observe it.
  bool committed_since_scan = false;
  /// An on_idle call is in progress; the scheduler runs one at a time.
  bool idle_running = false;
  Rng rng{1};
  bool randomized = false;
  const std::function<void(int)>* body = nullptr;
  const std::function<void(int)>* on_resume = nullptr;
  const std::function<void()>* on_idle = nullptr;

  ~Impl() {
    if (stacks != MAP_FAILED) munmap(stacks, stacks_bytes);
  }

  /// Runs on_idle with the scheduler lock dropped (`lock` holds `mutex`
  /// on entry and on return).
  void run_idle(std::unique_lock<std::mutex>& lock) {
    idle_running = true;
    lock.unlock();
    (*on_idle)();
    lock.lock();
    idle_running = false;
  }

  static void trampoline(unsigned int hi, unsigned int lo);
  static void switch_into_fiber(WorkerContext& w, Fiber& f);
  static void switch_out_of_fiber(Fiber& f, bool final_exit);
};

/// Runs on the worker stack: hands the worker to fiber `f` and returns when
/// the fiber parks or finishes.
void FiberScheduler::Impl::switch_into_fiber(WorkerContext& w, Fiber& f) {
  f.home = &w;
#ifdef PAPAR_TSAN_FIBERS
  __tsan_switch_to_fiber(f.tsan, 0);
#endif
#ifdef PAPAR_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&w.asan_save, f.stack, kStackBytes);
#endif
  swapcontext(&w.ctx, &f.ctx);
#ifdef PAPAR_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(w.asan_save, nullptr, nullptr);
#endif
}

/// Runs on the fiber stack: returns the worker to the scheduler. With
/// `final_exit` the fiber never resumes (its fake stack is released).
void FiberScheduler::Impl::switch_out_of_fiber(Fiber& f, bool final_exit) {
  WorkerContext* w = f.home;
#ifdef PAPAR_TSAN_FIBERS
  __tsan_switch_to_fiber(w->tsan, 0);
#endif
#ifdef PAPAR_ASAN_FIBERS
  __sanitizer_start_switch_fiber(final_exit ? nullptr : &f.asan_save,
                                 f.from_bottom, f.from_size);
#else
  (void)final_exit;
#endif
  swapcontext(&f.ctx, &w->ctx);
  // Resumed — possibly on a different worker thread than the one above.
#ifdef PAPAR_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(f.asan_save, &f.from_bottom, &f.from_size);
#endif
}

void FiberScheduler::Impl::trampoline(unsigned int hi, unsigned int lo) {
  auto* f = reinterpret_cast<Fiber*>((static_cast<std::uintptr_t>(hi) << 32) |
                                     static_cast<std::uintptr_t>(lo));
#ifdef PAPAR_ASAN_FIBERS
  // First entry: no previously saved fake stack; learn the hosting
  // worker's stack bounds for the switch back.
  __sanitizer_finish_switch_fiber(nullptr, &f->from_bottom, &f->from_size);
#endif
  (*f->impl->body)(f->rank);
  {
    // `done` is read under the scheduler mutex by wake()/wake_all(); commit
    // it under the same lock so a concurrent wake never sees a torn write.
    std::lock_guard<std::mutex> lock(f->impl->mutex);
    f->done = true;
  }
  switch_out_of_fiber(*f, /*final_exit=*/true);
  std::abort();  // a finished fiber must never be resumed
}

FiberScheduler::FiberScheduler(int nranks, const SchedulerOptions& options)
    : nranks_(nranks), impl_(std::make_unique<Impl>()) {
  PAPAR_CHECK_MSG(nranks >= 1, "fiber scheduler needs at least one rank");
  workers_ = resolve_workers(options.workers, nranks);
  impl_->fibers.resize(static_cast<std::size_t>(nranks));
  if (options.seed != 0) {
    impl_->randomized = true;
    impl_->rng = Rng(options.seed);
  }
  const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t stride = page + kStackBytes;
  impl_->stacks_bytes = stride * static_cast<std::size_t>(nranks);
  impl_->stacks = mmap(nullptr, impl_->stacks_bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  PAPAR_CHECK_MSG(impl_->stacks != MAP_FAILED, "cannot map fiber stacks");
  auto* base = static_cast<unsigned char*>(impl_->stacks);
  for (int r = 0; r < nranks; ++r) {
    Fiber& f = impl_->fibers[static_cast<std::size_t>(r)];
    unsigned char* guard = base + stride * static_cast<std::size_t>(r);
    PAPAR_CHECK_MSG(mprotect(guard, page, PROT_NONE) == 0,
                    "cannot protect fiber stack guard page");
    f.rank = r;
    f.impl = impl_.get();
    f.stack = guard + page;
  }
}

FiberScheduler::~FiberScheduler() = default;

void FiberScheduler::run(const std::function<void(int)>& body,
                         const std::function<void(int)>& on_resume,
                         const std::function<void()>& on_idle) {
  Impl& im = *impl_;
  im.body = &body;
  im.on_resume = &on_resume;
  im.on_idle = &on_idle;
  for (int r = 0; r < nranks_; ++r) {
    Fiber& f = im.fibers[static_cast<std::size_t>(r)];
    PAPAR_CHECK_MSG(getcontext(&f.ctx) == 0, "getcontext failed");
    f.ctx.uc_stack.ss_sp = f.stack;
    f.ctx.uc_stack.ss_size = kStackBytes;
    f.ctx.uc_link = nullptr;
    const auto p = reinterpret_cast<std::uintptr_t>(&f);
    makecontext(&f.ctx, reinterpret_cast<void (*)()>(&Impl::trampoline), 2,
                static_cast<unsigned int>(p >> 32),
                static_cast<unsigned int>(p & 0xffffffffu));
#ifdef PAPAR_TSAN_FIBERS
    f.tsan = __tsan_create_fiber(0);
#endif
    im.runq.push_back(r);
  }
  im.runq_len.store(im.runq.size(), std::memory_order_relaxed);
  im.live = nranks_;

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers_));
  for (int w = 0; w < workers_; ++w) {
    pool.emplace_back([this, w] { worker_main(w); });
  }
  for (auto& t : pool) t.join();
#ifdef PAPAR_TSAN_FIBERS
  for (Fiber& f : im.fibers) {
    if (f.tsan != nullptr) __tsan_destroy_fiber(f.tsan);
    f.tsan = nullptr;
  }
#endif
}

void FiberScheduler::worker_main(int worker_index) {
  (void)worker_index;
  WorkerContext w;
#ifdef PAPAR_TSAN_FIBERS
  w.tsan = __tsan_get_current_fiber();
#endif
  Impl& im = *impl_;
  std::unique_lock<std::mutex> lock(im.mutex);
  while (im.live > 0) {
    if (im.runq.empty()) {
      if (im.in_flight == 0 && !im.idle_running && im.committed_since_scan) {
        // Quiescent: every live fiber is parked, and only the deadlock
        // scan — emergency credits, virtual-deadline timeouts, the
        // deadlock abort — can wake one. Run it now. A quiescence reached
        // while another worker's on_idle runs is picked up by that worker
        // when it returns here.
        im.committed_since_scan = false;
        im.run_idle(lock);
        continue;
      }
      const bool expired = im.cv.wait_for(lock, kIdlePoll) == std::cv_status::timeout;
      if (expired && im.runq.empty() && im.live > 0 && !im.idle_running) {
        im.run_idle(lock);
      }
      continue;
    }
    int rank;
    if (im.randomized && im.runq.size() > 1) {
      // Seeded-random pop: explores rank interleavings deterministically
      // per seed (modulo which worker pops, which only reorders further).
      const std::size_t i =
          static_cast<std::size_t>(im.rng.next_u64() % im.runq.size());
      rank = im.runq[i];
      im.runq[i] = im.runq.back();
      im.runq.pop_back();
    } else {
      rank = im.runq.front();
      im.runq.pop_front();
    }
    im.runq_len.store(im.runq.size(), std::memory_order_relaxed);
    ++im.in_flight;
    Fiber& f = im.fibers[static_cast<std::size_t>(rank)];
    lock.unlock();

    (*im.on_resume)(rank);
    Impl::switch_into_fiber(w, f);

    lock.lock();
    --im.in_flight;
    if (f.done) {
      im.committed_since_scan = true;
      if (--im.live == 0) im.cv.notify_all();
    } else if (f.wake_pending) {
      // A wake landed between the fiber deciding to block and the park
      // committing here: the condition may already hold again, so skip the
      // park entirely and let the fiber re-check.
      f.wake_pending = false;
      im.runq.push_back(rank);
      im.runq_len.store(im.runq.size(), std::memory_order_relaxed);
      im.cv.notify_one();
    } else {
      f.parked = true;
      im.committed_since_scan = true;
    }
  }
}

void FiberScheduler::park(int rank) {
  // The park is committed by the hosting worker after this swap returns
  // (see worker_main): only then is the fiber context fully saved, so a
  // concurrent wake can never resume a half-saved context.
  Impl::switch_out_of_fiber(impl_->fibers[static_cast<std::size_t>(rank)],
                            /*final_exit=*/false);
}

void FiberScheduler::wake(int rank) {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mutex);
  Fiber& f = im.fibers[static_cast<std::size_t>(rank)];
  if (f.done) return;
  if (f.parked) {
    f.parked = false;
    im.runq.push_back(rank);
    im.runq_len.store(im.runq.size(), std::memory_order_relaxed);
    im.cv.notify_one();
  } else {
    // Running or already queued: remember the wake; the next park becomes
    // an immediate re-queue (sticky wakes cost a spurious predicate
    // re-check, never a lost wakeup).
    f.wake_pending = true;
  }
}

void FiberScheduler::wake_all() {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mutex);
  for (Fiber& f : im.fibers) {
    if (f.done) continue;
    if (f.parked) {
      f.parked = false;
      im.runq.push_back(f.rank);
    } else {
      f.wake_pending = true;
    }
  }
  im.runq_len.store(im.runq.size(), std::memory_order_relaxed);
  im.cv.notify_all();
}

std::size_t FiberScheduler::runq_depth() const {
  return impl_->runq_len.load(std::memory_order_relaxed);
}

}  // namespace detail

}  // namespace papar::mp
