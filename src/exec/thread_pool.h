// Fork-join worker pool for the parallel verifier.
//
// The pool serves rounds of independent tasks — one per fault set in
// verify_fault_sets — whose costs vary widely, so tasks are claimed one at a
// time from an atomic chunk cursor instead of being split statically; a
// round never stalls on its slowest shard.  Workers persist across rounds
// parked on a condition variable.  run(n, fn) is synchronous: the caller
// participates as worker 0 and returns only when every task finished.
//
// Pools are meant to be SHARED: spawning a pool per call pays thread
// start-up every time, so callers default to the process-wide
// shared_pool(), which grows on demand (ensure_workers) and is reused by
// every verification in the process.  run() may be called from any thread;
// concurrent rounds on one pool serialize against each other.  A task MAY
// call run() on its own pool: the reentrant call is detected and executed
// inline on that worker, so nested parallelism degrades to sequential
// instead of deadlocking.
//
// Memory model: everything a task writes is visible to the caller when
// run() returns, and everything the caller wrote before run() is visible to
// the tasks — the generation handshake is mutex-protected on both edges.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace ftspan::exec {

/// Resolves an ExecPolicy thread request: 0 means one worker per hardware
/// thread (at least 1); any other value is taken literally.
[[nodiscard]] std::uint32_t resolve_threads(std::uint32_t requested) noexcept;

/// Persistent fork-join pool of workers (the thread calling run() counts as
/// one, so `threads - 1` std::threads are spawned).
class ThreadPool {
 public:
  /// fn(worker, index): worker is in [0, participants), index in [0, n).
  using Task = std::function<void(unsigned worker, std::size_t index)>;

  explicit ThreadPool(std::uint32_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers, including the thread that calls run().
  [[nodiscard]] std::uint32_t threads() const noexcept;

  /// Grows the pool to at least `threads` workers (including the caller).
  /// Never shrinks.  Safe to call concurrently with an in-flight round:
  /// new workers join from the next round on.
  void ensure_workers(std::uint32_t threads);

  /// Runs fn for every index in [0, n) and returns when all are done; each
  /// index runs exactly once.  At most `max_workers` workers participate
  /// (the caller, as worker 0, plus the lowest-numbered pool workers), so an
  /// engine asked for fewer threads than the shared pool holds stays within
  /// its budget.  The first exception a task throws is rethrown here
  /// (remaining tasks still run).  Callable from any thread; concurrent
  /// calls serialize.  Reentrant calls from inside a task of this pool
  /// execute inline on that worker.
  void run(std::size_t n, const Task& fn,
           std::uint32_t max_workers = kAllWorkers);

  static constexpr std::uint32_t kAllWorkers =
      std::numeric_limits<std::uint32_t>::max();

 private:
  void worker_loop(unsigned worker, std::uint64_t seen);
  void work(unsigned worker, const Task& fn, std::size_t n);

  std::vector<std::thread> workers_;      // guarded by mu_ (growth)
  std::mutex run_mu_;                     // serializes whole rounds
  mutable std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const Task* job_ = nullptr;             // guarded by mu_
  std::size_t job_n_ = 0;                 // guarded by mu_
  std::uint32_t job_limit_ = 0;           // guarded by mu_: participant cap
  std::uint64_t generation_ = 0;          // guarded by mu_
  std::size_t busy_ = 0;                  // guarded by mu_
  bool stop_ = false;                     // guarded by mu_
  std::exception_ptr error_;              // guarded by mu_
  std::atomic<std::size_t> next_{0};      // the chunk cursor tasks claim from
};

/// The process-wide pool every engine shares by default (ExecPolicy::pool ==
/// nullptr).  Created lazily with no spawned workers; engines grow it to
/// their resolved thread count with ensure_workers, so the first parallel
/// verification pays thread start-up once for the whole process.
[[nodiscard]] ThreadPool& shared_pool();

}  // namespace ftspan::exec
