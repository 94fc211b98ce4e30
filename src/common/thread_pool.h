#ifndef TIC_COMMON_THREAD_POOL_H_
#define TIC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tic {

/// \brief A fixed-size pool of worker threads for data-parallel sections of
/// the checker hot path (the monitor's residual progression).
///
/// Deliberately minimal — no work stealing, no futures: the checker's
/// parallelism is flat fork/join over an index range, so a shared atomic
/// cursor plus the caller thread participating covers it. The pool is shared
/// between monitors and trigger managers through `checker::CheckOptions`.
///
/// Threads are joined in the destructor (`std::jthread`-style ownership);
/// exceptions thrown by tasks are captured and rethrown to the ParallelFor
/// caller, never lost or allowed to terminate a worker.
class ThreadPool {
 public:
  /// Spawns `num_workers` worker threads. Zero workers is valid: every
  /// ParallelFor then runs inline on the caller.
  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  /// Runs `fn(i)` for every i in [0, n), distributing indices across the
  /// workers and the calling thread, and blocks until all calls finished.
  /// The first exception thrown by any invocation is rethrown here (the
  /// remaining indices are still consumed, so the pool stays usable).
  /// Safe to call from one thread at a time per pool; nested calls from
  /// within tasks are not supported.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

}  // namespace tic

#endif  // TIC_COMMON_THREAD_POOL_H_
