#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace dtmsv::util {

namespace {

std::size_t default_thread_count() {
  if (const std::size_t env = thread_count_from_env(std::getenv("DTMSV_THREADS"))) {
    return env;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, kMaxThreads);
}

std::atomic<std::size_t> g_override{0};

/// Depth of parallel_for frames on this thread. Non-zero means we are
/// already inside a pool job (worker or participating caller); a nested
/// parallel_for then runs inline — the pool's job mutex is held for the
/// duration of the outer job, so handing nested work to the pool would
/// deadlock. Inline execution keeps results bit-identical: every kernel
/// built on parallel_for reduces each output row on exactly one thread
/// regardless of how the row range is partitioned.
thread_local std::size_t g_nesting = 0;

/// One parallel_for invocation, in a record the pool owns and reuses. A
/// worker registers under the pool mutex while a job is set and only then
/// reads it, and run() neither clears nor refills the record until every
/// chunk is done and no worker is registered. So a worker that wakes late
/// finds no job (or the next one, whole) and can never claim work from,
/// or read torn state of, a record being refilled. `fn` stays valid while
/// any chunk is unclaimed: run() only returns once done == chunks, and
/// every successful claim happens before that.
struct Job {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t chunks = 0;
  const ChunkFn* fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
};

/// Lazily started pool of persistent workers. Work arrives as one
/// chunked loop at a time (parallel_for is not reentrant); workers grab
/// chunk indices from the job's counter and the caller participates too,
/// so a pool of N threads serves N+1-way parallelism. A dispatch
/// allocates nothing once the workers exist.
class Pool {
 public:
  static Pool& instance() {
    // Intentionally leaked: workers block on the condition variable for
    // the life of the process, so running a destructor at static
    // teardown would have to terminate() the blocked threads.
    static Pool* pool = new Pool();
    return *pool;
  }

  void run(std::size_t begin, std::size_t end, std::size_t chunks, const ChunkFn& fn) {
    std::unique_lock<std::mutex> job_lock(job_mutex_);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ensure_workers_locked(chunks - 1);
      job_.begin = begin;
      job_.end = end;
      job_.chunks = chunks;
      job_.fn = &fn;
      job_.next.store(0, std::memory_order_relaxed);
      job_.done.store(0, std::memory_order_relaxed);
      active_ = true;
      ++generation_;
    }
    work_cv_.notify_all();
    work_chunks();
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [&] {
      return job_.done.load(std::memory_order_acquire) == job_.chunks && registered_ == 0;
    });
    active_ = false;
  }

 private:
  Pool() = default;

  void ensure_workers_locked(std::size_t needed) {
    while (workers_.size() < needed) {
      workers_.emplace_back([this] { worker_loop(); });
      workers_.back().detach();
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_cv_.wait(lock, [&] { return generation_ != seen; });
        seen = generation_;
        if (!active_) {
          continue;
        }
        ++registered_;
      }
      work_chunks();
      std::lock_guard<std::mutex> lock(mutex_);
      if (--registered_ == 0) {
        idle_cv_.notify_all();
      }
    }
  }

  void work_chunks() {
    const std::size_t span = job_.end - job_.begin;
    std::size_t finished = 0;
    while (true) {
      const std::size_t c = job_.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= job_.chunks) {
        break;
      }
      const std::size_t lo = job_.begin + span * c / job_.chunks;
      const std::size_t hi = job_.begin + span * (c + 1) / job_.chunks;
      if (lo < hi) {
        ++g_nesting;
        (*job_.fn)(lo, hi);
        --g_nesting;
      }
      ++finished;
    }
    if (finished > 0) {
      job_.done.fetch_add(finished, std::memory_order_acq_rel);
    }
  }

  std::mutex job_mutex_;  // serialises parallel_for callers
  std::mutex mutex_;      // guards generation_, active_, registered_, workers_
                          // and job_'s plain fields
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::vector<std::thread> workers_;
  std::uint64_t generation_ = 0;
  bool active_ = false;          // job_ holds a dispatch not yet returned
  std::size_t registered_ = 0;   // workers inside work_chunks()
  Job job_;
};

}  // namespace

std::size_t thread_count() {
  const std::size_t o = g_override.load(std::memory_order_relaxed);
  if (o >= 1) {
    return o;
  }
  static const std::size_t resolved = default_thread_count();
  return resolved;
}

void set_thread_count(std::size_t n) {
  DTMSV_EXPECTS_MSG(n <= kMaxThreads, "set_thread_count: at most kMaxThreads (" +
                                          std::to_string(kMaxThreads) + ") threads");
  g_override.store(n, std::memory_order_relaxed);
}

std::size_t thread_count_from_env(const char* text) {
  if (text == nullptr) {
    return 0;
  }
  const long parsed = std::strtol(text, nullptr, 10);
  return parsed >= 1 && static_cast<unsigned long>(parsed) <= kMaxThreads
             ? static_cast<std::size_t>(parsed)
             : 0;
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t min_grain,
                  ChunkFn fn) {
  if (begin >= end) {
    return;
  }
  const std::size_t threads = thread_count();
  const std::size_t span = end - begin;
  if (threads <= 1 || span < min_grain || g_nesting > 0) {
    fn(begin, end);
    return;
  }
  // One chunk per thread: chunk boundaries are a pure function of the
  // range and thread count, keeping every run's work partition stable.
  const std::size_t chunks = std::min(threads, span);
  Pool::instance().run(begin, end, chunks, fn);
}

}  // namespace dtmsv::util
