#include "util/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dtmsv::util {

namespace {

std::size_t default_thread_count() {
  if (const char* env = std::getenv("DTMSV_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) {
      return static_cast<std::size_t>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
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

/// One parallel_for invocation. Workers snapshot a shared_ptr to the
/// current job under the pool mutex, so a worker that wakes late holds
/// its own (kept-alive) Job whose chunk counter is already exhausted —
/// it can never claim work from, or read torn state of, a newer job.
/// `fn` stays valid while any chunk is unclaimed: run() only returns
/// once done == chunks, and every successful claim happens before that.
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
/// so a pool of N threads serves N+1-way parallelism.
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
    auto job = std::make_shared<Job>();
    job->begin = begin;
    job->end = end;
    job->chunks = chunks;
    job->fn = &fn;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ensure_workers_locked(chunks - 1);
      job_ = job;
      ++generation_;
    }
    work_cv_.notify_all();
    work_chunks(*job);
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [&] { return job->done.load() == job->chunks; });
    job_.reset();
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
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_cv_.wait(lock, [&] { return generation_ != seen; });
        seen = generation_;
        job = job_;
      }
      if (job) {
        work_chunks(*job);
      }
    }
  }

  void work_chunks(Job& job) {
    const std::size_t span = job.end - job.begin;
    std::size_t finished = 0;
    while (true) {
      const std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= job.chunks) {
        break;
      }
      const std::size_t lo = job.begin + span * c / job.chunks;
      const std::size_t hi = job.begin + span * (c + 1) / job.chunks;
      if (lo < hi) {
        ++g_nesting;
        (*job.fn)(lo, hi);
        --g_nesting;
      }
      ++finished;
    }
    if (finished > 0 &&
        job.done.fetch_add(finished, std::memory_order_acq_rel) + finished ==
            job.chunks) {
      std::lock_guard<std::mutex> lock(mutex_);
      idle_cv_.notify_all();
    }
  }

  std::mutex job_mutex_;  // serialises parallel_for callers
  std::mutex mutex_;      // guards job_, generation_, workers_
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::vector<std::thread> workers_;
  std::uint64_t generation_ = 0;
  std::shared_ptr<Job> job_;
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
  g_override.store(n, std::memory_order_relaxed);
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
