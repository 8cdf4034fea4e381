// Shared thread pool and data-parallel loop for the numeric core.
//
// The per-interval DT pipeline (1D-CNN compression, k-means grouping,
// DDQN planning) is embarrassingly parallel over rows: output rows of a
// matmul, points of a clustering pass, windows of a feature batch. The
// pool hands each worker a contiguous, disjoint index block, so results
// are bit-identical for any thread count — each row is always reduced by
// exactly one thread, in the same order.
//
// Thread count resolution order:
//   1. explicit set_thread_count(n) (benches use this for scaling runs),
//   2. the DTMSV_THREADS environment variable,
//   3. std::thread::hardware_concurrency().
// Every source is capped at kMaxThreads. A count of 1 (or a range below `grain`) runs inline with zero overhead.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>

namespace dtmsv::util {

/// Non-owning reference to a `void(std::size_t, std::size_t)` callable,
/// the chunk body of parallel_for. Binding a lambda costs nothing, where a
/// std::function holding a lambda with more than two captured references
/// heap-allocates at every call. Valid while the callable lives, which for
/// a parallel_for argument is the whole call.
class ChunkFn {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, ChunkFn> &&
             std::is_invocable_v<F&, std::size_t, std::size_t>)
  ChunkFn(F&& fn)  // NOLINT(google-explicit-constructor): binds call-site lambdas
      : fn_(const_cast<void*>(static_cast<const void*>(std::addressof(fn)))),
        call_([](void* f, std::size_t b, std::size_t e) {
          (*static_cast<std::remove_reference_t<F>*>(f))(b, e);
        }) {}

  void operator()(std::size_t begin, std::size_t end) const { call_(fn_, begin, end); }

 private:
  void* fn_;
  void (*call_)(void*, std::size_t, std::size_t);
};

/// Multiply-adds below which a product runs on the calling thread. On a
/// 4-vCPU AVX-512 VM a dispatch that wakes the pool costs ~13-24 µs and a
/// one-thread float product runs ~34 multiply-adds per ns, so a four-way
/// split pays only above ~0.9M multiply-adds; 2^20 also keeps every
/// 32-row training minibatch of the compressor (at most ~0.9M at T = 32)
/// on one thread.
inline constexpr std::size_t kParallelMinMadds = std::size_t{1} << 20;

/// Largest pool size. The pool starts its workers on demand and never stops
/// them, so a count taken from outside input (a typo such as 100000) would
/// otherwise start that many OS threads; 256 is well past the cores any
/// stage here scales to.
inline constexpr std::size_t kMaxThreads = 256;

/// Number of worker threads the pool will use (see resolution order above).
std::size_t thread_count();

/// Overrides the pool size; n == 0 restores the env/hardware default.
/// Takes effect on the next parallel_for call. Requires n <= kMaxThreads.
void set_thread_count(std::size_t n);

/// The pool size a DTMSV_THREADS value asks for: its leading integer when
/// that lies in [1, kMaxThreads], else 0 (use the hardware default). A null
/// `text` (variable unset) gives 0.
std::size_t thread_count_from_env(const char* text);

/// Runs fn(begin_i, end_i) over disjoint contiguous chunks covering
/// [begin, end). Chunk boundaries depend only on (begin, end, thread
/// count), never on scheduling, and a range shorter than min_grain (or a
/// 1-thread pool) executes fn(begin, end) inline on the caller's thread.
/// Reentrant: a parallel_for issued from inside a running job (e.g. a
/// matmul inside a fleet-level per-cell loop) executes inline on that
/// worker, so coarse outer parallelism wins and nesting cannot deadlock.
/// fn must not throw; exceptions escaping a worker terminate the process.
void parallel_for(std::size_t begin, std::size_t end, std::size_t min_grain,
                  ChunkFn fn);

}  // namespace dtmsv::util
