// Deterministic parallel-evaluation substrate.
//
// All heavy loops in the reproduction (GA fitness evaluation, Monte Carlo
// sweeps over generated task sets, per-core simulation) are embarrassingly
// parallel once every work item owns its own RNG stream. This header
// provides the three pieces needed to exploit that without giving up
// bit-reproducibility:
//
//  * ThreadPool — a fixed-size pool with a plain FIFO queue (no work
//    stealing, so scheduling order never feeds back into results).
//  * parallel_map / parallel_for — ordered fan-out helpers: item i's
//    result is stored at slot i and reductions happen in submission
//    order, so the output is bit-identical to the serial loop at any
//    thread count (including --jobs 1, which bypasses the pool entirely).
//  * parallel_map_chunked / parallel_for_chunked — the same contract with
//    a grain-size parameter: pumps claim `grain` consecutive indices per
//    atomic queue operation instead of one, so million-item sweeps stop
//    paying one dispatch per item. Chunking only changes which thread
//    executes an index, never the per-index work or the reduction order,
//    so results are bit-identical to the unchunked (grain 1) path.
//  * index_seed — derives a per-item 64-bit seed from a base seed via
//    SplitMix64, so every work item gets an independent stream that
//    depends only on (base, i): each Monte Carlo replication seeds its
//    task set from Rng(index_seed(base, i)), and apps::measure_kernel
//    seeds sample i from index_seed(seed, i).
//
// Determinism contract: a work item must draw randomness only from state
// it owns (an Rng passed by value, or one seeded from index_seed), must
// not touch shared mutable state, and reductions over results must run on
// the caller thread in index order. Under that contract `--jobs N` is an
// observable no-op for every N >= 1.
//
// Nesting: parallel regions do not compose into more parallelism. A
// parallel_map/parallel_for issued from inside a region — on a worker or
// in the calling thread's own pump — runs its items inline on that
// thread (serially, in index order): same results, no deadlock, and
// `--jobs N` computes on at most N threads. ThreadPool::submit called
// from a worker of the same pool is rejected with std::logic_error,
// since blocking on such a task could starve the queue.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

namespace mcs::common {

/// Number of hardware threads, never less than 1.
[[nodiscard]] std::size_t hardware_jobs();

/// Process-wide degree of parallelism used by parallel_map/parallel_for.
/// Defaults to hardware_jobs(); 1 selects the legacy serial path.
[[nodiscard]] std::size_t default_jobs();

/// Sets the process-wide degree of parallelism. 0 means "hardware
/// concurrency". Not thread-safe with respect to concurrently running
/// parallel regions; call it at startup (the --jobs CLI flag does).
void set_default_jobs(std::size_t jobs);

/// Stateless SplitMix64 mix of (base_seed, index): a cheap way to give
/// work item `index` its own independent RNG stream. Bit-stable across
/// platforms and thread counts.
[[nodiscard]] std::uint64_t index_seed(std::uint64_t base_seed,
                                       std::uint64_t index);

/// Fixed-size thread pool with a single FIFO task queue.
class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1 enforced).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count.
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues a task. Tasks must not throw (exceptions are handled at the
  /// parallel_map layer); a task escaping with an exception terminates.
  /// Throws std::logic_error when called from a worker of this pool.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  /// True when the calling thread is a worker of any ThreadPool. Used to
  /// run nested parallel regions inline.
  [[nodiscard]] static bool on_worker_thread();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

namespace detail {

/// Returns the process-wide shared pool, (re)created so it has at least
/// `jobs` workers. Callers must drain their batch before returning (as
/// run_chunked does).
[[nodiscard]] ThreadPool& shared_pool(std::size_t jobs);

/// Runs body(0..count-1) across the shared pool with `jobs` concurrent
/// pumps pulling chunks of `grain` consecutive indices from an atomic
/// counter (grain 0 resolves via auto_grain). Rethrows the first captured
/// exception (which pump fails first is scheduling-dependent; exactly one
/// of the captured exceptions propagates).
void run_chunked(std::size_t count, std::size_t grain, std::size_t jobs,
                 const std::function<void(std::size_t)>& body);

/// Grain used when the caller passes 0 ("auto"): large enough that each
/// pump sees only a handful of queue operations, small enough that a slow
/// chunk cannot serialize the tail (several chunks per pump).
[[nodiscard]] std::size_t auto_grain(std::size_t count, std::size_t jobs);

/// True when the calling context must execute parallel constructs inline:
/// jobs <= 1, a trivial item count, or already inside a parallel region
/// (on a worker, or in the caller's own pump).
[[nodiscard]] bool must_run_inline(std::size_t count);

}  // namespace detail

/// Applies fn(i) for i in [0, count) and returns the results in index
/// order, dispatching `grain` consecutive indices per queue operation
/// (grain 0 picks an automatic grain from the item and job counts; grain 1
/// is the legacy one-task-per-item dispatch). Bit-identical to the serial
/// loop — and to every other grain — for any thread count provided fn
/// honours the determinism contract above.
template <typename Fn>
[[nodiscard]] auto parallel_map_chunked(std::size_t count, std::size_t grain,
                                        Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  static_assert(!std::is_void_v<R>,
                "use parallel_for_chunked for void bodies");
  std::vector<R> out;
  if (count == 0) return out;
  if (detail::must_run_inline(count)) {
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) out.push_back(fn(i));
    return out;
  }
  std::vector<std::optional<R>> slots(count);
  detail::run_chunked(count, grain, default_jobs(),
                      [&](std::size_t i) { slots[i].emplace(fn(i)); });
  out.reserve(count);
  for (std::optional<R>& slot : slots) out.push_back(std::move(*slot));
  return out;
}

/// Applies fn(i) for i in [0, count) with chunked dispatch; no results.
/// Side-effect ordering across threads is unspecified — write only to
/// slot i.
template <typename Fn>
void parallel_for_chunked(std::size_t count, std::size_t grain, Fn&& fn) {
  if (count == 0) return;
  if (detail::must_run_inline(count)) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  detail::run_chunked(count, grain, default_jobs(),
                      [&](std::size_t i) { fn(i); });
}

/// Applies fn(i) for i in [0, count) and returns the results in index
/// order with one-task-per-item dispatch (grain 1) — right for coarse
/// items; prefer parallel_map_chunked for large fine-grained sweeps.
/// Deterministic for any thread count provided fn honours the determinism
/// contract above.
template <typename Fn>
[[nodiscard]] auto parallel_map(std::size_t count, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  return parallel_map_chunked(count, 1, std::forward<Fn>(fn));
}

/// Applies fn(i) for i in [0, count); no results. Item order of side
/// effects is unspecified across threads — write only to slot i.
template <typename Fn>
void parallel_for(std::size_t count, Fn&& fn) {
  parallel_for_chunked(count, 1, std::forward<Fn>(fn));
}

}  // namespace mcs::common
