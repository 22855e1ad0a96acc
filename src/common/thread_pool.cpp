#include "common/thread_pool.hpp"

#include <atomic>
#include <exception>
#include <memory>
#include <stdexcept>

namespace mcs::common {

namespace {

/// Set while the current thread is a ThreadPool worker; `owner` lets
/// submit() detect self-submission (deadlock hazard for waiters).
thread_local const ThreadPool* tl_worker_pool = nullptr;

/// Set while the current (non-worker) thread runs its own pump of a
/// parallel region: it is then one of the region's `jobs` threads, and
/// regions nested in it must run inline as they do on workers.
thread_local bool tl_in_pump = false;

std::atomic<std::size_t> g_default_jobs{0};  // 0 = not yet resolved

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;

}  // namespace

std::size_t hardware_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

std::size_t default_jobs() {
  const std::size_t jobs = g_default_jobs.load(std::memory_order_relaxed);
  return jobs == 0 ? hardware_jobs() : jobs;
}

void set_default_jobs(std::size_t jobs) {
  // Results are identical at any job count, so clamping absurd requests
  // (which would otherwise try to spawn that many OS threads) is safe.
  constexpr std::size_t kMaxJobs = 1024;
  g_default_jobs.store(jobs > kMaxJobs ? kMaxJobs : jobs,
                       std::memory_order_relaxed);
}

std::uint64_t index_seed(std::uint64_t base_seed, std::uint64_t index) {
  // SplitMix64 applied to a mix of base and index. The odd multiplier
  // decorrelates consecutive indices before the finalizer runs.
  std::uint64_t state =
      base_seed + 0x9E3779B97F4A7C15ULL * (index + 1);
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t count = threads == 0 ? 1 : threads;
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  if (tl_worker_pool == this)
    throw std::logic_error(
        "ThreadPool::submit: nested submission from a worker of the same "
        "pool is rejected (run nested work inline instead)");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_)
      throw std::logic_error("ThreadPool::submit: pool is shutting down");
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return in_flight_ == 0; });
}

bool ThreadPool::on_worker_thread() { return tl_worker_pool != nullptr; }

void ThreadPool::worker_loop() {
  tl_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) idle_.notify_all();
    }
  }
}

namespace detail {

ThreadPool& shared_pool(std::size_t jobs) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool || g_pool->size() < jobs) {
    if (g_pool) g_pool->wait_idle();
    g_pool.reset();  // join old workers before spawning the new set
    g_pool = std::make_unique<ThreadPool>(jobs);
  }
  return *g_pool;
}

bool must_run_inline(std::size_t count) {
  return count <= 1 || default_jobs() <= 1 ||
         ThreadPool::on_worker_thread() || tl_in_pump;
}

std::size_t auto_grain(std::size_t count, std::size_t jobs) {
  // Aim for ~4 chunks per pump: few enough queue operations that dispatch
  // cost vanishes, enough chunks that an unlucky slow chunk cannot leave
  // the other pumps idle for the whole tail.
  const std::size_t pumps = jobs == 0 ? 1 : jobs;
  const std::size_t grain = count / (pumps * 4);
  return grain == 0 ? 1 : grain;
}

void run_chunked(std::size_t count, std::size_t grain, std::size_t jobs,
                 const std::function<void(std::size_t)>& body) {
  struct Batch {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> remaining;
    std::mutex mutex;
    std::condition_variable done;
    std::exception_ptr error;
  };
  if (grain == 0) grain = auto_grain(count, jobs);
  const std::size_t chunks = (count + grain - 1) / grain;
  const std::size_t pumps = jobs < chunks ? jobs : chunks;
  ThreadPool& pool = shared_pool(jobs);
  auto batch = std::make_shared<Batch>();
  batch->remaining.store(pumps, std::memory_order_relaxed);

  auto pump = [batch, count, grain, chunks, &body] {
    for (;;) {
      const std::size_t c =
          batch->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) break;
      // After the first failure, drain remaining chunks without running
      // them so the batch finishes promptly.
      {
        std::lock_guard<std::mutex> lock(batch->mutex);
        if (batch->error) break;
      }
      const std::size_t begin = c * grain;
      const std::size_t end = begin + grain < count ? begin + grain : count;
      try {
        for (std::size_t i = begin; i < end; ++i) body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(batch->mutex);
        if (!batch->error) batch->error = std::current_exception();
        break;
      }
    }
    std::lock_guard<std::mutex> lock(batch->mutex);
    if (batch->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
      batch->done.notify_all();
  };

  // The caller participates as one pump, so the region computes on
  // `jobs` threads: the caller and jobs - 1 workers.
  for (std::size_t p = 1; p < pumps; ++p) pool.submit(pump);
  tl_in_pump = true;
  pump();  // catches everything the body throws
  tl_in_pump = false;
  {
    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->done.wait(lock, [&] {
      return batch->remaining.load(std::memory_order_acquire) == 0;
    });
    if (batch->error) std::rethrow_exception(batch->error);
  }
}

}  // namespace detail

}  // namespace mcs::common
