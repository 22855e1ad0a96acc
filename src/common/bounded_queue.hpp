// Bounded blocking FIFO with close/abort shutdown.
//
// The async binary trace writer (sim/trace_sink) hands event batches from
// the simulating thread to its writer thread through this queue: push()
// applies back-pressure when the writer falls behind, close() ends the
// stream gracefully, and abort() is the failure path that never leaves a
// thread blocked.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace mcs::common {

/// Bounded multi-producer/multi-consumer FIFO with close/abort shutdown
/// semantics. push() blocks while the queue is full; pop() blocks while
/// it is empty and still open. close() ends the stream gracefully
/// (consumers drain the backlog, then see nullopt); abort() discards the
/// backlog and wakes every blocked thread immediately (the failure path).
template <typename T>
class BoundedQueue {
 public:
  /// `capacity` >= 1 enforced.
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks until there is room, then enqueues. Returns false (dropping
  /// `item`) when the queue was closed or aborted instead.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [this] {
      return items_.size() < capacity_ || closed_ || aborted_;
    });
    if (closed_ || aborted_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available, the queue is closed and drained,
  /// or the queue is aborted. Returns nullopt in the latter two cases.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] {
      return !items_.empty() || closed_ || aborted_;
    });
    if (aborted_ || items_.empty()) return std::nullopt;
    std::optional<T> item(std::move(items_.front()));
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Graceful end of stream: no further push() succeeds; pop() drains the
  /// backlog before reporting nullopt.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  /// Failure shutdown: discards the backlog and wakes every blocked
  /// pusher and popper. Idempotent.
  void abort() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      aborted_ = true;
      items_.clear();
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  [[nodiscard]] bool aborted() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return aborted_;
  }

  /// Items currently buffered (for tests; racy by nature otherwise).
  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  const std::size_t capacity_;
  bool closed_ = false;
  bool aborted_ = false;
};

}  // namespace mcs::common
