// Tests for common/bounded_queue.hpp: FIFO order, capacity clamping, and
// the close/abort shutdown semantics, including the wake-ups of threads
// blocked in push() and pop() (run under the tsan preset as well as the
// default one).
#include "common/bounded_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

namespace mcs::common {
namespace {

TEST(BoundedQueue, FifoOrderWithinCapacity) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.push(1));
  EXPECT_TRUE(queue.push(2));
  EXPECT_TRUE(queue.push(3));
  EXPECT_EQ(queue.size(), 3U);
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  EXPECT_EQ(queue.pop(), std::optional<int>(2));
  EXPECT_EQ(queue.pop(), std::optional<int>(3));
}

TEST(BoundedQueue, ZeroCapacityIsClampedToOne) {
  BoundedQueue<int> queue(0);
  EXPECT_TRUE(queue.push(7));  // would deadlock if capacity stayed 0
  EXPECT_EQ(queue.pop(), std::optional<int>(7));
}

TEST(BoundedQueue, CloseDrainsBacklogThenReportsEndOfStream) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.push(10));
  EXPECT_TRUE(queue.push(11));
  queue.close();
  EXPECT_FALSE(queue.push(12));  // closed: rejected, not blocked
  EXPECT_EQ(queue.pop(), std::optional<int>(10));
  EXPECT_EQ(queue.pop(), std::optional<int>(11));
  EXPECT_EQ(queue.pop(), std::nullopt);  // drained
  EXPECT_FALSE(queue.aborted());
}

TEST(BoundedQueue, AbortDiscardsBacklogImmediately) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.push(1));
  EXPECT_TRUE(queue.push(2));
  queue.abort();
  EXPECT_TRUE(queue.aborted());
  EXPECT_EQ(queue.size(), 0U);
  EXPECT_EQ(queue.pop(), std::nullopt);  // backlog gone, no block
  EXPECT_FALSE(queue.push(3));
  queue.abort();  // idempotent
  EXPECT_TRUE(queue.aborted());
}

TEST(BoundedQueue, PushBlocksUntilPopMakesRoom) {
  BoundedQueue<int> queue(1);
  EXPECT_TRUE(queue.push(1));
  std::atomic<bool> second_pushed{false};
  std::thread pusher([&] {
    EXPECT_TRUE(queue.push(2));  // blocks until the pop below
    second_pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_pushed.load());
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  pusher.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(queue.pop(), std::optional<int>(2));
}

TEST(BoundedQueue, AbortWakesBlockedPusher) {
  BoundedQueue<int> queue(1);
  EXPECT_TRUE(queue.push(1));
  std::atomic<bool> woke{false};
  std::thread pusher([&] {
    EXPECT_FALSE(queue.push(2));  // full queue; abort must wake + reject
    woke = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.abort();
  pusher.join();
  EXPECT_TRUE(woke.load());
}

TEST(BoundedQueue, AbortWakesBlockedPopper) {
  BoundedQueue<int> queue(1);
  std::atomic<bool> woke{false};
  std::thread popper([&] {
    EXPECT_EQ(queue.pop(), std::nullopt);  // empty queue; abort wakes it
    woke = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.abort();
  popper.join();
  EXPECT_TRUE(woke.load());
}

}  // namespace
}  // namespace mcs::common
