// Tests for sim/event_queue.hpp: ordering, FIFO tie-breaking, replace_top
// against pop-then-push, and runner_up.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace mcs::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue<int> q;
  q.push(5.0, 50);
  q.push(1.0, 10);
  q.push(3.0, 30);
  EXPECT_EQ(q.size(), 3U);
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  EXPECT_EQ(q.pop(), 10);
  EXPECT_EQ(q.pop(), 30);
  EXPECT_EQ(q.pop(), 50);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesAreFifo) {
  EventQueue<std::string> q;
  q.push(2.0, "first");
  q.push(2.0, "second");
  q.push(2.0, "third");
  EXPECT_EQ(q.pop(), "first");
  EXPECT_EQ(q.pop(), "second");
  EXPECT_EQ(q.pop(), "third");
}

TEST(EventQueue, InterleavedPushPop) {
  EventQueue<int> q;
  q.push(4.0, 4);
  q.push(1.0, 1);
  EXPECT_EQ(q.pop(), 1);
  q.push(2.0, 2);
  q.push(0.5, 0);
  EXPECT_EQ(q.pop(), 0);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 4);
}

TEST(EventQueue, PeekDoesNotRemove) {
  EventQueue<int> q;
  q.push(3.0, 30);
  q.push(1.0, 10);
  EXPECT_EQ(q.peek(), 10);
  EXPECT_EQ(q.size(), 2U);  // peek leaves the queue untouched
  EXPECT_EQ(q.pop(), 10);
  EXPECT_EQ(q.peek(), 30);
  EXPECT_EQ(q.pop(), 30);
}

TEST(EventQueue, PeekRespectsFifoTies) {
  EventQueue<std::string> q;
  q.push(2.0, "first");
  q.push(2.0, "second");
  EXPECT_EQ(q.peek(), "first");
  (void)q.pop();
  EXPECT_EQ(q.peek(), "second");
}

TEST(EventQueue, MovesPayloads) {
  EventQueue<std::unique_ptr<int>> q;
  q.push(1.0, std::make_unique<int>(42));
  const auto p = q.pop();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(*p, 42);
}

/// Time-only key: equal times may leave in any order.
struct Timed {
  double time = 0.0;
  int id = 0;
  bool operator<(const Timed& other) const { return time < other.time; }
};

/// (time, id) key: a total order, so two heaps holding the same entries
/// pop them in the same sequence.
struct Keyed {
  double time = 0.0;
  int id = 0;
  bool operator<(const Keyed& other) const {
    return time != other.time ? time < other.time : id < other.id;
  }
};

TEST(EventHeap, ReplaceTopMatchesPopThenPush) {
  // Seeded random push / pop / replace sequences on two heaps: one takes
  // replace_top, the other pop() then push() of the same entry. Times come
  // from a small grid so ties on time are frequent; every top must agree.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    common::Rng rng(seed);
    EventHeap<Keyed> replaced;
    EventHeap<Keyed> popped_pushed;
    int next_id = 0;
    for (int step = 0; step < 2000; ++step) {
      const Keyed entry{static_cast<double>(rng.uniform_u64(0, 15)),
                        next_id++};
      const std::uint64_t op = replaced.empty() ? 0 : rng.uniform_u64(0, 2);
      if (op == 0) {
        replaced.push(entry);
        popped_pushed.push(entry);
      } else if (op == 1) {
        ASSERT_EQ(replaced.top().id, popped_pushed.top().id) << "seed " << seed;
        replaced.pop();
        popped_pushed.pop();
      } else {
        ASSERT_EQ(replaced.top().id, popped_pushed.top().id) << "seed " << seed;
        replaced.replace_top(entry);
        popped_pushed.pop();
        popped_pushed.push(entry);
      }
      ASSERT_EQ(replaced.size(), popped_pushed.size());
    }
    while (!replaced.empty()) {
      ASSERT_EQ(replaced.top().id, popped_pushed.top().id) << "seed " << seed;
      replaced.pop();
      popped_pushed.pop();
    }
    EXPECT_TRUE(popped_pushed.empty());
  }
}

TEST(EventHeap, PopsAreSortedAndRunnerUpIsSecondEarliest) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    common::Rng rng(seed);
    EventHeap<Timed> heap;
    std::vector<double> times;  // the heap's contents, as a multiset
    for (int step = 0; step < 1000; ++step) {
      const double time = rng.uniform(0.0, 100.0);
      if (heap.empty() || rng.uniform_u64(0, 2) == 0) {
        heap.push({time, step});
        times.push_back(time);
      } else {
        const auto top = std::min_element(times.begin(), times.end());
        ASSERT_EQ(heap.top().time, *top);
        *top = time;
        heap.replace_top({time, step});
      }
      if (heap.size() >= 2) {
        std::vector<double> sorted = times;
        std::sort(sorted.begin(), sorted.end());
        ASSERT_EQ(heap.runner_up().time, sorted[1]) << "seed " << seed;
      }
    }
    std::sort(times.begin(), times.end());
    for (const double time : times) {
      ASSERT_EQ(heap.top().time, time);
      heap.pop();
    }
    EXPECT_TRUE(heap.empty());
  }
}

TEST(EventHeap, ClearKeepsTheHeapUsable) {
  EventHeap<Timed> heap;
  heap.push({3.0, 3});
  heap.push({1.0, 1});
  heap.clear();
  EXPECT_TRUE(heap.empty());
  heap.push({2.0, 2});
  EXPECT_EQ(heap.top().id, 2);
  EXPECT_EQ(heap.size(), 1U);
}

}  // namespace
}  // namespace mcs::sim
