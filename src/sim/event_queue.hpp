// Time-ordered heaps for the discrete-event simulator.
//
// EventHeap is a hand-written binary min-heap over any entry type with an
// `operator<`. Besides push and pop it offers replace_top, which
// overwrites the earliest entry and sifts the new one down: one sift where
// pop-then-push takes a sift-down and a sift-up. runner_up is the
// second-earliest entry. Sift-down picks the earlier child with an index
// add instead of a branch.
//
// EventQueue is the heap keyed by (time, sequence number): ties are broken
// by insertion order, so simulations are bit-reproducible regardless of
// heap internals.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace mcs::sim {

/// A binary min-heap under `Entry::operator<`.
template <typename Entry>
class EventHeap {
 public:
  /// True when no entries remain.
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Number of entries.
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// The earliest entry. Requires !empty().
  [[nodiscard]] const Entry& top() const { return heap_.front(); }

  /// The second-earliest entry: the earlier child of the root. Requires
  /// size() >= 2.
  [[nodiscard]] const Entry& runner_up() const {
    return heap_.size() == 2 || !(heap_[2] < heap_[1]) ? heap_[1] : heap_[2];
  }

  /// Inserts `entry`.
  void push(Entry entry) {
    std::size_t hole = heap_.size();
    heap_.push_back(std::move(entry));
    Entry moving = std::move(heap_[hole]);
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!(moving < heap_[parent])) break;
      heap_[hole] = std::move(heap_[parent]);
      hole = parent;
    }
    heap_[hole] = std::move(moving);
  }

  /// Removes the earliest entry. Requires !empty().
  void pop() {
    Entry last = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) sift_down(std::move(last));
  }

  /// Replaces the earliest entry with `entry`: the same contents as pop()
  /// then push(entry), in one sift. Requires !empty().
  void replace_top(Entry entry) { sift_down(std::move(entry)); }

  /// Removes every entry, keeping the storage.
  void clear() { heap_.clear(); }

 private:
  /// Places `entry` at the root's slot and sifts it down.
  void sift_down(Entry entry) {
    const std::size_t n = heap_.size();
    std::size_t hole = 0;
    for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
      if (child + 1 < n) child += heap_[child + 1] < heap_[child];
      if (!(heap_[child] < entry)) break;
      heap_[hole] = std::move(heap_[child]);
      hole = child;
    }
    heap_[hole] = std::move(entry);
  }

  std::vector<Entry> heap_;
};

/// A min-heap of (time, payload) pairs with FIFO tie-breaking.
template <typename Payload>
class EventQueue {
 public:
  /// Inserts an event at `time`.
  void push(common::Millis time, Payload payload) {
    heap_.push(Entry{time, next_seq_++, std::move(payload)});
  }

  /// True when no events remain.
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Number of pending events.
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Time of the earliest event. Requires !empty().
  [[nodiscard]] common::Millis next_time() const { return heap_.top().time; }

  /// Payload of the earliest event without removing it. Requires !empty().
  [[nodiscard]] const Payload& peek() const { return heap_.top().payload; }

  /// Removes and returns the earliest event's payload. Requires !empty().
  Payload pop() {
    Payload payload = std::move(const_cast<Entry&>(heap_.top()).payload);
    heap_.pop();
    return payload;
  }

  /// Removes every event, keeping the storage.
  void clear() { heap_.clear(); }

 private:
  struct Entry {
    common::Millis time;
    std::uint64_t seq;
    Payload payload;

    bool operator<(const Entry& other) const {
      if (time != other.time) return time < other.time;
      return seq < other.seq;
    }
  };

  EventHeap<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace mcs::sim
