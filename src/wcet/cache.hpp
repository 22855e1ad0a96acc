// Cache modelling for static WCET analysis.
//
// Static WCET tools (OTAWA among them) sharpen the naive "every load
// misses" bound with cache analysis: *persistence analysis* proves that
// once a memory line has been loaded inside a loop, it cannot be evicted
// before the loop finishes, so at most the first access misses. This
// module provides:
//   * an exact set-associative LRU cache simulator (the ground truth),
//   * a conservative set-pressure persistence analysis over the memory
//     regions a loop touches, and
//   * a helper that converts the classification into the cycles saved
//     versus the all-miss bound.
// Nothing outside its tests calls it: the analyzer and the kernels'
// worst-case programs (src/apps) price every load with the cost model's
// worst-case miss latency.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/units.hpp"

namespace mcs::wcet {

/// Geometry of a set-associative cache. Defaults model a small embedded
/// L1 data cache (4 KiB: 32-byte lines, 64 sets, 2 ways).
struct CacheConfig {
  std::uint64_t line_bytes = 32;  ///< power of two
  std::uint64_t sets = 64;        ///< power of two
  std::uint64_t ways = 2;

  /// Total capacity in bytes.
  [[nodiscard]] std::uint64_t capacity() const {
    return line_bytes * sets * ways;
  }

  /// Cache set index of an address.
  [[nodiscard]] std::uint64_t set_of(std::uint64_t address) const {
    return (address / line_bytes) % sets;
  }

  /// Line (block) number of an address.
  [[nodiscard]] std::uint64_t line_of(std::uint64_t address) const {
    return address / line_bytes;
  }
};

/// Exact LRU set-associative cache simulator.
class CacheSim {
 public:
  /// Requires line_bytes and sets to be powers of two, ways >= 1.
  explicit CacheSim(const CacheConfig& config);

  /// Performs one access; returns true on hit. Misses fill the line and
  /// evict the set's LRU way.
  bool access(std::uint64_t address);

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

  /// Empties the cache and the counters.
  void reset();

 private:
  CacheConfig config_;
  /// Per set: line numbers in LRU order (front = most recent).
  std::vector<std::vector<std::uint64_t>> sets_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// A contiguous byte range a loop body reads (e.g. one array).
struct MemoryRegion {
  std::uint64_t base = 0;
  std::uint64_t size = 0;  ///< bytes; must be >= 1
};

/// Result of the persistence analysis over a loop's working set.
struct PersistenceResult {
  std::uint64_t total_lines = 0;       ///< distinct lines the loop touches
  std::uint64_t persistent_lines = 0;  ///< lines proven un-evictable
  /// True when the entire working set is persistent (fits without any
  /// set conflict) — every access after the first per line is a hit.
  [[nodiscard]] bool fully_persistent() const {
    return persistent_lines == total_lines;
  }
};

/// Conservative set-pressure persistence analysis: a line is persistent
/// iff the number of distinct lines (over all regions) mapping to its set
/// does not exceed the associativity — then no eviction of that line can
/// occur while the loop runs, regardless of the access order.
[[nodiscard]] PersistenceResult analyze_persistence(
    const CacheConfig& config, std::span<const MemoryRegion> regions);

/// Cycles saved versus the all-miss bound for a loop executing `bound`
/// iterations, each performing `loads_per_iteration` loads spread evenly
/// over the working set: persistent lines miss only once instead of every
/// iteration. `miss_penalty` is the per-load miss-minus-hit cost.
/// Conservative: only the proven-persistent fraction is discounted.
[[nodiscard]] common::Cycles persistence_savings(
    const PersistenceResult& persistence, std::uint64_t bound,
    std::uint64_t loads_per_iteration, common::Cycles miss_penalty);

}  // namespace mcs::wcet
