// Asynchronous binary trace sink.
//
// Large-scale simulators (e.g. the gacspp COutput design the ROADMAP
// cites) decouple event production from I/O with a buffered consumer
// thread: the simulation thread appends events to a small batch and hands
// full batches to a bounded queue; a single writer thread drains the
// queue and serializes a compact fixed-width binary record per event. The
// simulation never blocks on disk unless it outruns the writer by the
// whole queue depth, and the file is written strictly in event order, so
// the output is byte-deterministic for a deterministic simulation.
//
// The binary format (host-endian, decoded offline by tools/mcs_trace):
//   header:  8-byte magic "MCSTRACE", u32 version (1), u32 task count,
//            then per task: u32 name length + raw name bytes
//   records: f64 time | u8 kind | u8 flags (bit0 hi_mode, bit1
//            virtual_deadline) | u32 task | f64 release | f64 value
// The record count is implied by the file length. The kind byte is the
// TraceEventKind value: 0 (kRelease) or 3 (kComplete) through 10
// (kBudgetRestore); the decoder rejects any other byte, and a task count
// larger than the bytes left can hold (4 per name at least) reads as a
// truncated header.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.hpp"
#include "sim/trace.hpp"

namespace mcs::sim {

/// A fully decoded binary trace file.
struct DecodedTrace {
  std::vector<std::string> task_names;
  std::vector<TraceEvent> events;
};

/// Serializes the file header for `task_names`.
[[nodiscard]] std::vector<std::uint8_t> encode_trace_header(
    const std::vector<std::string>& task_names);

/// Appends one fixed-width event record to `out`.
void encode_trace_event(const TraceEvent& event, std::vector<std::uint8_t>& out);

/// Reads a whole binary trace file back. Throws std::runtime_error on a
/// missing file, bad magic/version, a truncated header/record, or an
/// unknown event kind.
[[nodiscard]] DecodedTrace read_binary_trace(const std::string& path);

/// Consumer-thread sink: record() on the simulation thread, bytes on disk
/// from a dedicated writer thread. Not thread-safe on the producer side
/// (one simulation owns one sink).
class AsyncTraceSink {
 public:
  /// Opens `path` for writing and starts the writer thread. Throws
  /// std::runtime_error when the file cannot be opened.
  AsyncTraceSink(const std::string& path, std::vector<std::string> task_names);
  ~AsyncTraceSink();

  AsyncTraceSink(const AsyncTraceSink&) = delete;
  AsyncTraceSink& operator=(const AsyncTraceSink&) = delete;

  /// Enqueues one event (batched; may block when the writer is behind).
  void record(const TraceEvent& event);

  /// Flushes the tail batch, stops the writer thread and closes the file.
  /// Idempotent. Throws std::runtime_error when any write failed.
  void close();

  /// Events handed to the sink so far.
  [[nodiscard]] std::uint64_t total_recorded() const { return total_; }

 private:
  void finish() noexcept;  ///< close() without the failure throw

  static constexpr std::size_t kBatchEvents = 1024;
  std::vector<TraceEvent> batch_;
  common::BoundedQueue<std::vector<TraceEvent>> queue_{8};
  std::thread writer_;
  std::uint64_t total_ = 0;
  bool closed_ = false;
  std::atomic<bool> write_failed_{false};
};

}  // namespace mcs::sim
