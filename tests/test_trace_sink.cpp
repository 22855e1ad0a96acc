// Tests for sim/trace_sink.hpp: the binary trace codec, the asynchronous
// file sink, the engine integration that streams a full event log to
// disk regardless of the in-memory trace capacity, and a seeded mutation
// fuzz of the decoder.
#include "sim/trace_sink.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "mc/taskset.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "stats/distributions.hpp"

namespace mcs::sim {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void put_u32(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint32_t value) {
  std::memcpy(bytes.data() + at, &value, sizeof value);
}

/// Offset of the header's task-count field.
constexpr std::size_t kTaskCountAt = 12;
constexpr std::size_t kRecordBytes = 30;

std::vector<TraceEvent> sample_events() {
  std::vector<TraceEvent> events;
  TraceEvent release;
  release.time = 0.0;
  release.kind = TraceEventKind::kRelease;
  release.task = 0;
  events.push_back(release);
  TraceEvent dispatch;
  dispatch.time = 1.25;
  dispatch.kind = TraceEventKind::kDispatch;
  dispatch.task = 1;
  dispatch.hi_mode = true;
  dispatch.virtual_deadline = false;
  dispatch.release = 0.5;
  dispatch.value = 100.5;
  events.push_back(dispatch);
  TraceEvent mode;
  mode.time = 2.5;
  mode.kind = TraceEventKind::kModeSwitchLo;
  mode.task = kNoTraceTask;  // system event: no task attached
  events.push_back(mode);
  TraceEvent vd;
  vd.time = 3.75;
  vd.kind = TraceEventKind::kDispatch;
  vd.task = 0;
  vd.hi_mode = false;
  vd.virtual_deadline = true;
  vd.release = 3.0;
  vd.value = 53.0;
  events.push_back(vd);
  return events;
}

void expect_events_equal(const std::vector<TraceEvent>& got,
                         const std::vector<TraceEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i].time, want[i].time) << "event " << i;
    EXPECT_EQ(got[i].kind, want[i].kind) << "event " << i;
    EXPECT_EQ(got[i].task, want[i].task) << "event " << i;
    EXPECT_EQ(got[i].hi_mode, want[i].hi_mode) << "event " << i;
    EXPECT_EQ(got[i].virtual_deadline, want[i].virtual_deadline)
        << "event " << i;
    EXPECT_DOUBLE_EQ(got[i].release, want[i].release) << "event " << i;
    EXPECT_DOUBLE_EQ(got[i].value, want[i].value) << "event " << i;
  }
}

TEST(TraceSink, SinkRoundTripsEventsAndNames) {
  const std::string path = temp_path("trace_roundtrip.bin");
  const std::vector<std::string> names = {"hc0", "lc1"};
  const std::vector<TraceEvent> events = sample_events();
  {
    AsyncTraceSink sink(path, names);
    for (const TraceEvent& e : events) sink.record(e);
    EXPECT_EQ(sink.total_recorded(), events.size());
    sink.close();
  }
  const DecodedTrace decoded = read_binary_trace(path);
  EXPECT_EQ(decoded.task_names, names);
  expect_events_equal(decoded.events, events);
  std::remove(path.c_str());
}

TEST(TraceSink, RoundTripSpansManyBatches) {
  // More events than one producer batch (1024), so the queue handoff and
  // the final partial-batch flush are both exercised.
  const std::string path = temp_path("trace_batches.bin");
  constexpr std::size_t kCount = 5000;
  {
    AsyncTraceSink sink(path, {"t"});
    for (std::size_t i = 0; i < kCount; ++i) {
      TraceEvent e;
      e.time = static_cast<double>(i) * 0.5;
      e.kind = (i % 2 == 0) ? TraceEventKind::kRelease
                            : TraceEventKind::kComplete;
      e.task = 0;
      sink.record(e);
    }
    sink.close();
  }
  const DecodedTrace decoded = read_binary_trace(path);
  ASSERT_EQ(decoded.events.size(), kCount);
  for (std::size_t i = 0; i < kCount; i += 977) {
    EXPECT_DOUBLE_EQ(decoded.events[i].time, static_cast<double>(i) * 0.5);
    EXPECT_EQ(decoded.events[i].kind,
              (i % 2 == 0) ? TraceEventKind::kRelease
                           : TraceEventKind::kComplete);
  }
  std::remove(path.c_str());
}

TEST(TraceSink, DecodedTraceRendersLikeInMemoryTrace) {
  // The decoder and Trace::render() share render_trace_text, so a decoded
  // file must render byte-identically to the equivalent in-memory trace.
  const std::vector<std::string> names = {"hc0", "lc1"};
  const std::vector<TraceEvent> events = sample_events();
  Trace trace(events.size());
  trace.set_task_names(names);
  for (const TraceEvent& e : events) trace.record(e);
  const std::string path = temp_path("trace_render.bin");
  {
    AsyncTraceSink sink(path, names);
    for (const TraceEvent& e : events) sink.record(e);
    sink.close();
  }
  const DecodedTrace decoded = read_binary_trace(path);
  EXPECT_EQ(render_trace_text(decoded.task_names, decoded.events,
                              decoded.events.size()),
            trace.render());
  std::remove(path.c_str());
}

TEST(TraceSink, EngineStreamsFullLogIndependentOfCapacity) {
  // The binary sink must see *every* event even when the in-memory trace
  // is truncated (or off entirely), and the streamed prefix must match
  // the in-memory events exactly.
  mc::TaskSet tasks;
  mc::McTask h = mc::McTask::high("h", 20.0, 30.0, 100.0);
  tasks.add(h);
  tasks.add(mc::McTask::low("l", 10.0, 50.0));

  SimConfig full_config;
  full_config.horizon = 2000.0;
  full_config.trace_capacity = 1 << 20;  // large enough to store everything
  full_config.trace_binary_path = temp_path("trace_full.bin");
  const SimResult full = simulate(tasks, full_config);
  const DecodedTrace full_decoded =
      read_binary_trace(full_config.trace_binary_path);
  EXPECT_EQ(full_decoded.task_names, full.trace.task_names());
  EXPECT_EQ(full_decoded.events.size(), full.trace.total_recorded());
  expect_events_equal(full_decoded.events, full.trace.events());

  // Same run with the in-memory trace off: the file must be identical.
  SimConfig off_config = full_config;
  off_config.trace_capacity = 0;
  off_config.trace_binary_path = temp_path("trace_off.bin");
  const SimResult off = simulate(tasks, off_config);
  EXPECT_EQ(off.trace.total_recorded(), 0U);
  const DecodedTrace off_decoded =
      read_binary_trace(off_config.trace_binary_path);
  expect_events_equal(off_decoded.events, full_decoded.events);

  std::remove(full_config.trace_binary_path.c_str());
  std::remove(off_config.trace_binary_path.c_str());
}

TEST(TraceSink, MissingFileThrows) {
  EXPECT_THROW((void)read_binary_trace(temp_path("nonexistent.bin")),
               std::runtime_error);
}

TEST(TraceSink, BadMagicThrows) {
  const std::string path = temp_path("trace_bad_magic.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTATRACEFILE___________";
  }
  EXPECT_THROW((void)read_binary_trace(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceSink, TruncatedRecordThrows) {
  const std::string path = temp_path("trace_truncated.bin");
  {
    AsyncTraceSink sink(path, {"t"});
    TraceEvent e;
    e.task = 0;
    sink.record(e);
    sink.close();
  }
  // Chop the final record in half.
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 10U);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 10));
  }
  EXPECT_THROW((void)read_binary_trace(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceSink, TaskCountBeyondTheFileThrows) {
  // Regression: the decoder reserved the header's task count before it
  // read a name, so a 16-byte file claiming 0xFFFFFFFF tasks asked for
  // about 137 GB and died in std::bad_alloc. Every name carries at least
  // its 4-byte length field, so the count is checked against the bytes
  // left first.
  const std::string path = temp_path("trace_task_count.bin");
  std::vector<std::uint8_t> bytes = encode_trace_header({});
  ASSERT_EQ(bytes.size(), 16U);
  put_u32(bytes, kTaskCountAt, 0xFFFF'FFFFu);
  write_bytes(path, bytes);
  EXPECT_THROW((void)read_binary_trace(path), std::runtime_error);
  // The bound is exact: three empty names fill exactly three length
  // fields, and a fourth claimed name is one field short.
  bytes = encode_trace_header({"", "", ""});
  write_bytes(path, bytes);
  EXPECT_EQ(read_binary_trace(path).task_names.size(), 3U);
  put_u32(bytes, kTaskCountAt, 4);
  write_bytes(path, bytes);
  EXPECT_THROW((void)read_binary_trace(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceSink, UnknownKindByteThrows) {
  // Regression: any kind byte decoded, and one past kBudgetRestore
  // rendered as "?". 1 and 2 are the codes of two kinds nothing recorded
  // and 11 that of the retired budget-server slice kind, so an old file
  // that used one of them is rejected too.
  const std::string path = temp_path("trace_unknown_kind.bin");
  const std::vector<std::uint8_t> header = encode_trace_header({"a"});
  TraceEvent event;
  event.time = 1.0;
  event.task = 0;
  for (const int kind : {1, 2, 11, 200, 255}) {
    std::vector<std::uint8_t> bytes = header;
    encode_trace_event(event, bytes);
    bytes[header.size() + 8] = static_cast<std::uint8_t>(kind);
    write_bytes(path, bytes);
    EXPECT_THROW((void)read_binary_trace(path), std::runtime_error)
        << "kind byte " << kind;
  }
  // The last known kind still decodes.
  event.kind = TraceEventKind::kBudgetRestore;
  std::vector<std::uint8_t> bytes = header;
  encode_trace_event(event, bytes);
  write_bytes(path, bytes);
  const DecodedTrace decoded = read_binary_trace(path);
  ASSERT_EQ(decoded.events.size(), 1U);
  EXPECT_EQ(decoded.events[0].kind, TraceEventKind::kBudgetRestore);
  std::remove(path.c_str());
}

TEST(TraceFuzz, MutatedFilesDecodeOrThrow) {
  // Seeded mutation fuzz of read_binary_trace over the file of a short
  // simulation with dispatch tracing on: byte flips, truncations, and
  // edits of the header's length fields. Each mutant must either throw
  // std::runtime_error or decode to exactly one event per 30-byte record
  // after the header it read, every event of a known kind. Any other
  // exception (std::bad_alloc from a hostile count) fails the test.
  mc::TaskSet tasks;
  mc::McTask h = mc::McTask::high("h", 10.0, 40.0, 100.0);
  mc::ExecutionStats stats;
  stats.acet = 34.0;
  stats.sigma = 2.0;
  // Every job overruns C^LO, so the file holds mode switches, degraded
  // LC drops and budget restores as well as dispatches.
  stats.distribution = std::make_shared<stats::UniformDistribution>(30.0, 38.0);
  h.stats = stats;
  tasks.add(h);
  tasks.add(mc::McTask::low("lc", 20.0, 50.0));
  tasks.add(mc::McTask::low("lc-with-a-longer-name", 5.0, 70.0));
  SimConfig config;
  config.horizon = 600.0;
  config.lc_policy = LcPolicy::kDegradeHalf;
  config.trace_dispatch = true;
  config.trace_binary_path = temp_path("trace_fuzz_seed.bin");
  (void)simulate(tasks, config);
  const std::vector<std::uint8_t> original =
      read_bytes(config.trace_binary_path);
  std::remove(config.trace_binary_path.c_str());

  // The header's length fields: the task count, then each name's length.
  std::vector<std::size_t> length_fields = {kTaskCountAt};
  std::size_t header = kTaskCountAt + 4;
  for (const mc::McTask& task : tasks) {
    length_fields.push_back(header);
    header += 4 + task.name.size();
  }
  ASSERT_EQ((original.size() - header) % kRecordBytes, 0U);
  ASSERT_GE((original.size() - header) / kRecordBytes, 50U);

  const std::string path = temp_path("trace_fuzz.bin");
  common::Rng rng(2929);
  constexpr std::size_t kMutants = 4000;
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (std::size_t k = 0; k < kMutants; ++k) {
    std::vector<std::uint8_t> bytes = original;
    switch (rng.uniform_u64(0, 2)) {
      case 0:  // flip 1-4 bytes anywhere
        for (std::uint64_t n = rng.uniform_u64(1, 4); n > 0; --n)
          bytes[rng.uniform_u64(0, bytes.size() - 1)] ^=
              static_cast<std::uint8_t>(rng.uniform_u64(1, 255));
        break;
      case 1:  // truncate
        bytes.resize(rng.uniform_u64(0, bytes.size() - 1));
        break;
      default: {  // rewrite one length field
        const std::size_t at =
            length_fields[rng.uniform_u64(0, length_fields.size() - 1)];
        std::uint32_t value = 0;
        std::memcpy(&value, bytes.data() + at, sizeof value);
        const std::uint32_t choices[] = {
            0,
            value + 1,
            value - 1,
            0x7FFF'FFFFu,
            0xFFFF'FFFFu,
            static_cast<std::uint32_t>(rng.uniform_u64(0, bytes.size()))};
        put_u32(bytes, at, choices[rng.uniform_u64(0, 5)]);
        break;
      }
    }
    write_bytes(path, bytes);
    DecodedTrace trace;
    try {
      trace = read_binary_trace(path);
    } catch (const std::runtime_error&) {
      ++rejected;
      continue;
    }
    std::size_t read = kTaskCountAt + 4;
    for (const std::string& name : trace.task_names) read += 4 + name.size();
    ASSERT_LE(read, bytes.size()) << "mutant " << k;
    ASSERT_EQ(trace.events.size() * kRecordBytes, bytes.size() - read)
        << "mutant " << k;
    for (const TraceEvent& e : trace.events)
      ASSERT_STRNE(to_string(e.kind), "?") << "mutant " << k;
    ++decoded;
  }
  std::remove(path.c_str());
  // Both outcomes must be common, or the fuzz exercised one path only.
  EXPECT_GT(decoded, kMutants / 10);
  EXPECT_GT(rejected, kMutants / 10);
}

TEST(TraceSink, UnwritablePathThrowsOnConstruction) {
  EXPECT_THROW(AsyncTraceSink("/nonexistent-dir/trace.bin", {}),
               std::runtime_error);
}

}  // namespace
}  // namespace mcs::sim
