#include "sim/trace_sink.hpp"

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

namespace mcs::sim {

namespace {

constexpr char kMagic[8] = {'M', 'C', 'S', 'T', 'R', 'A', 'C', 'E'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kRecordBytes = 8 + 1 + 1 + 4 + 8 + 8;

void append_raw(std::vector<std::uint8_t>& out, const void* data,
                std::size_t size) {
  if (size == 0) return;
  const std::size_t at = out.size();
  out.resize(at + size);
  std::memcpy(out.data() + at, data, size);
}

template <typename T>
void append_value(std::vector<std::uint8_t>& out, T value) {
  append_raw(out, &value, sizeof(value));
}

/// Reads sizeof(T) bytes at `offset` (bounds-checked by the caller).
template <typename T>
T read_value(const std::vector<std::uint8_t>& bytes, std::size_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(value));
  return value;
}

/// RAII FILE handle for the writer thread.
struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};

}  // namespace

std::vector<std::uint8_t> encode_trace_header(
    const std::vector<std::string>& task_names) {
  std::vector<std::uint8_t> out;
  append_raw(out, kMagic, sizeof(kMagic));
  append_value(out, kVersion);
  append_value(out, static_cast<std::uint32_t>(task_names.size()));
  for (const std::string& name : task_names) {
    append_value(out, static_cast<std::uint32_t>(name.size()));
    append_raw(out, name.data(), name.size());
  }
  return out;
}

void encode_trace_event(const TraceEvent& event,
                        std::vector<std::uint8_t>& out) {
  // One staged 30-byte record, appended in a single resize+memcpy: the
  // writer thread encodes thousands of events per batch, and six
  // separate vector appends per event were its hottest path.
  std::uint8_t record[kRecordBytes];
  std::memcpy(record, &event.time, 8);
  record[8] = static_cast<std::uint8_t>(event.kind);
  record[9] = static_cast<std::uint8_t>(
      (event.hi_mode ? 1U : 0U) | (event.virtual_deadline ? 2U : 0U));
  std::memcpy(record + 10, &event.task, 4);
  std::memcpy(record + 14, &event.release, 8);
  std::memcpy(record + 22, &event.value, 8);
  append_raw(out, record, sizeof(record));
}

DecodedTrace read_binary_trace(const std::string& path) {
  std::unique_ptr<std::FILE, FileCloser> file(
      std::fopen(path.c_str(), "rb"));
  if (file == nullptr)
    throw std::runtime_error("read_binary_trace: cannot open " + path);
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[1 << 16];
  for (;;) {
    const std::size_t got = std::fread(chunk, 1, sizeof(chunk), file.get());
    bytes.insert(bytes.end(), chunk, chunk + got);
    if (got < sizeof(chunk)) break;
  }
  if (std::ferror(file.get()) != 0)
    throw std::runtime_error("read_binary_trace: read error on " + path);

  std::size_t at = 0;
  auto need = [&](std::size_t n) {
    if (bytes.size() - at < n)
      throw std::runtime_error("read_binary_trace: truncated file " + path);
  };
  need(sizeof(kMagic) + 2 * sizeof(std::uint32_t));
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
    throw std::runtime_error("read_binary_trace: bad magic in " + path);
  at += sizeof(kMagic);
  const auto version = read_value<std::uint32_t>(bytes, at);
  at += sizeof(std::uint32_t);
  if (version != kVersion)
    throw std::runtime_error("read_binary_trace: unsupported version in " +
                             path);
  const auto task_count = read_value<std::uint32_t>(bytes, at);
  at += sizeof(std::uint32_t);
  // Every name carries at least its length field, so a count the
  // remaining bytes cannot hold is a truncated (or corrupt) header; check
  // before reserving, or a hostile count asks for gigabytes.
  need(std::size_t{task_count} * sizeof(std::uint32_t));

  DecodedTrace trace;
  trace.task_names.reserve(task_count);
  for (std::uint32_t i = 0; i < task_count; ++i) {
    need(sizeof(std::uint32_t));
    const auto len = read_value<std::uint32_t>(bytes, at);
    at += sizeof(std::uint32_t);
    need(len);
    trace.task_names.emplace_back(
        reinterpret_cast<const char*>(bytes.data() + at), len);
    at += len;
  }

  if ((bytes.size() - at) % kRecordBytes != 0)
    throw std::runtime_error("read_binary_trace: truncated record in " + path);
  trace.events.reserve((bytes.size() - at) / kRecordBytes);
  while (at < bytes.size()) {
    TraceEvent e;
    e.time = read_value<double>(bytes, at);
    const auto kind = read_value<std::uint8_t>(bytes, at + 8);
    const auto flags = read_value<std::uint8_t>(bytes, at + 9);
    const bool known =
        kind == static_cast<std::uint8_t>(TraceEventKind::kRelease) ||
        (kind >= static_cast<std::uint8_t>(TraceEventKind::kComplete) &&
         kind <= static_cast<std::uint8_t>(TraceEventKind::kBudgetRestore));
    if (!known)
      throw std::runtime_error("read_binary_trace: unknown event kind " +
                               std::to_string(kind) + " in " + path);
    e.kind = static_cast<TraceEventKind>(kind);
    e.hi_mode = (flags & 1U) != 0;
    e.virtual_deadline = (flags & 2U) != 0;
    e.task = read_value<std::uint32_t>(bytes, at + 10);
    e.release = read_value<double>(bytes, at + 14);
    e.value = read_value<double>(bytes, at + 22);
    trace.events.push_back(e);
    at += kRecordBytes;
  }
  return trace;
}

AsyncTraceSink::AsyncTraceSink(const std::string& path,
                               std::vector<std::string> task_names) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr)
    throw std::runtime_error("AsyncTraceSink: cannot open " + path);
  batch_.reserve(kBatchEvents);
  writer_ = std::thread([this, file,
                         names = std::move(task_names)]() mutable {
    // Batches arrive tens of KB at a time; a large stream buffer turns
    // them into few large write syscalls instead of many page-sized ones.
    // Declared before the FILE handle so it outlives the final fclose.
    std::vector<char> stream_buffer(std::size_t{1} << 20);
    std::unique_ptr<std::FILE, FileCloser> out(file);
    std::setvbuf(out.get(), stream_buffer.data(), _IOFBF,
                 stream_buffer.size());
    std::vector<std::uint8_t> buffer = encode_trace_header(names);
    for (;;) {
      if (!buffer.empty() && !write_failed_.load(std::memory_order_relaxed)) {
        if (std::fwrite(buffer.data(), 1, buffer.size(), out.get()) !=
            buffer.size())
          write_failed_.store(true, std::memory_order_relaxed);
      }
      buffer.clear();
      std::optional<std::vector<TraceEvent>> batch = queue_.pop();
      if (!batch.has_value()) break;
      buffer.reserve(batch->size() * kRecordBytes);
      for (const TraceEvent& e : *batch) encode_trace_event(e, buffer);
    }
    if (std::fflush(out.get()) != 0)
      write_failed_.store(true, std::memory_order_relaxed);
  });
}

AsyncTraceSink::~AsyncTraceSink() { finish(); }

void AsyncTraceSink::record(const TraceEvent& event) {
  ++total_;
  batch_.push_back(event);
  if (batch_.size() >= kBatchEvents) {
    queue_.push(std::move(batch_));
    batch_ = {};
    batch_.reserve(kBatchEvents);
  }
}

void AsyncTraceSink::finish() noexcept {
  if (closed_) return;
  closed_ = true;
  if (!batch_.empty()) queue_.push(std::move(batch_));
  queue_.close();
  if (writer_.joinable()) writer_.join();
}

void AsyncTraceSink::close() {
  finish();
  if (write_failed_.load())
    throw std::runtime_error("AsyncTraceSink: write failed");
}

}  // namespace mcs::sim
