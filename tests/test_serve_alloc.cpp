// Pins that the job-rate requests of `mcs-cli serve` allocate nothing: a
// valid `record id=` or `record name=` line and a `ping` line are parsed
// in place, a name is looked up as a view, the record lands in a
// fixed-size drift monitor and the replies fit the string's inline
// buffer (docs/serve_protocol.md promises this for `record`). The
// counting global operator new replaces the library's for this binary
// only, which is why this test lives in its own executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/serve.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mcs::core {
namespace {

constexpr std::size_t kLines = 10000;

/// Heap allocations made while `session` handles every line of `lines`;
/// each reply must equal `reply`.
std::size_t allocations_of(ServeSession& session,
                           const std::vector<std::string>& lines,
                           const std::string& reply) {
  std::size_t wrong = 0;
  const std::size_t before = g_allocations.load();
  for (const std::string& line : lines)
    if (session.handle_line(line) != reply) ++wrong;
  const std::size_t after = g_allocations.load();
  EXPECT_EQ(wrong, 0U);
  return after - before;
}

TEST(ServeAlloc, RecordAndPingLinesAllocateNothing) {
  ServeSession session;
  ASSERT_EQ(session.handle_line("admit name=h1 crit=HC wcet_lo=2 wcet_hi=4 "
                                "period=20 acet=1.5 sigma=0.3"),
            "ok admit h1 id=1 x=1 resident=1");
  ASSERT_EQ(session.handle_line("admit name=h2 crit=HC wcet_lo=3 wcet_hi=5 "
                                "period=50 acet=2 sigma=0.4 deadline=45"),
            "ok admit h2 id=2 x=1 resident=2");
  // The serve_telemetry spelling: ids in turn, times in %.6g.
  std::vector<std::string> records;
  std::vector<std::string> pings(kLines, "ping");
  char buf[64];
  for (std::size_t i = 0; i < kLines; ++i) {
    std::snprintf(buf, sizeof buf, "record id=%zu time=%.6g", 1 + i % 2,
                  1.0 + 0.001 * static_cast<double>(i % 997));
    records.emplace_back(buf);
  }
  // Warm-up: the first lines may size whatever the session reuses.
  (void)allocations_of(session, {records.begin(), records.begin() + 100}, "");
  (void)allocations_of(session, {pings.begin(), pings.begin() + 100},
                       "ok ping");
  EXPECT_EQ(allocations_of(session, records, ""), 0U);
  EXPECT_EQ(allocations_of(session, pings, "ok ping"), 0U);
  // The counter sees the session's allocations at all.
  EXPECT_GT(allocations_of(session, {"stats"}, session.handle_line("stats")),
            0U);
}

TEST(ServeAlloc, RecordByLongNameAllocatesNothing) {
  // 24 bytes: longer than the inline buffer of a std::string, so a lookup
  // that copied the name into a key would allocate on every line.
  const std::string name = "flight_control_loop_0001";
  ASSERT_EQ(name.size(), 24U);
  ServeSession session;
  ASSERT_EQ(session.handle_line("admit name=" + name +
                                " crit=HC wcet_lo=2 wcet_hi=4 period=20 "
                                "acet=1.5 sigma=0.3"),
            "ok admit " + name + " id=1 x=1 resident=1");
  std::vector<std::string> records;
  char buf[96];
  for (std::size_t i = 0; i < kLines; ++i) {
    std::snprintf(buf, sizeof buf, "record name=%s time=%.6g", name.c_str(),
                  1.0 + 0.001 * static_cast<double>(i % 997));
    records.emplace_back(buf);
  }
  (void)allocations_of(session, {records.begin(), records.begin() + 100}, "");
  EXPECT_EQ(allocations_of(session, records, ""), 0U);
}

}  // namespace
}  // namespace mcs::core
