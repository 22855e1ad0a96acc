// Pins that a GA generation allocates nothing: run_ga breeds into a spare
// population whose genome storage it reuses, so the heap allocations of a
// run do not grow with the number of generations. The counting global
// operator new replaces the library's for this binary only, which is why
// this test lives in its own executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "common/thread_pool.hpp"
#include "ga/engine.hpp"

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

namespace mcs::ga {
namespace {

/// Maximize -sum (x_i - 1)^2 over [0, 4]^3; evaluate allocates nothing.
class Bowl final : public Problem {
 public:
  [[nodiscard]] std::size_t dimension() const override { return 3; }
  [[nodiscard]] double lower_bound(std::size_t) const override { return 0.0; }
  [[nodiscard]] double upper_bound(std::size_t) const override { return 4.0; }
  [[nodiscard]] double evaluate(std::span<const double> g) const override {
    double s = 0.0;
    for (const double x : g) s -= (x - 1.0) * (x - 1.0);
    return s;
  }
};

std::size_t allocations_of_run(std::size_t generations) {
  const Bowl problem;
  GaConfig config;
  config.population_size = 22;  // 21 places after elitism: a child is dropped
  config.generations = generations;
  config.seed = 17;
  const std::size_t before = g_allocations.load();
  const GaResult result = run_ga(problem, config);
  const std::size_t after = g_allocations.load();
  EXPECT_EQ(result.history.size(), generations);
  return after - before;
}

TEST(GaAlloc, GenerationsAllocateNothing) {
  common::set_default_jobs(1);
  const std::size_t short_run = allocations_of_run(10);
  const std::size_t long_run = allocations_of_run(40);
  EXPECT_GT(short_run, 0U);
  EXPECT_EQ(short_run, long_run)
      << "heap allocations grew with the number of generations";
}

}  // namespace
}  // namespace mcs::ga
