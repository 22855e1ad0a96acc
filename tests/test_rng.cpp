// Tests for common/rng.hpp: determinism, range contracts and moment
// sanity of the xoshiro256** generator.
#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

namespace mcs::common {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 4);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanAndVariance) {
  Rng rng(11);
  double sum = 0.0;
  double sum2 = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform01();
    sum += u;
    sum2 += u * u;
  }
  const double mean = sum / kN;
  const double var = sum2 / kN - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.01);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.01);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5.0, 9.0);
    EXPECT_GE(x, -5.0);
    EXPECT_LT(x, 9.0);
  }
}

TEST(Rng, UniformU64InclusiveRange) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.uniform_u64(10, 15);
    EXPECT_GE(v, 10U);
    EXPECT_LE(v, 15U);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6U);  // every value in [10,15] appears
}

TEST(Rng, UniformU64FollowsTheRejectionRule) {
  // Reference rule: redraw while the raw draw exceeds
  // max - (max % bound) - 1, then reduce it mod bound. Bounds just above
  // 2^63 reject about half the raw draws, so the redraw path runs often.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t bounds[] = {1, 5, 60, (1ULL << 63) + 1, 3ULL << 62,
                                  kMax};
  for (const std::uint64_t bound : bounds) {
    Rng rng(31);
    Rng raw(31);
    const std::uint64_t limit = kMax - (kMax % bound) - 1;
    for (int i = 0; i < 2000; ++i) {
      std::uint64_t draw = raw();
      while (draw > limit) draw = raw();
      ASSERT_EQ(rng.uniform_u64(0, bound - 1), draw % bound)
          << "bound " << bound << " draw " << i;
    }
  }
}

TEST(Rng, UniformU64SingletonRange) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_u64(42, 42), 42U);
}

TEST(Rng, UniformI64NegativeRange) {
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_i64(-3, 2);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 2);
  }
}

TEST(Rng, UniformI64ExtremeBounds) {
  // Regression: hi - lo overflowed int64_t (signed UB) for wide ranges.
  // The full domain, half-domain straddles and the singleton extremes
  // must all stay in range with no UB (caught by -fsanitize=undefined).
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Rng rng(29);
  bool saw_negative = false;
  bool saw_positive = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_i64(kMin, kMax);
    saw_negative = saw_negative || v < 0;
    saw_positive = saw_positive || v > 0;
  }
  // A uniform draw over the full domain hits both signs w.h.p.
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_positive);
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_i64(kMin + 1, kMax - 1);
    EXPECT_GE(v, kMin + 1);
    EXPECT_LE(v, kMax - 1);
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.uniform_i64(kMin, kMin), kMin);
    EXPECT_EQ(rng.uniform_i64(kMax, kMax), kMax);
  }
  // Narrow ranges hugging each limit stay inside them.
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t lo_edge = rng.uniform_i64(kMin, kMin + 3);
    EXPECT_GE(lo_edge, kMin);
    EXPECT_LE(lo_edge, kMin + 3);
    const std::int64_t hi_edge = rng.uniform_i64(kMax - 3, kMax);
    EXPECT_GE(hi_edge, kMax - 3);
    EXPECT_LE(hi_edge, kMax);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sum2 = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal(3.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / kN;
  const double var = sum2 / kN - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliRate) {
  Rng rng(19);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(23);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(Rng, ExponentialNonNegative) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.exponential(0.1), 0.0);
}

TEST(Splitmix64, KnownSequenceIsDeterministic) {
  std::uint64_t s1 = 1234;
  std::uint64_t s2 = 1234;
  for (int i = 0; i < 10; ++i) EXPECT_EQ(splitmix64(s1), splitmix64(s2));
}

}  // namespace
}  // namespace mcs::common
