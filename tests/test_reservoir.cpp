// Tests for common/reservoir.hpp.
#include "common/reservoir.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace mcs::common {
namespace {

TEST(Reservoir, KeepsEverythingBelowCapacity) {
  ReservoirSampler r(10);
  for (int i = 0; i < 7; ++i) r.add(static_cast<double>(i));
  EXPECT_EQ(r.sample().size(), 7U);
  EXPECT_EQ(r.seen(), 7U);
}

TEST(Reservoir, CapsAtCapacity) {
  ReservoirSampler r(16);
  for (int i = 0; i < 10000; ++i) r.add(static_cast<double>(i));
  EXPECT_EQ(r.sample().size(), 16U);
  EXPECT_EQ(r.seen(), 10000U);
}

TEST(Reservoir, UniformInclusionProbability) {
  // Over many independent reservoirs, every stream position should land
  // in the sample with probability k/n.
  constexpr int kStream = 200;
  constexpr int kCapacity = 20;
  constexpr int kTrials = 3000;
  std::vector<int> hits(kStream, 0);
  for (int trial = 0; trial < kTrials; ++trial) {
    ReservoirSampler r(kCapacity, static_cast<std::uint64_t>(trial) + 1);
    for (int i = 0; i < kStream; ++i) r.add(static_cast<double>(i));
    for (const double v : r.sample()) ++hits[static_cast<std::size_t>(v)];
  }
  const double expected = static_cast<double>(kCapacity) / kStream;
  for (int i = 0; i < kStream; i += 17) {
    const double p = static_cast<double>(hits[static_cast<std::size_t>(i)]) / kTrials;
    EXPECT_NEAR(p, expected, 0.03) << "position " << i;
  }
}

TEST(Reservoir, UniformInclusionOverLongStream) {
  // Same property over a 10k-element stream, where replacement dominates
  // (k/n = 1%): aggregated over ten equal stream segments, each segment
  // must hold ~10% of the retained sample — early positions are as likely
  // to survive as late ones.
  constexpr int kStream = 10000;
  constexpr int kCapacity = 100;
  constexpr int kTrials = 300;
  constexpr int kSegments = 10;
  std::vector<int> segment_hits(kSegments, 0);
  for (int trial = 0; trial < kTrials; ++trial) {
    ReservoirSampler r(kCapacity, static_cast<std::uint64_t>(trial) + 1);
    for (int i = 0; i < kStream; ++i) r.add(static_cast<double>(i));
    for (const double v : r.sample())
      ++segment_hits[static_cast<std::size_t>(v) / (kStream / kSegments)];
  }
  constexpr int kTotal = kCapacity * kTrials;
  for (std::size_t s = 0; s < segment_hits.size(); ++s) {
    const double fraction = static_cast<double>(segment_hits[s]) / kTotal;
    // Binomial std-dev of a segment fraction is ~0.0017; 0.02 is > 10 sigma.
    EXPECT_NEAR(fraction, 1.0 / kSegments, 0.02) << "segment " << s;
  }
}

TEST(Reservoir, QuantileApproximatesStream) {
  ReservoirSampler r(500, 7);
  for (int i = 0; i < 50000; ++i) r.add(static_cast<double>(i % 1000));
  // Stream is uniform over [0, 1000): p50 ~ 500, p95 ~ 950.
  EXPECT_NEAR(r.quantile(0.5), 500.0, 60.0);
  EXPECT_NEAR(r.quantile(0.95), 950.0, 40.0);
  EXPECT_LE(r.quantile(1.0), 999.0 + 1e-9);
}

TEST(Reservoir, QuantileOfEmptyStreamIsNaN) {
  // Regression: an empty stream used to report quantile 0.0, which is
  // indistinguishable from a genuine zero-valued sample. "No data" must
  // be NaN so downstream renderers can emit an empty cell instead of a
  // fabricated measurement.
  ReservoirSampler r(4);
  EXPECT_TRUE(std::isnan(r.quantile(0.0)));
  EXPECT_TRUE(std::isnan(r.quantile(0.5)));
  EXPECT_TRUE(std::isnan(r.quantile(1.0)));
  // Out-of-range probabilities still throw, even when empty.
  EXPECT_THROW((void)r.quantile(-0.1), std::invalid_argument);
  r.add(3.0);
  EXPECT_FALSE(std::isnan(r.quantile(0.5)));
}

TEST(Reservoir, QuantileEdgeCases) {
  ReservoirSampler r(4);
  r.add(3.0);
  EXPECT_DOUBLE_EQ(r.quantile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(r.quantile(1.0), 3.0);
  EXPECT_THROW((void)r.quantile(1.5), std::invalid_argument);
}

TEST(Reservoir, Validation) {
  EXPECT_THROW(ReservoirSampler(0), std::invalid_argument);
}

}  // namespace
}  // namespace mcs::common
