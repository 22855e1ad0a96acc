// Tests for the measurement substrate (src/apps): kernel determinism,
// data-dependence of execution times, static-bound conservativeness, and
// the measurement campaign bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <set>

#include "apps/corner_kernel.hpp"
#include "apps/edge_kernel.hpp"
#include "apps/epic_kernel.hpp"
#include "apps/fft_kernel.hpp"
#include "apps/matmul_kernel.hpp"
#include "apps/measurement.hpp"
#include "apps/qsort_kernel.hpp"
#include "apps/registry.hpp"
#include "apps/smooth_kernel.hpp"
#include "wcet/analyzer.hpp"

namespace mcs::apps {
namespace {

SceneConfig small_scene() {
  SceneConfig s;
  s.width = 24;
  s.height = 24;
  return s;
}

TEST(CycleCounter, AccumulatesByClass) {
  CycleCounter cc;
  cc.alu(3);
  cc.load(2);
  const auto typical = wcet::CostModel::typical();
  EXPECT_EQ(cc.total(), 3 * typical.op_cost(wcet::OpClass::kAlu) +
                            2 * typical.op_cost(wcet::OpClass::kLoad));
  EXPECT_EQ(cc.instructions(), 5U);
  cc.reset();
  EXPECT_EQ(cc.total(), 0U);
}

TEST(Image, ClampedAccess) {
  Image img(4, 4);
  img.at(0, 0) = 7.0F;
  img.at(3, 3) = 9.0F;
  EXPECT_FLOAT_EQ(img.at_clamped(-5, -5), 7.0F);
  EXPECT_FLOAT_EQ(img.at_clamped(10, 10), 9.0F);
}

TEST(Image, RandomSceneVariesWithSeed) {
  SceneConfig config = small_scene();
  common::Rng rng1(1);
  common::Rng rng2(2);
  const Image a = random_scene(config, rng1);
  const Image b = random_scene(config, rng2);
  EXPECT_NE(a.data(), b.data());
}

struct KernelCase {
  const char* label;
  KernelPtr kernel;
};

// Without this, gtest prints the case as raw bytes, pointers included, and
// gtest_discover_tests puts that text in the CTest name, which then changes
// from build to build with the load address.
void PrintTo(const KernelCase& c, std::ostream* os) { *os << c.label; }

class KernelContract : public ::testing::TestWithParam<KernelCase> {};

TEST_P(KernelContract, DeterministicInSeed) {
  const Kernel& kernel = *GetParam().kernel;
  common::Rng a(42);
  common::Rng b(42);
  EXPECT_EQ(kernel.run_once(a), kernel.run_once(b));
}

TEST_P(KernelContract, ExecutionTimeIsDataDependent) {
  const Kernel& kernel = *GetParam().kernel;
  common::Rng rng(7);
  std::set<common::Cycles> seen;
  for (int i = 0; i < 20; ++i) seen.insert(kernel.run_once(rng));
  EXPECT_GT(seen.size(), 10U) << "execution time barely varies";
}

TEST_P(KernelContract, StaticBoundDominatesObservations) {
  const Kernel& kernel = *GetParam().kernel;
  const wcet::AnalysisResult analysis =
      wcet::analyze_program(*kernel.worst_case_program());
  common::Rng rng(11);
  for (int i = 0; i < 50; ++i)
    EXPECT_LE(kernel.run_once(rng), analysis.wcet()) << kernel.name();
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelContract,
    ::testing::Values(
        KernelCase{"qsort10", std::make_shared<QsortKernel>(10)},
        KernelCase{"qsort100", std::make_shared<QsortKernel>(100)},
        KernelCase{"corner", std::make_shared<CornerKernel>(small_scene())},
        KernelCase{"edge", std::make_shared<EdgeKernel>(small_scene())},
        KernelCase{"smooth", std::make_shared<SmoothKernel>(small_scene())},
        KernelCase{"epic", std::make_shared<EpicKernel>(small_scene())},
        KernelCase{"fft64", std::make_shared<FftKernel>(64)},
        KernelCase{"matmul12", std::make_shared<MatmulKernel>(12)}),
    [](const ::testing::TestParamInfo<KernelCase>& param_info) {
      return param_info.param.label;
    });

TEST(QsortKernel, NameIncludesSize) {
  EXPECT_EQ(QsortKernel(100).name(), "qsort-100");
  EXPECT_THROW(QsortKernel(1), std::invalid_argument);
}

TEST(QsortKernel, PessimismGrowsWithInputSize) {
  // The paper's Table I: WCET^pes/ACET grows with the qsort input size.
  const auto gap = [](std::size_t size) {
    const QsortKernel kernel(size);
    const ExecutionProfile profile = measure_kernel(kernel, 200, 3);
    return profile.pessimism_ratio();
  };
  const double g10 = gap(10);
  const double g100 = gap(100);
  const double g1000 = gap(1000);
  EXPECT_LT(g10, g100);
  EXPECT_LT(g100, g1000);
}

TEST(SmoothKernel, IterationCountVariesWithNoise) {
  const SmoothKernel kernel(small_scene());
  CycleCounter cc;
  SceneConfig quiet = small_scene();
  quiet.noise_sigma = 0.2;
  SceneConfig noisy = small_scene();
  noisy.noise_sigma = 9.0;
  common::Rng rng(5);
  Image quiet_img = random_scene(quiet, rng);
  Image noisy_img = random_scene(noisy, rng);
  const std::size_t quiet_iters = kernel.smooth(quiet_img, cc);
  const std::size_t noisy_iters = kernel.smooth(noisy_img, cc);
  EXPECT_LE(quiet_iters, noisy_iters);
  EXPECT_LE(noisy_iters, SmoothKernel::kMaxIterations);
}

TEST(EpicKernel, EncodesSymbols) {
  const EpicKernel kernel(small_scene());
  common::Rng rng(6);
  const Image img = random_scene(small_scene(), rng);
  CycleCounter cc;
  const std::size_t symbols = kernel.encode(img, cc);
  EXPECT_GT(symbols, 0U);
  EXPECT_GT(cc.total(), 0U);
}

TEST(CornerKernel, FeatureRichScenesCostMore) {
  const CornerKernel kernel(small_scene());
  SceneConfig flat = small_scene();
  flat.min_blobs = 0;
  flat.max_blobs = 0;
  flat.noise_sigma = 0.1;
  SceneConfig busy = small_scene();
  busy.min_blobs = 14;
  busy.max_blobs = 14;
  common::Rng rng(8);
  const Image flat_img = random_scene(flat, rng);
  const Image busy_img = random_scene(busy, rng);
  CycleCounter cc_flat;
  CycleCounter cc_busy;
  (void)kernel.detect(flat_img, cc_flat);
  (void)kernel.detect(busy_img, cc_busy);
  EXPECT_LT(cc_flat.total(), cc_busy.total());
}

TEST(Measurement, ProfileBookkeeping) {
  const QsortKernel kernel(50);
  const ExecutionProfile profile = measure_kernel(kernel, 500, 9);
  EXPECT_EQ(profile.name, "qsort-50");
  EXPECT_EQ(profile.samples.size(), 500U);
  EXPECT_GT(profile.acet, 0.0);
  EXPECT_GT(profile.sigma, 0.0);
  EXPECT_GE(profile.observed_max, profile.acet);
  EXPECT_GE(static_cast<double>(profile.wcet_pes), profile.observed_max);
  EXPECT_GT(profile.pessimism_ratio(), 1.0);
}

TEST(Measurement, OverrunRateMatchesDefinition) {
  const QsortKernel kernel(30);
  const ExecutionProfile profile = measure_kernel(kernel, 300, 10);
  // Roughly half the samples exceed the mean (distribution is not
  // pathologically skewed).
  const double at_mean = profile.overrun_rate(profile.acet);
  EXPECT_GT(at_mean, 0.15);
  EXPECT_LT(at_mean, 0.85);
  EXPECT_DOUBLE_EQ(profile.overrun_rate(profile.observed_max), 0.0);
}

TEST(Measurement, ZeroSamplesThrow) {
  const QsortKernel kernel(10);
  EXPECT_THROW((void)measure_kernel(kernel, 0, 1), std::invalid_argument);
}

TEST(FftKernel, Validation) {
  EXPECT_THROW(FftKernel(4), std::invalid_argument);     // too small
  EXPECT_THROW(FftKernel(100), std::invalid_argument);   // not a power of 2
  EXPECT_EQ(FftKernel(64).name(), "fft-64");
}

TEST(MatmulKernel, Validation) {
  EXPECT_THROW(MatmulKernel(1), std::invalid_argument);
  EXPECT_EQ(MatmulKernel(16).name(), "matmul-16");
}

TEST(MatmulKernel, DensityDrivesCost) {
  // A wide density range must make the cost distribution very wide: the
  // max/min ratio over a few runs should be large.
  const MatmulKernel kernel(16);
  common::Rng rng(21);
  common::Cycles lo = ~0ULL;
  common::Cycles hi = 0;
  for (int i = 0; i < 30; ++i) {
    const common::Cycles c = kernel.run_once(rng);
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  EXPECT_GT(static_cast<double>(hi) / static_cast<double>(lo), 2.0);
}

TEST(Registry, AllKernelsIncludesZooExtensions) {
  const auto zoo = all_kernels(500);
  ASSERT_EQ(zoo.size(), 9U);
  EXPECT_EQ(zoo[7]->name(), "fft-256");
  EXPECT_EQ(zoo[8]->name(), "matmul-24");
}

TEST(Registry, RosterMatchesPaper) {
  const auto t1 = table1_kernels(10000);
  ASSERT_EQ(t1.size(), 7U);
  EXPECT_EQ(t1[0]->name(), "qsort-10");
  EXPECT_EQ(t1[2]->name(), "qsort-10000");
  EXPECT_EQ(t1[6]->name(), "epic");
  const auto t2 = table2_kernels();
  ASSERT_EQ(t2.size(), 5U);
  EXPECT_EQ(t2[0]->name(), "qsort-100");
}

}  // namespace
}  // namespace mcs::apps
