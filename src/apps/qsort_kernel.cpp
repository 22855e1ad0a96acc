#include "apps/qsort_kernel.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "apps/cycle_model.hpp"

namespace mcs::apps {

namespace {

using wcet::OpClass;

/// Recursive instrumented quicksort (Hoare partition, first-element pivot).
void quicksort(std::vector<std::uint32_t>& a, std::size_t lo, std::size_t hi,
               CycleCounter& cc) {
  cc.call(1);
  cc.alu(1);
  cc.branch(1);
  if (lo >= hi) return;
  // Insertion sort for tiny ranges, as a real qsort would.
  if (hi - lo < 8) {
    for (std::size_t i = lo + 1; i <= hi; ++i) {
      const std::uint32_t key = a[i];
      cc.load(1);
      std::size_t j = i;
      while (j > lo) {
        cc.load(1);
        cc.alu(1);
        cc.branch(1);
        if (a[j - 1] <= key) break;
        a[j] = a[j - 1];
        cc.store(1);
        --j;
      }
      a[j] = key;
      cc.store(1);
      cc.branch(1);
    }
    return;
  }
  const std::uint32_t pivot = a[lo];
  cc.load(1);
  std::size_t i = lo;
  std::size_t j = hi + 1;
  while (true) {
    do {
      ++i;
      cc.load(1);
      cc.alu(2);
      cc.branch(1);
    } while (i <= hi && a[i] < pivot);
    do {
      --j;
      cc.load(1);
      cc.alu(2);
      cc.branch(1);
    } while (a[j] > pivot);
    cc.branch(1);
    if (i >= j) break;
    std::swap(a[i], a[j]);
    cc.load(2);
    cc.store(2);
  }
  std::swap(a[lo], a[j]);
  cc.load(2);
  cc.store(2);
  if (j > lo) quicksort(a, lo, j - 1, cc);
  if (j + 1 <= hi) quicksort(a, j + 1, hi, cc);
}

}  // namespace

QsortKernel::QsortKernel(std::size_t size) : size_(size) {
  if (size < 2) throw std::invalid_argument("QsortKernel: size must be >= 2");
}

std::string QsortKernel::name() const {
  return "qsort-" + std::to_string(size_);
}

common::Cycles QsortKernel::run_once(common::Rng& rng) const {
  std::vector<std::uint32_t> data(size_);
  for (auto& x : data) x = static_cast<std::uint32_t>(rng() >> 32);
  CycleCounter cc;
  quicksort(data, 0, data.size() - 1, cc);
  return cc.total();
}

std::size_t QsortKernel::depth_bound(std::size_t size) {
  const double k = static_cast<double>(size);
  return static_cast<std::size_t>(std::ceil(0.5 * std::pow(k, 0.6))) + 1;
}

wcet::ProgramPtr QsortKernel::worst_case_program() const {
  using wcet::BasicBlock;
  // Per-element partition step: the scan loads the element once (the
  // worst-case cost model prices the load as a cache miss), compares,
  // branches, and may swap.
  BasicBlock visit("qsort.visit");
  visit.add(OpClass::kLoad, 1)
      .add(OpClass::kAlu, 3)
      .add(OpClass::kBranch, 2)
      .add(OpClass::kStore, 1);

  BasicBlock level_header("qsort.level");
  level_header.add(OpClass::kCall, 2).add(OpClass::kAlu, 2).add(
      OpClass::kBranch, 1);

  BasicBlock inner_header("qsort.scan");
  inner_header.add(OpClass::kAlu, 1).add(OpClass::kBranch, 1);

  BasicBlock setup("qsort.setup");
  setup.add(OpClass::kCall, 1).add(OpClass::kAlu, 4).add(OpClass::kLoad, 2);

  // depth_bound levels, each scanning at most `size_` elements.
  return wcet::seq({wcet::block(setup),
                    wcet::loop(depth_bound(size_), level_header,
                               wcet::loop(size_, inner_header,
                                          wcet::block(visit)))});
}

}  // namespace mcs::apps
