#include "exp/fig6.hpp"

#include "common/thread_pool.hpp"

namespace mcs::exp {

std::vector<Fig6Point> run_fig6(const std::vector<double>& u_values,
                                std::size_t tasksets, std::uint64_t seed,
                                const common::Executor& exec) {
  // The outer utilization axis fans out too: each point's seed depends
  // only on its u value, so the points are independent work items. The
  // nested acceptance_ratio maps then run inline on the worker, which
  // keeps small per-point taskset counts from serializing the whole
  // figure behind one u value. The four approaches share point_seed, so
  // they judge the same task sets. Under a sharded executor only the
  // shard's slice of points is evaluated.
  return exec.map(u_values.size(), [&](std::size_t p) {
    const double u = u_values[p];
    const std::uint64_t point_seed =
        seed + static_cast<std::uint64_t>(u * 1000.0);
    Fig6Point point;
    point.u_bound = u;
    point.baruah_lambda = core::acceptance_ratio(
        core::Approach::kBaruahLambda, u, tasksets, point_seed);
    point.baruah_chebyshev = core::acceptance_ratio(
        core::Approach::kBaruahChebyshev, u, tasksets, point_seed);
    point.liu_lambda = core::acceptance_ratio(core::Approach::kLiuLambda, u,
                                              tasksets, point_seed);
    point.liu_chebyshev = core::acceptance_ratio(
        core::Approach::kLiuChebyshev, u, tasksets, point_seed);
    return point;
  });
}

common::Table render_fig6(const std::vector<Fig6Point>& points) {
  common::Table table({"U_bound", "Baruah[1]", "Baruah[1]+proposed",
                       "Liu[2]", "Liu[2]+proposed"});
  table.set_title("Fig. 6: acceptance ratio of scheduling approaches with "
                  "and without the proposed scheme");
  for (const Fig6Point& p : points) {
    table.add_row({common::format_double(p.u_bound, 3),
                   common::format_percent(p.baruah_lambda),
                   common::format_percent(p.baruah_chebyshev),
                   common::format_percent(p.liu_lambda),
                   common::format_percent(p.liu_chebyshev)});
  }
  return table;
}

}  // namespace mcs::exp
