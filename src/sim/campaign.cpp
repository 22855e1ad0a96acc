#include "sim/campaign.hpp"

namespace mcs::sim {

void SimMetricsAccumulator::add(const SimMetrics& m) {
  ++sets;
  hc_jobs_released += m.hc_jobs_released;
  hc_jobs_completed += m.hc_jobs_completed;
  hc_jobs_overrun += m.hc_jobs_overrun;
  hc_deadline_misses += m.hc_deadline_misses;
  lc_jobs_released += m.lc_jobs_released;
  lc_jobs_completed += m.lc_jobs_completed;
  lc_jobs_dropped += m.lc_jobs_dropped;
  lc_jobs_degraded += m.lc_jobs_degraded;
  lc_deadline_misses += m.lc_deadline_misses;
  mode_switches += m.mode_switches;
  context_switches += m.context_switches;
  busy_time += m.busy_time;
  hi_mode_time += m.hi_mode_time;
  horizon += m.horizon;
  hc_overrun_rate.add(m.hc_overrun_rate());
  lc_drop_rate.add(m.lc_drop_rate());
  hi_mode_fraction.add(m.hi_mode_fraction());
  observed_utilization.add(m.observed_utilization());
}

void SimMetricsAccumulator::merge(const SimMetricsAccumulator& other) {
  sets += other.sets;
  hc_jobs_released += other.hc_jobs_released;
  hc_jobs_completed += other.hc_jobs_completed;
  hc_jobs_overrun += other.hc_jobs_overrun;
  hc_deadline_misses += other.hc_deadline_misses;
  lc_jobs_released += other.lc_jobs_released;
  lc_jobs_completed += other.lc_jobs_completed;
  lc_jobs_dropped += other.lc_jobs_dropped;
  lc_jobs_degraded += other.lc_jobs_degraded;
  lc_deadline_misses += other.lc_deadline_misses;
  mode_switches += other.mode_switches;
  context_switches += other.context_switches;
  busy_time += other.busy_time;
  hi_mode_time += other.hi_mode_time;
  horizon += other.horizon;
  hc_overrun_rate.merge(other.hc_overrun_rate);
  lc_drop_rate.merge(other.lc_drop_rate);
  hi_mode_fraction.merge(other.hi_mode_fraction);
  observed_utilization.merge(other.observed_utilization);
}

}  // namespace mcs::sim
