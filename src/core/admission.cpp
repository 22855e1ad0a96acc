#include "core/admission.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

namespace mcs::core {

namespace {

AdmissionVerdict combine(const sched::EdfVdResult& vd, bool dbf_schedulable,
                         bool dbf_inconclusive) {
  AdmissionVerdict v;
  v.vd = vd;
  v.dbf_schedulable = dbf_schedulable;
  v.dbf_inconclusive = dbf_inconclusive;
  v.admitted = vd.schedulable && dbf_schedulable;
  return v;
}

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// kDemand escalation shared by admission_check and the controller: a
/// rejected base verdict gets one deterministic grid search over the
/// concrete task set — identical inputs on the incremental and
/// from-scratch paths, hence identical (bitwise) demand_x.
void escalate_to_demand(AdmissionVerdict* verdict,
                        const mc::TaskSet& tasks) {
  if (verdict->admitted) return;
  const sched::DemandVdResult search = sched::edf_vd_demand_search(tasks);
  if (!search.schedulable) return;
  verdict->admitted = true;
  verdict->demand_admitted = true;
  verdict->demand_x = search.x;
}

}  // namespace

std::string to_string(AdmissionBackend backend) {
  return backend == AdmissionBackend::kDemand ? "demand" : "utilization";
}

AdmissionBackend parse_admission_backend(std::string_view spec) {
  if (spec == "utilization" || spec == "util" || spec == "eq8")
    return AdmissionBackend::kUtilization;
  if (spec == "demand") return AdmissionBackend::kDemand;
  throw std::invalid_argument(
      "unknown admission backend '" + std::string(spec) +
      "' (valid: utilization, demand)");
}

bool verdict_equal(const AdmissionVerdict& a, const AdmissionVerdict& b) {
  return a.admitted == b.admitted &&
         a.vd.schedulable == b.vd.schedulable &&
         a.vd.plain_edf == b.vd.plain_edf && bit_equal(a.vd.x, b.vd.x) &&
         a.dbf_schedulable == b.dbf_schedulable &&
         a.dbf_inconclusive == b.dbf_inconclusive &&
         a.demand_admitted == b.demand_admitted &&
         bit_equal(a.demand_x, b.demand_x);
}

AdmissionVerdict admission_check(const mc::TaskSet& tasks,
                                 AdmissionBackend backend) {
  const sched::EdfVdResult vd = sched::edf_vd_test(tasks);
  const sched::DbfResult dbf = sched::edf_dbf_test(tasks, mc::Mode::kLow);
  AdmissionVerdict verdict = combine(vd, dbf.schedulable, dbf.inconclusive);
  if (backend == AdmissionBackend::kDemand)
    escalate_to_demand(&verdict, tasks);
  return verdict;
}

AdmissionController::AdmissionController()
    : AdmissionController(Config{}) {}

AdmissionController::AdmissionController(Config config) : config_(config) {
  profile_.complete = true;  // the empty set's profile: nothing to scan
  current_ = combine(sched::edf_vd_test(sched::McUtilization{}), true, false);
}

sched::McUtilization AdmissionController::fold_utilization(
    const Resident* extra) const {
  // TaskSet::utilization folds `total += u` left-to-right per aggregate
  // over tasks filtered by criticality; replaying the same folds over the
  // cached addends (in admission order) reproduces each sum bit for bit.
  sched::McUtilization u;
  const auto fold = [&u](const Resident& r) {
    if (r.task.criticality == mc::Criticality::kLow) {
      u.lc_lo += r.u_lo;
    } else {
      u.hc_lo += r.u_lo;
      u.hc_hi += r.u_hi;
    }
  };
  for (const Resident& r : residents_) fold(r);
  if (extra) fold(*extra);
  return u;
}

sched::DbfResult AdmissionController::rescan(
    const sched::DemandProfile& base, const sched::DbfTaskTerms& changed,
    int sign, std::uint64_t* served) {
  ++*(base.complete ? served : &stats_.full_scans);
  return sched::dbf_apply(base, terms_, changed, sign, &scratch_);
}

void AdmissionController::apply_demand_backend(AdmissionVerdict* verdict,
                                               const mc::TaskSet& tasks) {
  if (config_.backend != AdmissionBackend::kDemand || verdict->admitted)
    return;
  ++stats_.demand_searches;
  escalate_to_demand(verdict, tasks);
  if (verdict->demand_admitted) ++stats_.demand_admissions;
}

AdmissionController::Decision AdmissionController::try_admit(
    const mc::McTask& task) {
  if (!task.valid())
    throw std::invalid_argument("AdmissionController: invalid task");
  ++stats_.arrivals;
  Resident cand;
  cand.task = task;
  cand.u_lo = task.utilization(mc::Mode::kLow);
  cand.u_hi = task.utilization(mc::Mode::kHigh);

  const sched::EdfVdResult vd = sched::edf_vd_test(fold_utilization(&cand));
  terms_.push_back(sched::dbf_terms(task, mc::Mode::kLow));
  const sched::DbfResult dbf =
      rescan(profile_, terms_.back(), +1, &stats_.append_scans);
  Decision decision;
  decision.verdict = combine(vd, dbf.schedulable, dbf.inconclusive);
  if (config_.backend == AdmissionBackend::kDemand &&
      !decision.verdict.admitted) {
    mc::TaskSet candidate_set = resident_set();
    candidate_set.add(task);
    apply_demand_backend(&decision.verdict, candidate_set);
  }
  if (!decision.verdict.admitted) {
    terms_.pop_back();
    ++stats_.rejected;
    return decision;  // resident state untouched
  }
  cand.id = next_id_++;
  decision.admitted = true;
  decision.id = cand.id;
  index_[cand.id] = residents_.size();
  residents_.push_back(std::move(cand));
  std::swap(profile_, scratch_);
  current_ = decision.verdict;
  ++stats_.admitted;
  return decision;
}

bool AdmissionController::remove(std::uint64_t id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return false;
  ++stats_.departures;
  const std::size_t pos = it->second;
  const sched::DbfTaskTerms departed = terms_[pos];
  residents_.erase(residents_.begin() + static_cast<std::ptrdiff_t>(pos));
  terms_.erase(terms_.begin() + static_cast<std::ptrdiff_t>(pos));
  index_.erase(it);
  for (auto& [rid, rpos] : index_)
    if (rpos > pos) --rpos;

  const sched::EdfVdResult vd = sched::edf_vd_test(fold_utilization(nullptr));
  const sched::DbfResult dbf =
      rescan(profile_, departed, -1, &stats_.shortcut_departures);
  std::swap(profile_, scratch_);
  current_ = combine(vd, dbf.schedulable, dbf.inconclusive);
  if (config_.backend == AdmissionBackend::kDemand && !current_.admitted)
    apply_demand_backend(&current_, resident_set());
  return true;
}

AdmissionController::UpdateResult AdmissionController::try_update(
    std::uint64_t id, double wcet_lo) {
  const auto it = index_.find(id);
  if (it == index_.end())
    throw std::invalid_argument("AdmissionController: unknown resident id");
  ++stats_.updates;
  const std::size_t pos = it->second;
  Resident modified = residents_[pos];
  modified.task.wcet_lo = wcet_lo;
  if (modified.task.criticality == mc::Criticality::kLow)
    modified.task.wcet_hi = wcet_lo;  // LC tasks carry a single budget
  if (!modified.task.valid())
    throw std::invalid_argument(
        "AdmissionController: update violates the task model");
  modified.u_lo = modified.task.utilization(mc::Mode::kLow);
  modified.u_hi = modified.task.utilization(mc::Mode::kHigh);

  // The change sits mid-fold, so refold the aggregates with the modified
  // addends in place.
  sched::McUtilization u;
  for (std::size_t i = 0; i < residents_.size(); ++i) {
    const Resident& r = i == pos ? modified : residents_[i];
    if (r.task.criticality == mc::Criticality::kLow) {
      u.lc_lo += r.u_lo;
    } else {
      u.hc_lo += r.u_lo;
      u.hc_hi += r.u_hi;
    }
  }
  const sched::EdfVdResult vd = sched::edf_vd_test(u);

  // The old demand comes off the profile, then the new demand goes on.
  const auto at = terms_.begin() + static_cast<std::ptrdiff_t>(pos);
  const sched::DbfTaskTerms old_terms = *at;
  terms_.erase(at);
  sched::DemandProfile without;  // incomplete unless the profile serves
  if (profile_.complete)
    (void)sched::dbf_apply(profile_, terms_, old_terms, -1, &without);
  const sched::DbfTaskTerms new_terms =
      sched::dbf_terms(modified.task, mc::Mode::kLow);
  terms_.insert(terms_.begin() + static_cast<std::ptrdiff_t>(pos), new_terms);
  const sched::DbfResult dbf =
      rescan(without, new_terms, +1, &stats_.append_scans);

  UpdateResult result;
  result.verdict = combine(vd, dbf.schedulable, dbf.inconclusive);
  if (config_.backend == AdmissionBackend::kDemand &&
      !result.verdict.admitted) {
    mc::TaskSet modified_set;
    for (std::size_t i = 0; i < residents_.size(); ++i)
      modified_set.add(i == pos ? modified.task : residents_[i].task);
    apply_demand_backend(&result.verdict, modified_set);
  }
  if (!result.verdict.admitted) {
    terms_[pos] = old_terms;
    ++stats_.updates_rejected;
    return result;  // keep the old task and profile
  }
  residents_[pos] = std::move(modified);
  std::swap(profile_, scratch_);
  current_ = result.verdict;
  result.applied = true;
  return result;
}

sched::McUtilization AdmissionController::utilization() const {
  return fold_utilization(nullptr);
}

mc::TaskSet AdmissionController::resident_set() const {
  mc::TaskSet tasks;
  for (const Resident& r : residents_) tasks.add(r.task);
  return tasks;
}

const mc::McTask* AdmissionController::find(std::uint64_t id) const {
  const auto it = index_.find(id);
  return it == index_.end() ? nullptr : &residents_[it->second].task;
}

}  // namespace mcs::core
