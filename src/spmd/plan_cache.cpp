#include "spmd/plan_cache.hpp"

#include "spmd/kernel.hpp"

namespace vcal::spmd {

const ClausePlan& PlanCache::get(const prog::Clause& clause,
                                 const ArrayTable& arrays,
                                 gen::BuildOptions opts) {
  return get(clause.str(), clause, arrays, opts);
}

const ClausePlan& PlanCache::get(const std::string& key,
                                 const prog::Clause& clause,
                                 const ArrayTable& arrays,
                                 gen::BuildOptions opts) {
  EpochMap& cache = epochs_[epoch_];
  auto it = cache.find(key);
  if (it != cache.end()) {
    ++hits_;
    VCAL_TRACE(tracer_, lane_, obs::EventKind::PlanHit, /*step=*/-1,
               size());
    return it->second.plan;
  }
  ++misses_;
  auto pos = cache.emplace(
      key, Entry{ClausePlan::build(clause, arrays, opts), nullptr}).first;
  VCAL_TRACE(tracer_, lane_, obs::EventKind::PlanMiss, /*step=*/-1, size(),
             pos->second.plan.kernel().op_count());
  return pos->second.plan;
}

CachedSchedule* PlanCache::find_schedule(const std::string& key) noexcept {
  auto it = epochs_[epoch_].find(key);
  return it == epochs_[epoch_].end() ? nullptr : it->second.sched.get();
}

void PlanCache::attach_schedule(const std::string& key,
                                std::unique_ptr<CachedSchedule> sched) {
  auto it = epochs_[epoch_].find(key);
  if (it != epochs_[epoch_].end()) it->second.sched = std::move(sched);
}

i64 PlanCache::schedules() const noexcept {
  i64 n = 0;
  for (const auto& [key, e] : epochs_[epoch_])
    if (e.sched) ++n;
  return n;
}

i64 PlanCache::size() const noexcept {
  i64 n = 0;
  for (const EpochMap& m : epochs_) n += static_cast<i64>(m.size());
  return n;
}

}  // namespace vcal::spmd
