#include "rt/clause_dispatch.hpp"

#include "spmd/comm_schedule.hpp"

namespace vcal::rt {

ClauseDispatch::ClauseDispatch(const EngineOptions& engine,
                               std::shared_ptr<EngineContext> ctx,
                               spmd::PlanCache* plans, obs::Tracer* tracer)
    : engine_(engine), ctx_(std::move(ctx)), plans_(plans), tracer_(tracer) {
  if (engine_.threads > 1)
    pool_ = std::make_unique<support::ThreadPool>(engine_.threads);
}

const std::string* ClauseDispatch::key(const prog::Clause& clause) {
  if (!engine_.cache_plans) return nullptr;
  auto [ki, fresh] = step_keys_.try_emplace(&clause, std::string{});
  if (fresh) ki->second = clause.str();
  return &ki->second;
}

ClauseRoute ClauseDispatch::route(const std::string* key,
                                  const prog::Clause& clause,
                                  const spmd::ClausePlan& plan,
                                  bool fault_armed, i64 step_id) {
  obs::Tracer* tr = tracer_;
  const i64 ctl = tr ? tr->control_lane() : 0;
  ClauseRoute r;
  r.key = key;
  spmd::JitState* js = nullptr;
  if (engine_.jit && plan.kernel().affine() && key && !fault_armed)
    r.jit = poll_jit(*key, clause, plan.kernel(), step_id, &js);
  if (!engine_.comm_schedules) return r;
  if (!key || fault_armed) {
    ++comm_.sched_fallbacks;
    VCAL_TRACE(tr, ctl, obs::EventKind::SchedFallback, step_id,
               fault_armed ? 1 : 0);
    return r;
  }
  if (const auto* cs =
          static_cast<const spmd::CommSchedule*>(plans_->find_schedule(*key))) {
    r.replay = cs;
    if (r.jit) r.jit_replay = js->replay_prog(*cs);
    return r;
  }
  // The first clean execution proves the pattern repeats; single-shot
  // clauses never pay the inspector.
  auto [si, first] = key_seen_.try_emplace(*key, KeySeen{plans_->epoch(), 0});
  if (!first && si->second.epoch != plans_->epoch())
    si->second = KeySeen{plans_->epoch(), 0};
  if (si->second.seen++ >= 1) {
    r.record = std::make_unique<spmd::CommSchedule>();
    r.record->init(plan.procs(), static_cast<int>(clause.loops.size()),
                   static_cast<int>(clause.refs.size()));
    r.jit = nullptr;  // the note_* hooks must observe every element
  }
  return r;
}

void ClauseDispatch::finish(ClauseRoute& r,
                            const std::vector<PathCounters>& pcs,
                            i64 step_id) {
  obs::Tracer* tr = tracer_;
  const i64 ctl = tr ? tr->control_lane() : 0;
  i64 jitted = 0;
  for (const PathCounters& c : pcs) {
    paths_ += c;
    jitted += c.jit;
  }
  if (jitted > 0) ++jit_.hits;
  if (r.replay) {
    ++comm_.sched_hits;
    comm_.packed_values += r.replay->packed_ops;
    comm_.packed_bytes +=
        r.replay->packed_ops * static_cast<i64>(sizeof(double));
    comm_.unpacked_values += r.replay->remote_ops;
    VCAL_TRACE(tr, ctl, obs::EventKind::SchedHit, step_id);
  }
  if (r.record) {
    r.record->seal();
    ++comm_.sched_builds;
    plans_->attach_schedule(*r.key, std::move(r.record));
    VCAL_TRACE(tr, ctl, obs::EventKind::SchedBuild, step_id,
               plans_->schedules());
  }
}

const spmd::JitFns* ClauseDispatch::poll_jit(const std::string& key,
                                             const prog::Clause& clause,
                                             const spmd::ClauseKernel& kern,
                                             i64 step_id,
                                             spmd::JitState** js) {
  obs::Tracer* tr = tracer_;
  const i64 ctl = tr ? tr->control_lane() : 0;
  JitSlot& slot = jit_slots_[key];
  if (!ctx_->jit().available()) {
    // No toolchain on this host: never arm (a compile job could only
    // fail). A single fallback per clause key records that JIT was
    // requested but cannot happen here.
    if (!slot.no_toolchain_noted) {
      slot.no_toolchain_noted = true;
      ++jit_.fallbacks;
    }
    return nullptr;
  }
  if (!slot.state || slot.epoch != plans_->epoch()) {
    // A redistribution invalidated whatever this key had compiled; if
    // the old state was armed, the next executions run bytecode again —
    // count that as a fallback, then re-arm from scratch.
    if (slot.state && slot.state->armed()) ++jit_.fallbacks;
    slot.state = std::make_shared<spmd::JitState>();
    slot.epoch = plans_->epoch();
  }
  spmd::JitConfig cfg;
  cfg.enabled = true;
  cfg.threshold = engine_.jit_threshold;
  cfg.sync = engine_.jit_sync;
  cfg.cache_dir = engine_.jit_cache_dir;
  cfg.engine = &ctx_->jit();
  spmd::JitPoll r = slot.state->poll(clause, kern, cfg, jit_);
  if (r.launched)
    VCAL_TRACE(tr, ctl, obs::EventKind::JitBuild, step_id, cfg.sync ? 1 : 0);
  if (r.swapped)
    VCAL_TRACE(tr, ctl, obs::EventKind::JitSwap, step_id, r.cached ? 0 : 1);
  *js = slot.state.get();
  return r.fns;
}

}  // namespace vcal::rt
