#include "rt/shared_machine.hpp"

#include <algorithm>
#include <optional>

#include "obs/metrics.hpp"
#include "spmd/barrier.hpp"
#include "spmd/comm_schedule.hpp"
#include "spmd/kernel.hpp"
#include "support/error.hpp"

namespace vcal::rt {

using prog::Clause;
using spmd::ClausePlan;

std::string SharedStats::str() const {
  obs::MetricsRegistry reg;
  obs::collect(reg, *this);
  return reg.line();
}

SharedMachine::SharedMachine(spmd::Program program, gen::BuildOptions opts,
                             CostModel cost, bool elide_barriers,
                             EngineOptions engine,
                             std::shared_ptr<EngineContext> ctx,
                             const std::string& plan_scope)
    : program_(std::move(program)),
      opts_(opts),
      cost_(cost),
      elide_barriers_(elide_barriers),
      engine_(engine),
      ctx_(ctx ? std::move(ctx) : std::make_shared<EngineContext>()) {
  program_.validate();
  plans_ = PlanLease(ctx_, "shared", plan_scope);
  if (engine_.trace) {
    tracer_ = ctx_->make_tracer(program_.procs, engine_.trace_capacity);
    plans_->set_tracer(tracer_, tracer_->control_lane());
  }
  dispatch_ = ClauseDispatch(engine_, ctx_, plans_.get(), tracer_);
  for (const auto& [name, desc] : program_.arrays) store_.declare(desc);
}

void SharedMachine::load(const std::string& name,
                         const std::vector<double>& dense) {
  auto it = program_.arrays.find(name);
  require(it != program_.arrays.end(),
          "SharedMachine::load unknown " + name);
  store_.load(it->second, dense);
}

void SharedMachine::run() {
  // Each clause ends with a barrier; the footnote-1 analysis may prove
  // the barrier between two consecutive parallel clauses unnecessary.
  // `pending` holds the plan of the last clause whose trailing barrier
  // has not been accounted yet (nullopt plan = not analyzable: keep).
  std::optional<ClausePlan> pending;
  bool pending_exists = false;

  obs::Tracer* tr = tracer_;
  const i64 ctl = tr ? tr->control_lane() : 0;

  auto resolve_pending = [&](const ClausePlan* next) {
    if (!pending_exists) return;
    bool keep = true;
    if (elide_barriers_ && pending && next)
      keep = spmd::barrier_needed(*pending, *next);
    if (keep) {
      ++stats_.barriers;
      stats_.sim_time += cost_.per_barrier;
      if (tr) tr->set_virtual_time(stats_.sim_time);
    } else {
      ++stats_.barriers_elided;
    }
    VCAL_TRACE(tr, ctl, obs::EventKind::Barrier, /*step=*/-1,
               /*performed=*/keep ? 1 : 0);
    pending.reset();
    pending_exists = false;
  };

  for (const spmd::Step& step : program_.steps) {
    if (const auto* clause = std::get_if<Clause>(&step)) {
      if (clause->ord == prog::Ordering::Seq) {
        resolve_pending(nullptr);
        run_clause_sequential(*clause);
        pending.reset();
        pending_exists = true;  // unanalyzable: barrier stays
      } else {
        const std::string* key = dispatch_.key(*clause);
        ClausePlan plan =
            key ? plans_->get(*key, *clause, program_.arrays, opts_)
                : ClausePlan::build(*clause, program_.arrays, opts_);
        resolve_pending(&plan);
        ClauseRoute route = dispatch_.route(key, *clause, plan,
                                            /*fault_armed=*/false,
                                            trace_step_);
        run_clause(*clause, plan, route);
        pending = std::move(plan);
        pending_exists = true;
      }
    } else {
      // Shared memory: redistribution only changes future ownership, but
      // it is a synchronization point for the analysis, and cached plans
      // baked the old layout into their owner arithmetic.
      resolve_pending(nullptr);
      const auto& redist = std::get<spmd::RedistStep>(step);
      program_.arrays.insert_or_assign(redist.array, redist.new_desc);
      plans_->bump_epoch();
      ++stats_.barriers;
      stats_.sim_time += cost_.per_barrier;
      if (tr) {
        tr->set_virtual_time(stats_.sim_time);
        tr->record(ctl, obs::EventKind::RedistEpoch, trace_step_,
                   static_cast<i64>(plans_->epoch()));
      }
      ++trace_step_;
    }
  }
  resolve_pending(nullptr);  // the final barrier is always performed
}

void SharedMachine::run_clause(const Clause& clause, const ClausePlan& plan,
                               ClauseRoute& route) {
  obs::Tracer* tr = tracer_;
  const i64 ctl = tr ? tr->control_lane() : 0;
  const i64 step_id = trace_step_;
  VCAL_TRACE(tr, ctl, obs::EventKind::ClauseBegin, step_id);
  const i64 procs = plan.procs();
  const auto np = static_cast<std::size_t>(procs);

  // Reads come from the copy-in snapshot (self-reads) or the shared
  // dense arrays; writes go to the LHS array, partitioned by ownership.
  std::optional<std::vector<double>> snap;
  if (reads_own_target(clause)) snap = store_.snapshot(clause.lhs_array);
  std::vector<const std::vector<double>*> rows(clause.refs.size());
  for (std::size_t r = 0; r < clause.refs.size(); ++r)
    rows[r] = snap && clause.refs[r].array == clause.lhs_array
                  ? &*snap
                  : &store_.dense(clause.refs[r].array);
  std::vector<double>& out = store_.buffer(clause.lhs_array);

  std::vector<RankCounters> counters(np);
  std::vector<PathCounters> pcs(np);
  std::vector<RankStep> ranks(np);
  for (i64 p = 0; p < procs; ++p)
    ranks[static_cast<std::size_t>(p)] =
        RankStep{.clause = &clause, .plan = &plan, .rank = p,
                 .step_id = step_id, .rows = rows,
                 .counters = &counters[static_cast<std::size_t>(p)],
                 .paths = &pcs[static_cast<std::size_t>(p)], .tracer = tr,
                 .lane = p, .recorder = route.record.get(), .dense = true};
  if (replay_scratch_.size() < np) replay_scratch_.resize(np);

  // A replicated LHS gives every rank the same Modify_p over the same
  // dense elements, so rank 0 alone runs it (other ranks would write
  // the same elements concurrently) and the others repeat its counts.
  const bool replicated = plan.lhs_desc().is_replicated();
  Channel none;  // shared memory sends nothing
  // The pool's join is the template's barrier (whether the generated
  // program would need it is accounted in run()).
  dispatch_.for_ranks(replicated ? 1 : procs, [&](i64 p) {
    const auto up = static_cast<std::size_t>(p);
    if (route.replay)
      replay_phase(ranks[up], route.replay->recv[up], nullptr, 0, out,
                   route.jit, route.jit_replay, replay_scratch_[up]);
    else
      update_phase(ranks[up], ChannelRow{&none, 0}, out, route.jit);
  });
  for (std::size_t p = 1; replicated && p < np; ++p) {
    counters[p] = counters[0];
    pcs[p] = pcs[0];
  }

  // A replayed step repeats its recording step's enumeration counts,
  // keeping iterations/tests/sim_time bit-identical.
  if (route.record) route.record->counters = counters;
  const std::vector<RankCounters>& step =
      route.replay ? route.replay->counters : counters;
  double slowest = 0.0;
  i64 iters = 0, tests = 0;
  for (const RankCounters& c : step) {
    iters += c.iterations;
    tests += c.tests;
    slowest = std::max(slowest, cost_.compute_cost(c.iterations, c.tests));
  }
  stats_.iterations += iters;
  stats_.tests += tests;
  stats_.sim_time += slowest;
  dispatch_.finish(route, pcs, step_id);
  if (tr) {
    tr->set_virtual_time(stats_.sim_time);
    tr->record(ctl, obs::EventKind::StepCounters, step_id, iters, tests, 0,
               0);
    tr->record(ctl, obs::EventKind::ClauseEnd, step_id);
  }
  ++trace_step_;
}

void SharedMachine::run_clause_sequential(const Clause& clause) {
  // '•' ordering: one processor walks the whole nest in lexicographic
  // order with immediate visibility, then everyone synchronizes.
  obs::Tracer* tr = tracer_;
  const i64 ctl = tr ? tr->control_lane() : 0;
  const i64 step_id = trace_step_;
  VCAL_TRACE(tr, ctl, obs::EventKind::ClauseBegin, step_id);
  std::optional<ClausePlan> uncached;
  if (!engine_.cache_plans)
    uncached.emplace(ClausePlan::build(clause, program_.arrays, opts_));
  const ClausePlan& plan =
      uncached ? *uncached : plans_->get(clause, program_.arrays, opts_);
  const decomp::ArrayDesc& lhs = plan.lhs_desc();
  const spmd::ClauseKernel& kern = plan.kernel();
  const spmd::CompiledGuard* guard = kern.guard();

  std::vector<double> ref_values(clause.refs.size());
  std::vector<double> stack(static_cast<std::size_t>(kern.stack_need()));
  std::vector<i64> out_idx, idx;  // scratch
  gen::EnumStats s;
  // A full-range space: rank ownership is ignored under '•'.
  std::vector<gen::Schedule> dims;
  for (const prog::LoopDim& l : clause.loops) {
    if (l.lo > l.hi) {
      VCAL_TRACE(tr, ctl, obs::EventKind::ClauseEnd, step_id);
      ++trace_step_;
      return;
    }
    dims.push_back(gen::Schedule::closed_form(
        gen::Method::Replicated, {{l.lo, l.hi - l.lo + 1, 1}}));
  }
  spmd::IterationSpace space{std::move(dims)};
  space.for_each(
      [&](const std::vector<i64>& vals) {
        plan.lhs_index_into(vals, out_idx);
        if (!lhs.in_bounds(out_idx)) return;
        for (std::size_t r = 0; r < clause.refs.size(); ++r) {
          plan.ref_index_into(static_cast<int>(r), vals, idx);
          ref_values[r] = store_.read(plan.ref_desc(static_cast<int>(r)),
                                      idx);
        }
        if (guard &&
            !guard->holds(ref_values.data(), vals.data(), stack.data()))
          return;
        store_.write(lhs, out_idx,
                     kern.rhs().eval(ref_values.data(), vals.data(),
                                     stack.data()));
      },
      &s);
  stats_.iterations += s.loop_iters;
  stats_.tests += s.tests;
  stats_.sim_time += cost_.compute_cost(s.loop_iters, s.tests);
  if (tr) {
    tr->set_virtual_time(stats_.sim_time);
    tr->record(ctl, obs::EventKind::StepCounters, step_id, s.loop_iters,
               s.tests, 0, 0);
    tr->record(ctl, obs::EventKind::ClauseEnd, step_id);
  }
  ++trace_step_;
}

const std::vector<double>& SharedMachine::result(
    const std::string& name) const {
  return store_.dense(name);
}

}  // namespace vcal::rt
