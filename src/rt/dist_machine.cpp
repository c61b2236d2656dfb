#include "rt/dist_machine.hpp"

#include <algorithm>
#include <numeric>
#include <optional>

#include "decomp/redistribute.hpp"
#include "obs/metrics.hpp"
#include "rt/rank_step.hpp"
#include "spmd/comm_schedule.hpp"
#include "spmd/kernel.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace vcal::rt {

using prog::Clause;
using spmd::ClausePlan;

std::string DistStats::str() const {
  obs::MetricsRegistry reg;
  obs::collect(reg, *this);
  return reg.line();
}

DistMachine::DistMachine(spmd::Program program, gen::BuildOptions opts,
                         CostModel cost, EngineOptions engine,
                         std::shared_ptr<EngineContext> ctx,
                         const std::string& plan_scope)
    : program_(std::move(program)),
      opts_(opts),
      cost_(cost),
      engine_(engine),
      ctx_(ctx ? std::move(ctx) : std::make_shared<EngineContext>()),
      store_(program_.procs) {
  program_.validate();
  plans_ = PlanLease(ctx_, "dist", plan_scope);
  if (engine_.trace) {
    tracer_ = ctx_->make_tracer(program_.procs, engine_.trace_capacity);
    plans_->set_tracer(tracer_, tracer_->control_lane());
  }
  dispatch_ = ClauseDispatch(engine_, ctx_, plans_.get(), tracer_);
  message_matrix_.assign(
      static_cast<std::size_t>(program_.procs),
      std::vector<i64>(static_cast<std::size_t>(program_.procs), 0));
  for (const auto& [name, desc] : program_.arrays) store_.declare(desc);
}

void DistMachine::load(const std::string& name,
                       const std::vector<double>& dense) {
  auto it = program_.arrays.find(name);
  require(it != program_.arrays.end(), "DistMachine::load unknown " + name);
  store_.load(it->second, dense);
}

void DistMachine::run() {
  for (const spmd::Step& step : program_.steps) {
    if (const auto* clause = std::get_if<Clause>(&step))
      run_clause(*clause);
    else
      run_redistribute(std::get<spmd::RedistStep>(step));
  }
}

void fold_step(DistStats& stats, const std::vector<RankCounters>& counters,
               const CostModel& cost) {
  double slowest = 0.0;
  i64 halo_bulk = 0, halo_values = 0;
  for (const RankCounters& c : counters) {
    stats.messages += c.sends;
    stats.bulk_messages += c.bulk_sends;
    stats.local_reads += c.local_reads;
    stats.remote_reads += c.remote_reads;
    stats.iterations += c.iterations;
    stats.tests += c.tests;
    halo_bulk += c.halo_bulk;
    halo_values += c.halo_values;
    stats.halo_reads += c.halo_reads;
    slowest = std::max(slowest, c.time(cost));
  }
  // halo_bulk/halo_values are recorded on both endpoints; the aggregate
  // counts each exchange once.
  stats.halo_messages += halo_bulk / 2;
  stats.halo_values += halo_values / 2;
  stats.sim_time += slowest;
  ++stats.steps;
}

void DistMachine::finish_step(const std::vector<RankCounters>& counters) {
  fold_step(stats_, counters, cost_);
  last_counters_ = counters;
  if (tracer_) {
    // Publish the cost-model clock and the step's aggregate predictors
    // on the control lane: the calibration fit's raw material.
    i64 iters = 0, tests = 0, transfers = 0, bulk = 0;
    for (const RankCounters& c : counters) {
      iters += c.iterations;
      tests += c.tests;
      transfers += c.sends + c.receives;
      bulk += c.bulk_sends + c.bulk_receives;
    }
    tracer_->set_virtual_time(stats_.sim_time);
    tracer_->record(tracer_->control_lane(), obs::EventKind::StepCounters,
                    stats_.steps - 1, iters, tests, transfers, bulk);
  }
}

// Phase 0 of every clause (tagged or scheduled): every referenced array
// with a halo gets its boundary copies refreshed with pre-clause values
// — one bulk exchange per (owner, neighbour) pair. Near-boundary remote
// reads in phase 2 then stay local. halos[name][rank] maps global index
// -> cached value. `snap` is the copy-in snapshot when the clause reads
// its own target (senders must observe pre-clause values), else null.
void DistMachine::refresh_halos(const Clause& clause, const ClausePlan& plan,
                                const Snapshot* snap,
                                std::vector<RankCounters>& counters,
                                HaloTable& halos, i64 step_id) {
  obs::Tracer* tr = tracer_;
  const i64 ctl = tr ? tr->control_lane() : 0;
  const i64 procs = plan.procs();
  const int nrefs = static_cast<int>(clause.refs.size());
  auto read_element = [&](int r, i64 rank, i64 local) -> double {
    const std::string& name =
        clause.refs[static_cast<std::size_t>(r)].array;
    if (snap && name == clause.lhs_array) {
      const auto& buf = (*snap)[static_cast<std::size_t>(rank)];
      if (!in_range(local, 0, static_cast<i64>(buf.size()) - 1))
        throw RuntimeFault("local read out of bounds on " + name);
      return buf[static_cast<std::size_t>(local)];
    }
    return store_.read_local(name, rank, local);
  };
  for (int r = 0; r < nrefs; ++r) {
    const decomp::ArrayDesc& rd = plan.ref_desc(r);
    if (rd.halo() == 0 || halos.count(rd.name())) continue;
    auto& table = halos[rd.name()];
    table.assign(static_cast<std::size_t>(procs), {});
    // Each rank fills its own halo copies; the owner-side halo counters
    // are cross-rank, so they accumulate in per-rank scratch rows and
    // merge after the join (sums are order-independent).
    std::vector<std::vector<i64>> owner_bulk(
        static_cast<std::size_t>(procs),
        std::vector<i64>(static_cast<std::size_t>(procs), 0));
    std::vector<std::vector<i64>> owner_values = owner_bulk;
    VCAL_TRACE(tr, ctl, obs::EventKind::BarrierBegin, step_id, /*phase=*/0);
    dispatch_.for_ranks(procs, [&](i64 p) {
      VCAL_TRACE(tr, p, obs::EventKind::HaloBegin, step_id);
      RankCounters& rc = counters[static_cast<std::size_t>(p)];
      auto& ob = owner_bulk[static_cast<std::size_t>(p)];
      auto& ov = owner_values[static_cast<std::size_t>(p)];
      HaloCopy& copy = table[static_cast<std::size_t>(p)];
      for_each_halo_element(rd, p, [&](i64 g, i64 owner, bool new_bulk) {
        copy[g] = read_element(r, owner, rd.local_linear({g}));
        if (new_bulk) {
          ++ob[static_cast<std::size_t>(owner)];
          ++rc.halo_bulk;
        }
        ++ov[static_cast<std::size_t>(owner)];
        ++rc.halo_values;
      });
      VCAL_TRACE(tr, p, obs::EventKind::HaloEnd, step_id);
    });
    VCAL_TRACE(tr, ctl, obs::EventKind::BarrierEnd, step_id, /*phase=*/0);
    for (i64 p = 0; p < procs; ++p)
      for (i64 o = 0; o < procs; ++o) {
        counters[static_cast<std::size_t>(o)].halo_bulk +=
            owner_bulk[static_cast<std::size_t>(p)]
                      [static_cast<std::size_t>(o)];
        counters[static_cast<std::size_t>(o)].halo_values +=
            owner_values[static_cast<std::size_t>(p)]
                        [static_cast<std::size_t>(o)];
      }
  }
}

void DistMachine::bind_rows(const Clause& clause, const Snapshot* snap,
                            const HaloTable& halos, i64 p,
                            std::vector<const std::vector<double>*>& rows,
                            std::vector<const HaloCopy*>& halo_rows) const {
  rows.resize(clause.refs.size());
  halo_rows.resize(clause.refs.size());
  for (std::size_t r = 0; r < clause.refs.size(); ++r) {
    const std::string& name = clause.refs[r].array;
    rows[r] = snap && name == clause.lhs_array
                  ? &(*snap)[static_cast<std::size_t>(p)]
                  : &store_.local_row(name, p);
    auto hit = halos.find(name);
    halo_rows[r] = hit == halos.end()
                       ? nullptr
                       : &hit->second[static_cast<std::size_t>(p)];
  }
}

void DistMachine::run_clause(const Clause& clause) {
  if (clause.ord == prog::Ordering::Seq)
    throw CodegenError(
        "sequential ('•') clauses are not supported on the distributed "
        "target; the paper leaves DOACROSS orderings out of scope");

  obs::Tracer* tr = tracer_;
  const i64 ctl = tr ? tr->control_lane() : 0;
  const i64 step_id = stats_.steps;  // index of the step now executing

  // Faults armed for this step (stats_.steps counts completed steps, so
  // it is the index of the step now executing). Collected before the
  // schedule dispatch: any armed fault forces the tagged path, so the
  // perturbation machinery always sees real channels.
  std::vector<const FaultPlan*> active_faults;
  for (const FaultPlan& f : faults_)
    if (f.step == stats_.steps && f.kind != FaultPlan::Kind::None)
      active_faults.push_back(&f);
  const bool fault_armed = !active_faults.empty();

  VCAL_TRACE(tr, ctl, obs::EventKind::ClauseBegin, step_id);

  // Plans are pure compile-time data, cached per (clause, epoch);
  // iterative programs reuse them until a redistribution bumps the
  // epoch.
  const std::string* key = dispatch_.key(clause);
  std::optional<ClausePlan> uncached;
  if (!key) uncached.emplace(ClausePlan::build(clause, program_.arrays, opts_));
  const ClausePlan& plan =
      key ? plans_->get(*key, clause, program_.arrays, opts_) : *uncached;

  // Inspector–executor: replay the clause's schedule when one exists at
  // this epoch, else run the tagged path (recording on the second clean
  // execution). Armed faults keep the tagged bytecode path, so the
  // perturbation machinery always sees real channels.
  ClauseRoute route = dispatch_.route(key, clause, plan, fault_armed, step_id);
  if (route.replay) {
    run_clause_scheduled(clause, plan, route);
    return;
  }
  spmd::CommSchedule* rec = route.record.get();
  std::vector<std::vector<i64>> matrix_before;
  if (rec) matrix_before = message_matrix_;

  const i64 procs = plan.procs();

  // Copy-in snapshot when the clause reads its own target: senders and
  // local reads must observe pre-clause values.
  std::optional<Snapshot> snap;
  if (reads_own_target(clause)) snap = store_.clone(clause.lhs_array);

  // In-flight messages: one bulk channel per (src, dst) rank pair.
  std::vector<Channel> channels(
      static_cast<std::size_t>(procs * procs));
  std::vector<RankCounters> counters(static_cast<std::size_t>(procs));
  std::vector<PathCounters> pcs(static_cast<std::size_t>(procs));

  // ---- Phase 0: halo refresh for overlapped decompositions -----------
  HaloTable halos;
  refresh_halos(clause, plan, snap ? &*snap : nullptr, counters, halos,
                step_id);

  // Each rank's view of the step: its pre-clause rows and halo copies,
  // resolved once so the phase loops read through plain pointers.
  std::vector<RankStep> ranks(static_cast<std::size_t>(procs));
  for (i64 p = 0; p < procs; ++p) {
    RankStep& s = ranks[static_cast<std::size_t>(p)];
    s = RankStep{.clause = &clause, .plan = &plan, .rank = p,
                 .step_id = step_id,
                 .counters = &counters[static_cast<std::size_t>(p)],
                 .paths = &pcs[static_cast<std::size_t>(p)], .tracer = tr,
                 .lane = p, .recorder = rec};
    bind_rows(clause, snap ? &*snap : nullptr, halos, p, s.rows, s.halos);
  }
  auto channel = [&](i64 src, i64 dst) -> Channel& {
    return channels[static_cast<std::size_t>(src * procs + dst)];
  };

  // ---- Phase 1: non-blocking sends (Reside_p \ Modify_p) -------------
  VCAL_TRACE(tr, ctl, obs::EventKind::BarrierBegin, step_id, /*phase=*/1);
  dispatch_.for_ranks(procs, [&](i64 p) {
    send_phase(ranks[static_cast<std::size_t>(p)],
               ChannelRow{&channel(p, 0), 1},
               message_matrix_[static_cast<std::size_t>(p)]);
  });
  VCAL_TRACE(tr, ctl, obs::EventKind::BarrierEnd, step_id, /*phase=*/1);
  // The virtual network misbehaves here, between send completion and the
  // first receive: armed message faults perturb the packed channels.
  for (const FaultPlan* f : active_faults)
    if (in_range(f->src, 0, procs - 1) && in_range(f->dst, 0, procs - 1) &&
        apply_message_fault(*f, channel(f->src, f->dst)))
      ++faults_applied_;

  // ---- Phase 2: receive and update (Modify_p) -------------------------
  auto phase2 = [&](i64 p) {
    update_phase(ranks[static_cast<std::size_t>(p)],
                 ChannelRow{&channel(0, p), procs},
                 store_.local_row_mut(clause.lhs_array, p), route.jit);
  };

  // A stalled rank sits out the scheduled receive/update rounds while
  // every other rank completes; its sends are already in flight, so the
  // step's outcome must be unchanged once the stall releases.
  const FaultPlan* stall = nullptr;
  for (const FaultPlan* f : active_faults)
    if (f->kind == FaultPlan::Kind::StallRank &&
        in_range(f->rank, 0, procs - 1))
      stall = f;
  VCAL_TRACE(tr, ctl, obs::EventKind::BarrierBegin, step_id, /*phase=*/2);
  if (stall) {
    VCAL_TRACE(tr, stall->rank, obs::EventKind::Stall, step_id,
               std::max<i64>(stall->rounds, 0));
    dispatch_.for_ranks(procs, [&](i64 p) {
      if (p != stall->rank) phase2(p);
    });
    stall_rounds_ += std::max<i64>(stall->rounds, 0);
    ++faults_applied_;
    phase2(stall->rank);  // the stall releases
  } else {
    dispatch_.for_ranks(procs, phase2);
  }
  VCAL_TRACE(tr, ctl, obs::EventKind::BarrierEnd, step_id, /*phase=*/2);

  // Every send must have been consumed — the message-pairing invariant.
  for (i64 p = 0; p < procs; ++p)
    check_delivered(p, ChannelRow{&channel(0, p), procs}, procs);
  if (rec) {
    // Freeze each source rank's pack program from the channel metadata
    // (post-sort, post-dedup order — exactly what replay reproduces) and
    // capture the clean step's counters and message-matrix increments;
    // finish() publishes the schedule into the plan-cache entry.
    for (i64 src = 0; src < procs; ++src) {
      spmd::SendPlan& sp = rec->send[static_cast<std::size_t>(src)];
      sp.dst_begin.assign(static_cast<std::size_t>(procs) + 1, 0);
      for (i64 dst = 0; dst < procs; ++dst) {
        sp.dst_begin[static_cast<std::size_t>(dst)] =
            static_cast<i64>(sp.ops.size());
        for (const auto& [ref, off] : channel(src, dst).meta)
          sp.ops.push_back(spmd::PackOp{ref, off});
      }
      sp.dst_begin[static_cast<std::size_t>(procs)] =
          static_cast<i64>(sp.ops.size());
    }
    rec->counters = counters;
    for (i64 s = 0; s < procs; ++s)
      for (i64 d = 0; d < procs; ++d)
        rec->matrix_delta[static_cast<std::size_t>(s * procs + d)] =
            message_matrix_[static_cast<std::size_t>(s)]
                           [static_cast<std::size_t>(d)] -
            matrix_before[static_cast<std::size_t>(s)]
                         [static_cast<std::size_t>(d)];
  }
  dispatch_.finish(route, pcs, step_id);
  finish_step(counters);
  VCAL_TRACE(tr, ctl, obs::EventKind::ClauseEnd, step_id);
}

// Executor half of the inspector–executor split. The schedule froze the
// step's communication pattern: each source rank packs values
// positionally into the reused (src, dst) buffers in the exact order the
// tagged pack() produced, and each destination satisfies every operand
// by recorded offset — no tags, no sorting, no hashing, so per-step
// receive cost is O(m) instead of O(m log m). Guards and right-hand
// sides are evaluated live (only the pattern is compiled, never values);
// counters and the message matrix replay verbatim from the recording
// step, keeping every observable statistic bit-identical to the tagged
// path.
void DistMachine::run_clause_scheduled(const Clause& clause,
                                       const ClausePlan& plan,
                                       ClauseRoute& route) {
  obs::Tracer* tr = tracer_;
  const i64 ctl = tr ? tr->control_lane() : 0;
  const i64 step_id = stats_.steps;
  const spmd::CommSchedule& sched = *route.replay;
  const i64 procs = sched.procs;
  const auto np = static_cast<std::size_t>(procs);

  // Copy-in snapshot when the clause reads its own target: packing and
  // local gathers must observe pre-clause values.
  std::optional<Snapshot> snap;
  if (reads_own_target(clause)) snap = store_.clone(clause.lhs_array);

  // Persistent scratch: sized on the first scheduled step, reused by
  // every later one (the steady state allocates nothing).
  if (sched_counters_.size() != np) {
    sched_counters_.assign(np, RankCounters{});
    sched_pcs_.assign(np, PathCounters{});
    replay_steps_.resize(np);
    replay_scratch_.resize(np);
  }
  for (RankCounters& c : sched_counters_) c = RankCounters{};
  for (PathCounters& c : sched_pcs_) c = PathCounters{};

  // Phase 0: live halo refresh (halo *values* change step to step; the
  // counters it accumulates are deterministic and replay verbatim below,
  // so the scratch tallies are discarded).
  HaloTable halos;
  refresh_halos(clause, plan, snap ? &*snap : nullptr, sched_counters_,
                halos, step_id);

  // Double-buffered reused channel storage: one contiguous value vector
  // per (src, dst) pair, parity-flipped per scheduled step; clear()
  // keeps capacity.
  std::vector<std::vector<double>>& bufs = comm_bufs_[comm_parity_];
  comm_parity_ ^= 1;
  if (static_cast<i64>(bufs.size()) != procs * procs)
    bufs.resize(static_cast<std::size_t>(procs * procs));

  // ---- Executor phase 1: positional pack -----------------------------
  VCAL_TRACE(tr, ctl, obs::EventKind::BarrierBegin, step_id, /*phase=*/1);
  dispatch_.for_ranks(procs, [&](i64 p) {
    VCAL_TRACE(tr, p, obs::EventKind::PackBegin, step_id);
    RankStep& rs = replay_steps_[static_cast<std::size_t>(p)];
    rs.clause = &clause;
    rs.plan = &plan;
    rs.rank = p;
    rs.step_id = step_id;
    rs.paths = &sched_pcs_[static_cast<std::size_t>(p)];
    rs.tracer = tr;
    rs.lane = p;
    bind_rows(clause, snap ? &*snap : nullptr, halos, p, rs.rows, rs.halos);
    const spmd::SendPlan& sp = sched.send[static_cast<std::size_t>(p)];
    i64 packed = 0;
    for (i64 dst = 0; dst < procs; ++dst) {
      std::vector<double>& buf =
          bufs[static_cast<std::size_t>(p * procs + dst)];
      buf.clear();
      const i64 b0 = sp.dst_begin[static_cast<std::size_t>(dst)];
      const i64 b1 = sp.dst_begin[static_cast<std::size_t>(dst) + 1];
      for (i64 i = b0; i < b1; ++i) {
        const spmd::PackOp& op = sp.ops[static_cast<std::size_t>(i)];
        buf.push_back((*rs.rows[static_cast<std::size_t>(op.ref)])
                          [static_cast<std::size_t>(op.offset)]);
      }
      if (b1 > b0)
        VCAL_TRACE(tr, p, obs::EventKind::MsgSend, step_id, dst, b1 - b0);
      packed += b1 - b0;
    }
    VCAL_TRACE(tr, p, obs::EventKind::PackEnd, step_id, packed);
  });
  VCAL_TRACE(tr, ctl, obs::EventKind::BarrierEnd, step_id, /*phase=*/1);
  if (tr)
    for (i64 src = 0; src < procs; ++src)
      for (i64 dst = 0; dst < procs; ++dst) {
        const auto& buf = bufs[static_cast<std::size_t>(src * procs + dst)];
        if (!buf.empty())
          tr->record(dst, obs::EventKind::MsgRecv, step_id, src,
                     static_cast<i64>(buf.size()));
      }

  // ---- Executor phase 2: gather by recorded offset, live guard/RHS ---
  VCAL_TRACE(tr, ctl, obs::EventKind::BarrierBegin, step_id, /*phase=*/2);
  dispatch_.for_ranks(procs, [&](i64 p) {
    const auto up = static_cast<std::size_t>(p);
    replay_phase(replay_steps_[up], sched.recv[up], &bufs[up], procs,
                 store_.local_row_mut(clause.lhs_array, p), route.jit,
                 route.jit_replay, replay_scratch_[up]);
  });
  VCAL_TRACE(tr, ctl, obs::EventKind::BarrierEnd, step_id, /*phase=*/2);

  // Accounting: counters and the message matrix replay verbatim from the
  // recording step (bit-identical stats, last_step_counters, matrix, and
  // sim_time).
  dispatch_.finish(route, sched_pcs_, step_id);
  for (i64 s = 0; s < procs; ++s)
    for (i64 d = 0; d < procs; ++d)
      message_matrix_[static_cast<std::size_t>(s)]
                     [static_cast<std::size_t>(d)] +=
          sched.matrix_delta[static_cast<std::size_t>(s * procs + d)];
  finish_step(sched.counters);
  VCAL_TRACE(tr, ctl, obs::EventKind::ClauseEnd, step_id);
}

void DistMachine::run_redistribute(const spmd::RedistStep& step) {
  obs::Tracer* tr = tracer_;
  const i64 ctl = tr ? tr->control_lane() : 0;
  const i64 step_id = stats_.steps;
  VCAL_TRACE(tr, ctl, obs::EventKind::RedistBegin, step_id);
  const decomp::ArrayDesc& old_desc = program_.arrays.at(step.array);
  decomp::RedistPlan plan =
      decomp::plan_redistribution(old_desc, step.new_desc);

  // Allocate target buffers, copy stationary elements, apply moves.
  std::vector<std::vector<double>> fresh(
      static_cast<std::size_t>(program_.procs));
  for (i64 p = 0; p < program_.procs; ++p)
    fresh[static_cast<std::size_t>(p)].assign(
        static_cast<std::size_t>(step.new_desc.local_capacity(p)), 0.0);

  std::vector<RankCounters> counters(
      static_cast<std::size_t>(program_.procs));
  std::vector<std::vector<i64>> pair_counts(
      static_cast<std::size_t>(program_.procs),
      std::vector<i64>(static_cast<std::size_t>(program_.procs), 0));
  decomp::for_each_index(old_desc, [&](const std::vector<i64>& idx) {
    i64 src = old_desc.owner(idx);
    i64 dst = step.new_desc.owner(idx);
    double v = store_.read_local(step.array, src,
                                 old_desc.local_linear(idx));
    fresh[static_cast<std::size_t>(dst)][static_cast<std::size_t>(
        step.new_desc.local_linear(idx))] = v;
    ++counters[static_cast<std::size_t>(src)].iterations;
    if (src != dst) {
      ++counters[static_cast<std::size_t>(src)].sends;
      ++counters[static_cast<std::size_t>(dst)].receives;
      ++pair_counts[static_cast<std::size_t>(src)]
                   [static_cast<std::size_t>(dst)];
      ++message_matrix_[static_cast<std::size_t>(src)]
                       [static_cast<std::size_t>(dst)];
    }
  });
  // The mover also aggregates: all elements migrating between one rank
  // pair travel as one bulk message.
  for (i64 src = 0; src < program_.procs; ++src)
    for (i64 dst = 0; dst < program_.procs; ++dst)
      if (pair_counts[static_cast<std::size_t>(src)]
                     [static_cast<std::size_t>(dst)] > 0) {
        ++counters[static_cast<std::size_t>(src)].bulk_sends;
        ++counters[static_cast<std::size_t>(dst)].bulk_receives;
        VCAL_TRACE(tr, src, obs::EventKind::MsgSend, step_id, dst,
                   pair_counts[static_cast<std::size_t>(src)]
                              [static_cast<std::size_t>(dst)]);
        VCAL_TRACE(tr, dst, obs::EventKind::MsgRecv, step_id, src,
                   pair_counts[static_cast<std::size_t>(src)]
                              [static_cast<std::size_t>(dst)]);
      }
  require(static_cast<i64>(plan.moves.size()) ==
              std::accumulate(counters.begin(), counters.end(), i64{0},
                              [](i64 acc, const RankCounters& c) {
                                return acc + c.sends;
                              }),
          "redistribution plan and execution disagree on message count");
  stats_.redist_messages += static_cast<i64>(plan.moves.size());

  store_.replace(step.array, std::move(fresh));
  program_.arrays.insert_or_assign(step.array, step.new_desc);
  // Cached clause plans baked the old layout into their owner
  // arithmetic: move on to the next epoch's plans (the old epoch's stay
  // cached for the next machine that leases this cache).
  plans_->bump_epoch();
  VCAL_TRACE(tr, ctl, obs::EventKind::RedistEpoch, step_id,
             static_cast<i64>(plans_->epoch()));
  finish_step(counters);
  VCAL_TRACE(tr, ctl, obs::EventKind::RedistEnd, step_id);
}

std::string DistMachine::message_matrix_str() const {
  std::string out = "messages src\\dst";
  for (i64 d = 0; d < program_.procs; ++d) out += pad_left(cat(d), 8);
  out += "\n";
  for (i64 s = 0; s < program_.procs; ++s) {
    out += pad_left(cat(s), 16);
    for (i64 d = 0; d < program_.procs; ++d)
      out += pad_left(
          cat(message_matrix_[static_cast<std::size_t>(s)]
                             [static_cast<std::size_t>(d)]),
          8);
    out += "\n";
  }
  return out;
}

std::vector<double> DistMachine::gather(const std::string& name) const {
  auto it = program_.arrays.find(name);
  require(it != program_.arrays.end(),
          "DistMachine::gather unknown " + name);
  return store_.gather(it->second);
}

}  // namespace vcal::rt
