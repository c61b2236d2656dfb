#include "rt/rank_step.hpp"

#include <algorithm>

#include "spmd/comm_schedule.hpp"
#include "spmd/jit.hpp"
#include "spmd/kernel.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace vcal::rt {

namespace {

double read_row(const std::vector<double>& row, i64 local,
                const prog::Clause& clause, int r) {
  if (!in_range(local, 0, static_cast<i64>(row.size()) - 1))
    throw RuntimeFault("local read out of bounds on " +
                       clause.refs[static_cast<std::size_t>(r)].array);
  return row[static_cast<std::size_t>(local)];
}

}  // namespace

bool reads_own_target(const prog::Clause& clause) {
  for (const prog::ArrayRef& r : clause.refs)
    if (r.array == clause.lhs_array) return true;
  return false;
}

// Rank p writes only its own channel row, counter slot, and
// message-matrix row, so ranks run concurrently without locks.
void send_phase(const RankStep& s, ChannelRow out,
                std::vector<i64>& matrix_row) {
  const prog::Clause& clause = *s.clause;
  const spmd::ClausePlan& plan = *s.plan;
  const spmd::ClauseKernel& kern = plan.kernel();
  const bool kaff = kern.affine();
  const decomp::ArrayDesc& lhs = plan.lhs_desc();
  const i64 p = s.rank;
  const i64 procs = plan.procs();
  const int nrefs = static_cast<int>(clause.refs.size());
  const int inner = static_cast<int>(clause.loops.size()) - 1;
  obs::Tracer* tr = s.tracer;
  spmd::CommSchedule* rec = s.recorder;
  RankCounters& rc = *s.counters;
  PathCounters& pc = *s.paths;

  VCAL_TRACE(tr, s.lane, obs::EventKind::SendBegin, s.step_id);
  std::vector<i64> ridx, out_idx;
  spmd::ArrayAddr lhs_addr = spmd::make_local_addr(lhs, p);
  std::vector<i64> g0r, dgr;
  std::vector<i64> g0l(static_cast<std::size_t>(lhs.ndims()));
  std::vector<i64> dgl(static_cast<std::size_t>(lhs.ndims()));
  for (int r = 0; r < nrefs; ++r) {
    if (!plan.ref_needs_comm(r)) continue;  // replicated: always local
    gen::EnumStats es;
    const decomp::ArrayDesc& rd = plan.ref_desc(r);
    const std::vector<double>& row = *s.rows[static_cast<std::size_t>(r)];
    const spmd::IterationSpace& space = plan.reside_space(p, r);
    spmd::ArrayAddr ref_addr = spmd::make_local_addr(rd, p);
    g0r.resize(static_cast<std::size_t>(rd.ndims()));
    dgr.resize(static_cast<std::size_t>(rd.ndims()));
    // A receiver whose halo covers the element reads its halo copy.
    auto halo_covers = [&](i64 dst) {
      return rd.halo() > 0 && rd.in_halo(dst, ridx);
    };
    // Per-element send decision.
    auto emit = [&](const std::vector<i64>& vals) {
      plan.elem_ref_index(r, vals, ridx);
      if (!rd.in_bounds(ridx))
        throw RuntimeFault("read out of bounds on " +
                           clause.refs[static_cast<std::size_t>(r)].array);
      i64 local = rd.local_linear(ridx);
      double value = read_row(row, local, clause, r);
      i64 tag = plan.elem_tag(r, vals);
      auto send = [&](i64 dst) {
        Channel& ch = out[dst];
        ch.push(tag, value);
        if (rec) ch.meta.emplace_back(static_cast<std::int32_t>(r), local);
        ++rc.sends;
        ++matrix_row[static_cast<std::size_t>(dst)];
      };
      if (lhs.is_replicated()) {
        // Every rank computes every index: broadcast to the others.
        for (i64 dst = 0; dst < procs; ++dst)
          if (dst != p && !halo_covers(dst)) send(dst);
        return;
      }
      plan.elem_lhs_index(vals, out_idx);
      if (!lhs.in_bounds(out_idx)) return;  // nobody computes this
      i64 dst = lhs.owner(out_idx);
      if (dst == p) return;  // Modify ∩ Reside: local update later
      if (!halo_covers(dst)) send(dst);
    };
    space.for_each_run(
        [&](std::vector<i64>& vals, const gen::Piece& run) {
          // Elements whose LHS target this rank itself owns send
          // nothing (Modify ∩ Reside); when a strided-run proof (affine
          // clauses only) covers both sides — ref in bounds, stored
          // here, and LHS in bounds, owned here — the whole subrange is
          // skipped without touching it. Run edges and unprovable runs
          // go element at a time.
          i64 k0 = 0, k1 = -1;
          if (kaff && !lhs.is_replicated()) {
            spmd::StridedRun rr, lr;
            spmd::fill_progression(kern.ref_subs(r), vals, inner, run,
                                   g0r.data(), dgr.data());
            bool ok = spmd::strided_run(ref_addr, g0r.data(), dgr.data(),
                                        run.count, &rr);
            if (ok) {
              spmd::fill_progression(kern.lhs_subs(), vals, inner, run,
                                     g0l.data(), dgl.data());
              ok = spmd::strided_run(lhs_addr, g0l.data(), dgl.data(),
                                     run.count, &lr);
            }
            if (ok) {
              k0 = std::max(rr.k_lo, lr.k_lo);
              k1 = std::min(rr.k_hi, lr.k_hi);
            }
            if (k1 < k0) {
              k0 = 0;
              k1 = -1;
            }
          }
          for (i64 k = 0; k < k0; ++k) {
            vals[static_cast<std::size_t>(inner)] = run.start + k * run.stride;
            emit(vals);
          }
          for (i64 k = k1 + 1; k < run.count; ++k) {
            vals[static_cast<std::size_t>(inner)] = run.start + k * run.stride;
            emit(vals);
          }
          const i64 skipped = k1 >= k0 ? k1 - k0 + 1 : 0;
          pc.fused += skipped;
          (kaff ? pc.generic : pc.interp) += run.count - skipped;
        },
        &es);
    rc.iterations += es.loop_iters;
    rc.tests += es.tests;
  }
  // One sorted bulk message per destination this rank sends to.
  for (i64 dst = 0; dst < procs; ++dst) {
    Channel& ch = out[dst];
    if (ch.msgs.empty()) continue;
    ch.pack();
    ++rc.bulk_sends;
    VCAL_TRACE(tr, s.lane, obs::EventKind::MsgSend, s.step_id, dst,
               static_cast<i64>(ch.msgs.size()));
  }
  VCAL_TRACE(tr, s.lane, obs::EventKind::SendEnd, s.step_id);
}

// Rank p consumes only channels destined to it and writes only its own
// LHS row; every other read is a pre-clause value.
void update_phase(const RankStep& s, ChannelRow in,
                  std::vector<double>& out_row, const spmd::JitFns* jit) {
  const prog::Clause& clause = *s.clause;
  const spmd::ClausePlan& plan = *s.plan;
  const spmd::ClauseKernel& kern = plan.kernel();
  const bool kaff = kern.affine();
  const decomp::ArrayDesc& lhs = plan.lhs_desc();
  const i64 p = s.rank;
  const i64 procs = plan.procs();
  const int nrefs = static_cast<int>(clause.refs.size());
  const int inner = static_cast<int>(clause.loops.size()) - 1;
  obs::Tracer* tr = s.tracer;
  spmd::CommSchedule* rec = s.recorder;
  RankCounters& rc = *s.counters;
  PathCounters& pc = *s.paths;
  const auto& rows = s.rows;

  // Receiver-side bulk accounting (after any fault: a drop can empty a
  // channel).
  for (i64 src = 0; src < procs; ++src)
    if (!in[src].msgs.empty()) {
      ++rc.bulk_receives;
      VCAL_TRACE(tr, s.lane, obs::EventKind::MsgRecv, s.step_id, src,
                 static_cast<i64>(in[src].msgs.size()));
    }

  VCAL_TRACE(tr, s.lane, obs::EventKind::ClauseBegin, s.step_id);
  std::vector<double> ref_values(clause.refs.size());
  std::vector<i64> ridx, out_idx;
  std::vector<double> stack(static_cast<std::size_t>(kern.stack_need()));
  const spmd::CompiledGuard* guard = kern.guard();
  const spmd::CompiledExpr& rhs = kern.rhs();
  spmd::ArrayAddr lhs_addr = spmd::make_local_addr(lhs, p);
  std::vector<i64> g0l(static_cast<std::size_t>(lhs.ndims()));
  std::vector<i64> dgl(static_cast<std::size_t>(lhs.ndims()));
  const auto nr = static_cast<std::size_t>(nrefs);
  std::vector<spmd::ArrayAddr> raddrs;
  std::vector<std::vector<i64>> g0s(nr), dgs(nr);
  std::vector<const double*> row_ptrs(nr);
  for (std::size_t r = 0; r < nr; ++r) {
    const decomp::ArrayDesc& rd = plan.ref_desc(static_cast<int>(r));
    raddrs.push_back(spmd::make_local_addr(rd, p));
    g0s[r].resize(static_cast<std::size_t>(rd.ndims()));
    dgs[r].resize(static_cast<std::size_t>(rd.ndims()));
    row_ptrs[r] = rows[r]->data();
  }
  std::vector<spmd::StridedRun> rruns(nr);
  std::vector<i64> raddr(nr), rstride(nr);

  // Element-at-a-time body.
  auto element = [&](const std::vector<i64>& vals) {
    plan.elem_lhs_index(vals, out_idx);
    if (!lhs.in_bounds(out_idx))
      throw RuntimeFault("write out of bounds on " + clause.lhs_array);
    for (int r = 0; r < nrefs; ++r) {
      const auto ur = static_cast<std::size_t>(r);
      const decomp::ArrayDesc& rd = plan.ref_desc(r);
      plan.elem_ref_index(r, vals, ridx);
      if (!rd.in_bounds(ridx))
        throw RuntimeFault("read out of bounds on " + clause.refs[ur].array);
      const i64 src = rd.is_replicated() ? p : rd.owner(ridx);
      if (src == p) {
        i64 local = rd.local_linear(ridx);
        ref_values[ur] = read_row(*rows[ur], local, clause, r);
        ++rc.local_reads;
        if (rec) rec->note_local(p, r, local);
        continue;
      }
      if (const HaloCopy* halo = s.halos[ur]; halo && rd.in_halo(p, ridx)) {
        // Overlapped decomposition: the value is already cached in this
        // rank's halo region.
        auto hit = halo->find(ridx[0]);
        require(hit != halo->end(), "halo cache missing a covered element");
        ref_values[ur] = hit->second;
        ++rc.halo_reads;
        if (rec) rec->note_halo(p, r, ridx[0]);
        continue;
      }
      // Blocking receive from the in-flight bulk message.
      i64 tag = plan.elem_tag(r, vals);
      Channel& ch = in[src];
      const double* value = ch.consume(tag);
      if (value == nullptr) {
        std::string elem = clause.refs[ur].array + "[";
        for (std::size_t d = 0; d < ridx.size(); ++d)
          elem += cat(d ? ", " : "", ridx[d]);
        elem += "]";
        std::string diag =
            cat("deadlock: rank ", p, " blocked on pending receive of ", elem,
                " (tag ", tag, ") from rank ", src,
                ", which never sent it — inconsistent schedules or a "
                "lost message");
        if (tr) {
          diag += cat("; last traced event on rank ", p, ": ",
                      tr->last_event_str(s.lane));
          tr->record(s.lane, obs::EventKind::RecvWait, s.step_id, src, tag);
        }
        throw DeadlockError(diag);
      }
      ref_values[ur] = *value;
      ++rc.receives;
      ++rc.remote_reads;
      if (rec) rec->note_remote(p, r, src, static_cast<i64>(ch.last_k));
    }
    if (rec) {
      // Record before the guard: replay evaluates guards live, so
      // guarded-off elements must still carry their operand offsets. -1
      // encodes "the tagged path would fault on an in-range-guarded
      // write".
      i64 rslot = lhs.local_linear(out_idx);
      if (!in_range(rslot, 0, static_cast<i64>(out_row.size()) - 1))
        rslot = -1;
      rec->note_element(p, rslot, vals.data());
    }
    if (guard && !guard->holds(ref_values.data(), vals.data(), stack.data()))
      return;
    double value = rhs.eval(ref_values.data(), vals.data(), stack.data());
    i64 slot = lhs.local_linear(out_idx);
    if (!in_range(slot, 0, static_cast<i64>(out_row.size()) - 1))
      throw RuntimeFault("local write out of bounds on " + clause.lhs_array);
    out_row[static_cast<std::size_t>(slot)] = value;
  };

  gen::EnumStats es;
  const spmd::IterationSpace& space = plan.modify_space(p);
  space.for_each_run(
      [&](std::vector<i64>& vals, const gen::Piece& run) {
        spmd::StridedRun lrun;
        if (kaff)
          spmd::fill_progression(kern.lhs_subs(), vals, inner, run,
                                 g0l.data(), dgl.data());
        bool fuse = kaff && spmd::strided_run(lhs_addr, g0l.data(),
                                              dgl.data(), run.count, &lrun);
        i64 k0 = lrun.k_lo, k1 = lrun.k_hi;
        for (int r = 0; fuse && r < nrefs; ++r) {
          auto ur = static_cast<std::size_t>(r);
          spmd::fill_progression(kern.ref_subs(r), vals, inner, run,
                                 g0s[ur].data(), dgs[ur].data());
          fuse = spmd::strided_run(raddrs[ur], g0s[ur].data(), dgs[ur].data(),
                                   run.count, &rruns[ur]);
          if (fuse) {
            k0 = std::max(k0, rruns[ur].k_lo);
            k1 = std::min(k1, rruns[ur].k_hi);
          }
        }
        fuse = fuse && k0 <= k1;
        if (!fuse) {
          for (i64 k = 0; k < run.count; ++k) {
            vals[static_cast<std::size_t>(inner)] = run.start + k * run.stride;
            element(vals);
          }
          (kaff ? pc.generic : pc.interp) += run.count;
          return;
        }
        for (i64 k = 0; k < k0; ++k) {
          vals[static_cast<std::size_t>(inner)] = run.start + k * run.stride;
          element(vals);
        }
        // Fused strided loop: every element of [k0, k1] is proven in
        // bounds and resident on this rank for the LHS and every ref, so
        // the body carries no checks, no calls through the plan, and no
        // allocations — just strided row reads, the bytecode evaluator on
        // a preallocated stack, and a strided row write.
        i64 la = lrun.addr0 + (k0 - lrun.k_lo) * lrun.stride;
        for (int r = 0; r < nrefs; ++r) {
          auto ur = static_cast<std::size_t>(r);
          raddr[ur] =
              rruns[ur].addr0 + (k0 - rruns[ur].k_lo) * rruns[ur].stride;
        }
        i64 v = run.start + k0 * run.stride;
        const i64 fused_n = k1 - k0 + 1;
        if (jit) {
          // Addressing arrives as arguments; the guard and RHS are
          // compiled in.
          for (int r = 0; r < nrefs; ++r)
            rstride[static_cast<std::size_t>(r)] =
                rruns[static_cast<std::size_t>(r)].stride;
          jit->fused(out_row.data(), la, lrun.stride, row_ptrs.data(),
                     raddr.data(), rstride.data(), vals.data(), v, run.stride,
                     fused_n);
          pc.jit += fused_n;
        } else {
          for (i64 k = 0; k < fused_n; ++k) {
            vals[static_cast<std::size_t>(inner)] = v;
            if (rec) {
              // Fused elements are proven local and in bounds for the LHS
              // and every ref; record their resolved offsets.
              rec->note_element(p, la, vals.data());
              for (int r = 0; r < nrefs; ++r)
                rec->note_local(p, r, raddr[static_cast<std::size_t>(r)]);
            }
            for (int r = 0; r < nrefs; ++r) {
              auto ur = static_cast<std::size_t>(r);
              ref_values[ur] = (*rows[ur])[static_cast<std::size_t>(raddr[ur])];
              raddr[ur] += rruns[ur].stride;
            }
            if (!guard ||
                guard->holds(ref_values.data(), vals.data(), stack.data()))
              out_row[static_cast<std::size_t>(la)] =
                  rhs.eval(ref_values.data(), vals.data(), stack.data());
            la += lrun.stride;
            v += run.stride;
          }
          pc.fused += fused_n;
        }
        rc.local_reads += fused_n * nrefs;
        for (i64 k = k1 + 1; k < run.count; ++k) {
          vals[static_cast<std::size_t>(inner)] = run.start + k * run.stride;
          element(vals);
        }
        pc.generic += run.count - fused_n;
      },
      &es);
  rc.iterations += es.loop_iters;
  rc.tests += es.tests;
  VCAL_TRACE(tr, s.lane, obs::EventKind::ClauseEnd, s.step_id);
  if (tr)
    tr->record(s.lane, obs::EventKind::KernelPath, s.step_id, pc.fused,
               pc.generic, pc.interp, pc.sched);
}

void check_delivered(i64 p, ChannelRow in, i64 procs) {
  i64 leftover = 0;
  for (i64 src = 0; src < procs; ++src) leftover += in[src].undelivered();
  if (leftover > 0)
    throw RuntimeFault(cat("rank ", p, " finished the clause with ", leftover,
                           " undelivered messages"));
}

bool apply_message_fault(const FaultPlan& fault, Channel& ch) {
  switch (fault.kind) {
    case FaultPlan::Kind::DropMessage: return ch.drop(fault.index);
    case FaultPlan::Kind::DuplicateMessage: return ch.duplicate(fault.index);
    case FaultPlan::Kind::ReorderChannel: return ch.reorder();
    default: return false;
  }
}

}  // namespace vcal::rt
