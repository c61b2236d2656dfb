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

// The receive of ref r's element ridx (tag, from rank src) found no
// message. Kept out of line: the element loops stay small.
[[noreturn, gnu::cold, gnu::noinline]] void throw_deadlock(
    const RankStep& s, int r, const std::vector<i64>& ridx, i64 tag,
    i64 src) {
  const i64 p = s.rank;
  std::string elem = s.clause->refs[static_cast<std::size_t>(r)].array + "[";
  for (std::size_t d = 0; d < ridx.size(); ++d)
    elem += cat(d ? ", " : "", ridx[d]);
  elem += "]";
  std::string diag =
      cat("deadlock: rank ", p, " blocked on pending receive of ", elem,
          " (tag ", tag, ") from rank ", src,
          ", which never sent it — inconsistent schedules or a "
          "lost message");
  if (obs::Tracer* tr = s.tracer) {
    diag += cat("; last traced event on rank ", p, ": ",
                tr->last_event_str(s.lane));
    tr->record(s.lane, obs::EventKind::RecvWait, s.step_id, src, tag);
  }
  throw DeadlockError(diag);
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
  // Offsets into this rank's rows: local rows on a distributed machine,
  // whole dense arrays in shared memory.
  auto addr_of = [&](const decomp::ArrayDesc& d) {
    return s.dense ? spmd::make_dense_addr(d) : spmd::make_local_addr(d, p);
  };
  auto offset_of = [&](const decomp::ArrayDesc& d,
                       const std::vector<i64>& idx) {
    return s.dense ? d.dense_linear(idx) : d.local_linear(idx);
  };
  spmd::ArrayAddr lhs_addr = addr_of(lhs);
  std::vector<i64> g0l(static_cast<std::size_t>(lhs.ndims()));
  std::vector<i64> dgl(static_cast<std::size_t>(lhs.ndims()));
  const auto nr = static_cast<std::size_t>(nrefs);
  std::vector<spmd::ArrayAddr> raddrs;
  std::vector<std::vector<i64>> g0s(nr), dgs(nr);
  std::vector<const double*> row_ptrs(nr);
  for (std::size_t r = 0; r < nr; ++r) {
    const decomp::ArrayDesc& rd = plan.ref_desc(static_cast<int>(r));
    raddrs.push_back(addr_of(rd));
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
      const i64 src = s.dense || rd.is_replicated() ? p : rd.owner(ridx);
      if (src == p) {
        i64 local = offset_of(rd, ridx);
        ref_values[ur] = read_row(*rows[ur], local, clause, r);
        ++rc.local_reads;
        if (rec) rec->note_local(p, local);
        continue;
      }
      if (const HaloCopy* halo = s.halos[ur]; halo && rd.in_halo(p, ridx)) {
        // Overlapped decomposition: the value is already cached in this
        // rank's halo region.
        auto hit = halo->find(ridx[0]);
        require(hit != halo->end(), "halo cache missing a covered element");
        ref_values[ur] = hit->second;
        ++rc.halo_reads;
        if (rec) rec->note_halo(p, ridx[0]);
        continue;
      }
      // Blocking receive from the in-flight bulk message.
      i64 tag = plan.elem_tag(r, vals);
      Channel& ch = in[src];
      const double* value = ch.consume(tag);
      if (value == nullptr) throw_deadlock(s, r, ridx, tag, src);
      ref_values[ur] = *value;
      ++rc.receives;
      ++rc.remote_reads;
      if (rec) rec->note_remote(p, src, static_cast<i64>(ch.last_k));
    }
    if (rec) {
      // Record before the guard: replay evaluates guards live, so
      // guarded-off elements must still carry their operand offsets. -1
      // encodes "the tagged path would fault on an in-range-guarded
      // write".
      i64 rslot = offset_of(lhs, out_idx);
      if (!in_range(rslot, 0, static_cast<i64>(out_row.size()) - 1))
        rslot = -1;
      rec->note_element(p, rslot, vals.data());
    }
    if (guard && !guard->holds(ref_values.data(), vals.data(), stack.data()))
      return;
    double value = rhs.eval(ref_values.data(), vals.data(), stack.data());
    i64 slot = offset_of(lhs, out_idx);
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
                rec->note_local(p, raddr[static_cast<std::size_t>(r)]);
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

// Rank p reads only pre-clause rows, its halo copies and the buffers
// packed for it, and writes only its own LHS row.
void replay_phase(const RankStep& s, const spmd::RecvPlan& rv,
                  const std::vector<double>* packed, i64 packed_stride,
                  std::vector<double>& out_row, const spmd::JitFns* jit,
                  const spmd::JitReplayProg* prog, ReplayScratch& scratch) {
  const prog::Clause& clause = *s.clause;
  const spmd::ClauseKernel& kern = s.plan->kernel();
  const int nrefs = static_cast<int>(clause.refs.size());
  const int nloops = static_cast<int>(clause.loops.size());
  const i64 sources = packed ? s.plan->procs() : 0;
  PathCounters& pc = *s.paths;
  VCAL_TRACE(s.tracer, s.lane, obs::EventKind::GatherBegin, s.step_id);

  // Operand bases: ref rows first, then the buffer packed by each source
  // rank (JitRankProg's id encoding).
  std::vector<const double*>& bases = scratch.bases;
  bases.resize(static_cast<std::size_t>(nrefs + sources));
  for (int r = 0; r < nrefs; ++r)
    bases[static_cast<std::size_t>(r)] =
        s.rows[static_cast<std::size_t>(r)]->data();
  for (i64 q = 0; q < sources; ++q)
    bases[static_cast<std::size_t>(nrefs + q)] =
        packed[q * packed_stride].data();

  const spmd::JitRankProg* rp =
      jit && prog ? &prog->ranks[static_cast<std::size_t>(s.rank)] : nullptr;
  if (rp && rp->any) {
    // Jitted replay: constant-stride runs go through the vectorizable
    // fused entry, irregular stretches through the gather entry.
    for (const spmd::JitSegment& sg : rp->segs) {
      if (sg.fused)
        jit->fused(out_row.data(), sg.la0, sg.la_stride, bases.data(),
                   sg.raddr0.data(), sg.rstride.data(),
                   rv.vals.data() + sg.e0 * nloops, sg.v0, sg.vstride, sg.n);
      else
        jit->replay(out_row.data(), bases.data(),
                    rp->ids.data() + sg.e0 * nrefs,
                    rp->offs.data() + sg.e0 * nrefs,
                    rv.lhs_slot.data() + sg.e0,
                    rv.vals.data() + sg.e0 * nloops, sg.n);
    }
    pc.jit += rv.n;
  } else {
    // Bytecode replay: no subscripts, tags, bounds checks or
    // iteration-space enumeration — one gather per operand.
    std::vector<double>& refs = scratch.refs;
    std::vector<double>& stack = scratch.stack;
    refs.resize(static_cast<std::size_t>(nrefs));
    stack.resize(static_cast<std::size_t>(kern.stack_need()));
    const spmd::CompiledGuard* guard = kern.guard();
    for (i64 e = 0; e < rv.n; ++e) {
      const i64* vals = rv.vals.data() + e * nloops;
      const spmd::RefOp* ops = rv.ops.data() + e * nrefs;
      for (int r = 0; r < nrefs; ++r) {
        const spmd::RefOp& op = ops[r];
        double& v = refs[static_cast<std::size_t>(r)];
        switch (op.kind) {
          case spmd::RefOp::Kind::Local:
            v = bases[static_cast<std::size_t>(r)]
                     [static_cast<std::size_t>(op.a)];
            break;
          case spmd::RefOp::Kind::Halo:
            v = s.halos[static_cast<std::size_t>(r)]->find(op.a)->second;
            break;
          case spmd::RefOp::Kind::Remote:
            v = bases[static_cast<std::size_t>(nrefs + op.src)]
                     [static_cast<std::size_t>(op.a)];
            break;
        }
      }
      if (guard && !guard->holds(refs.data(), vals, stack.data())) continue;
      const double value = kern.rhs().eval(refs.data(), vals, stack.data());
      const i64 slot = rv.lhs_slot[static_cast<std::size_t>(e)];
      if (slot < 0)
        throw RuntimeFault("local write out of bounds on " + clause.lhs_array);
      out_row[static_cast<std::size_t>(slot)] = value;
    }
    pc.sched += rv.n;
  }
  VCAL_TRACE(s.tracer, s.lane, obs::EventKind::KernelPath, s.step_id,
             pc.fused, pc.generic, pc.interp, pc.sched);
  VCAL_TRACE(s.tracer, s.lane, obs::EventKind::GatherEnd, s.step_id, rv.n);
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
