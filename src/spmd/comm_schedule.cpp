#include "spmd/comm_schedule.hpp"

#include "support/format.hpp"

namespace vcal::spmd {

void CommSchedule::init(i64 procs_, int nloops_, int nrefs_) {
  procs = procs_;
  nloops = nloops_;
  nrefs = nrefs_;
  send.assign(static_cast<std::size_t>(procs), SendPlan{});
  recv.assign(static_cast<std::size_t>(procs), RecvPlan{});
  counters.assign(static_cast<std::size_t>(procs), rt::RankCounters{});
  matrix_delta.assign(static_cast<std::size_t>(procs * procs), 0);
}

void CommSchedule::seal() {
  packed_ops = 0;
  remote_ops = 0;
  for (const SendPlan& sp : send)
    packed_ops += static_cast<i64>(sp.ops.size());
  for (const RecvPlan& rv : recv)
    for (const RefOp& op : rv.ops)
      if (op.kind == RefOp::Kind::Remote) ++remote_ops;
}

std::string CommSchedule::describe() const {
  i64 elements = 0;
  for (const RecvPlan& rv : recv) elements += rv.n;
  return cat("comm-schedule procs=", procs, " elements=", elements,
             " packed/step=", packed_ops, " remote/step=", remote_ops);
}

}  // namespace vcal::spmd
