// Distributed-memory SPMD target (Sections 2.7 and 2.10 of the paper).
//
// Simulates a message-passing multicomputer with non-blocking sends and
// blocking receives. Execution follows the paper's template: every
// processor first sends the elements it stores that other processors'
// computations need (i in Reside_p \ Modify_p), then walks Modify_p,
// receiving remote operands and updating local elements. Because sends
// are non-blocking and complete before any receive is attempted, the
// template is deadlock-free by construction; a receive that finds no
// matching message therefore indicates an inconsistent schedule pair and
// raises DeadlockError.
//
// The execution engine is the fast path the generated schedules deserve:
// the per-rank loops of every phase run on a thread pool (ranks own
// disjoint counters, mailbox rows, and local buffers; counters merge
// serially in rank order so statistics are bit-identical to the serial
// engine), all elements flowing between one (src, dst) pair in a clause
// are packed into a single sorted bulk message consumed by binary
// search, and clause plans are cached across repeated executions until a
// redistribution bumps the decomposition epoch.
//
// The simulator counts messages, local/remote reads, loop iterations and
// membership tests per rank, and charges them to a CostModel; sim_time is
// the sum over steps of the slowest rank (the SPMD makespan).
//
// Restrictions: '•' (sequential) clauses are rejected on this target —
// the paper notes they induce DOACROSS-style synchronization, which it
// (and we) leave out of scope.
#pragma once

#include <memory>
#include <unordered_map>

#include "gen/optimizer.hpp"
#include "obs/trace.hpp"
#include "rt/clause_dispatch.hpp"
#include "rt/cost_model.hpp"
#include "rt/engine_context.hpp"
#include "rt/engine_options.hpp"
#include "rt/fault_plan.hpp"
#include "rt/rank_step.hpp"
#include "rt/store.hpp"
#include "spmd/jit.hpp"
#include "spmd/plan_cache.hpp"
#include "spmd/program.hpp"

namespace vcal::spmd {
class CommSchedule;
}

namespace vcal::rt {

struct DistStats {
  i64 messages = 0;      // element transfers between distinct ranks
  i64 bulk_messages = 0; // aggregated (src,dst) messages carrying them
  i64 redist_messages = 0; // subset of messages moved by redistributions
  i64 local_reads = 0;   // operand reads satisfied locally
  i64 remote_reads = 0;  // operand reads satisfied by a message
                         // (conservation: messages == remote_reads
                         //  + redist_messages)
  i64 iterations = 0;    // loop-body entries, all ranks, all phases
  i64 tests = 0;         // run-time membership tests / probes
  i64 halo_messages = 0; // bulk halo-exchange messages (overlap support)
  i64 halo_values = 0;   // elements carried by halo exchanges
  i64 halo_reads = 0;    // remote reads satisfied from a local halo copy
  i64 steps = 0;         // clauses + redistributions executed
  double sim_time = 0.0; // makespan under the cost model

  std::string str() const;
};

/// Folds one step's per-rank counters into `stats`: the serial merge
/// every distributed backend replays, so their DistStats agree bit for
/// bit (sim_time grows by the slowest rank's cost).
void fold_step(DistStats& stats, const std::vector<RankCounters>& counters,
               const CostModel& cost);

class DistMachine {
 public:
  /// `ctx` owns the plan cache, tracer, and JIT engine this machine
  /// uses; pass null (the one-shot CLI path) and the machine creates a
  /// private context with the same lifetime as itself. `plan_scope`
  /// names the plan-cache lease pool within the context (see
  /// EngineContext::acquire_plans); empty means a private cache.
  explicit DistMachine(spmd::Program program, gen::BuildOptions opts = {},
                       CostModel cost = {}, EngineOptions engine = {},
                       std::shared_ptr<EngineContext> ctx = nullptr,
                       const std::string& plan_scope = {});

  void load(const std::string& name, const std::vector<double>& dense);
  void run();

  /// Arms a fault to be injected when the targeted step executes (see
  /// fault_plan.hpp). Repeatable; faults on distinct steps compose.
  void inject(const FaultPlan& fault) { faults_.push_back(fault); }

  /// How many armed faults actually perturbed a step (a message fault
  /// naming an empty channel is counted as not applied).
  i64 faults_applied() const noexcept { return faults_applied_; }

  /// Scheduler rounds stalled ranks sat out across the run.
  i64 stall_rounds_served() const noexcept { return stall_rounds_; }

  /// Dense image reassembled from the distributed pieces.
  std::vector<double> gather(const std::string& name) const;

  const DistStats& stats() const noexcept { return stats_; }

  /// Plan-cache effectiveness (hits/misses/epoch) for benchmarks.
  const spmd::PlanCache& plan_cache() const noexcept { return *plans_; }

  /// Per-element execution-path tally (fused loop / affine element at a
  /// time / plan-evaluated subscripts / schedule replay / jitted code)
  /// accumulated over the run.
  /// Reporting only — never part of DistStats.
  const PathCounters& path_counters() const noexcept {
    return dispatch_.paths();
  }

  /// Communication-schedule accounting: inspector builds, replayed
  /// steps, forced fallbacks, packed/unpacked volumes. Reporting only —
  /// never part of DistStats (the `sched` oracle axis pins that).
  const CommStats& comm_stats() const noexcept { return dispatch_.comm(); }

  /// JIT native-code accounting: compiles, cache reuse, dispatches
  /// through jitted functions, fallbacks to the bytecode kernel.
  /// Reporting only — never part of DistStats (the `jit` oracle axis
  /// pins that).
  const spmd::JitStats& jit_stats() const noexcept {
    return dispatch_.jit();
  }

  /// Per-rank message counts of the last executed step (for tests and
  /// benchmark reporting).
  const std::vector<RankCounters>& last_step_counters() const noexcept {
    return last_counters_;
  }

  /// messages[src][dst] accumulated over the whole run (element messages
  /// only; halo exchanges are reported separately in stats()).
  const std::vector<std::vector<i64>>& message_matrix() const noexcept {
    return message_matrix_;
  }

  /// Pretty-printed message matrix, one row per source rank.
  std::string message_matrix_str() const;

  /// The attached event tracer (EngineOptions::trace); nullptr when
  /// tracing is off. Lanes 0..procs-1 are ranks, lane procs the engine.
  /// Owned by the EngineContext, so it outlives this machine.
  const obs::Tracer* tracer() const noexcept { return tracer_; }

 private:
  /// halos[name][rank]: that rank's pre-clause halo copy of the array.
  using HaloTable =
      std::unordered_map<std::string, std::vector<HaloCopy>>;

  /// Copy-in image of the LHS array, one row per rank.
  using Snapshot = std::vector<std::vector<double>>;

  void run_clause(const prog::Clause& clause);
  /// Executor half of the inspector–executor split: replays the
  /// route's compiled communication schedule (positional pack into the
  /// reused comm buffers, then the rank-step replay phase). The caller
  /// has already emitted the control-lane ClauseBegin.
  void run_clause_scheduled(const prog::Clause& clause,
                            const spmd::ClausePlan& plan, ClauseRoute& route);

  void run_redistribute(const spmd::RedistStep& step);
  void finish_step(const std::vector<RankCounters>& counters);

  /// Points rows[r] at rank p's pre-clause row of ref r (the snapshot
  /// row when the clause reads its own target) and halo_rows[r] at its
  /// halo copy of that array (null when the array has no halo).
  void bind_rows(const prog::Clause& clause, const Snapshot* snap,
                 const HaloTable& halos, i64 p,
                 std::vector<const std::vector<double>*>& rows,
                 std::vector<const HaloCopy*>& halo_rows) const;

  /// Phase 0: refresh halo copies of every overlapped referenced array
  /// with pre-clause values (shared by the tagged and scheduled paths).
  void refresh_halos(const prog::Clause& clause,
                     const spmd::ClausePlan& plan,
                     const Snapshot* snap,
                     std::vector<RankCounters>& counters, HaloTable& halos,
                     i64 step_id);

  spmd::Program program_;  // arrays table evolves across redistributions
  gen::BuildOptions opts_;
  CostModel cost_;
  EngineOptions engine_;
  std::shared_ptr<EngineContext> ctx_;  // never null after ctor
  obs::Tracer* tracer_ = nullptr;       // ctx-owned, set when engine_.trace
  PlanLease plans_;                     // leased from ctx_, never empty
  ClauseDispatch dispatch_;             // lanes, JIT and schedule routing
  DistStore store_;
  DistStats stats_;
  std::vector<RankCounters> last_counters_;
  std::vector<std::vector<i64>> message_matrix_;
  std::vector<FaultPlan> faults_;
  i64 faults_applied_ = 0;
  i64 stall_rounds_ = 0;

  // Double-buffered, reused channel storage for scheduled steps: one
  // contiguous value buffer per (src, dst) pair, parity-flipped per
  // step. clear() keeps capacity, so steady-state packing is
  // allocation-free.
  std::vector<std::vector<double>> comm_bufs_[2];
  int comm_parity_ = 0;

  // Persistent per-step and per-rank scratch for scheduled replay.
  std::vector<RankCounters> sched_counters_;
  std::vector<PathCounters> sched_pcs_;
  std::vector<RankStep> replay_steps_;
  std::vector<ReplayScratch> replay_scratch_;
};

}  // namespace vcal::rt
