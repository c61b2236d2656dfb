// Shared-memory SPMD target (Section 2.9 of the paper).
//
// Executes the paper's shared-memory template with real threads:
//
//   p := my_node;
//   forall i in Modify_p do A[f(i)] := Expr(B[g(i)]); od;
//   barrier;
//
// All arrays live in one shared dense store. Per clause, every virtual
// processor runs the rank-step's Modify_p walk (rt/rank_step.hpp) in
// dense addressing on the engine's thread pool, with no send phase;
// the join is the barrier. Ownership partitioning makes writes
// disjoint, so no locking is needed; a replicated LHS gives every rank
// the same Modify_p, so rank 0 alone runs it. Parallel clauses that
// read their own target take a copy-in snapshot first. Clause plans
// are cached across repeated executions until a redistribution changes
// a decomposition, and repeated clauses replay a recorded CommSchedule
// of dense offsets, as the distributed machine does.
//
// Redistribution steps move no data here (memory is shared) but do change
// the ownership partitioning of subsequent clauses.
#pragma once

#include <memory>
#include <vector>

#include "gen/optimizer.hpp"
#include "obs/trace.hpp"
#include "rt/clause_dispatch.hpp"
#include "rt/cost_model.hpp"
#include "rt/engine_context.hpp"
#include "rt/engine_options.hpp"
#include "rt/rank_step.hpp"
#include "rt/store.hpp"
#include "spmd/jit.hpp"
#include "spmd/plan_cache.hpp"
#include "spmd/program.hpp"

namespace vcal::rt {

struct SharedStats {
  i64 barriers = 0;         // barriers the generated program performs
  i64 barriers_elided = 0;  // barriers removed by the footnote-1 analysis
  i64 iterations = 0;       // loop-body entries, all ranks
  i64 tests = 0;            // run-time membership tests, all ranks
  double sim_time = 0.0;    // sum over steps of the slowest rank's time

  /// One-line rendering via the obs::MetricsRegistry.
  std::string str() const;
};

class SharedMachine {
 public:
  /// `elide_barriers` enables the paper's footnote-1 intra-statement
  /// optimization: the barrier between consecutive clauses is dropped
  /// whenever spmd::barrier_needed proves every cross-clause dependence
  /// stays processor-local.
  /// `ctx`/`plan_scope`: see DistMachine — null ctx means a private
  /// context owned by this machine alone.
  explicit SharedMachine(spmd::Program program, gen::BuildOptions opts = {},
                         CostModel cost = {}, bool elide_barriers = false,
                         EngineOptions engine = {},
                         std::shared_ptr<EngineContext> ctx = nullptr,
                         const std::string& plan_scope = {});

  void load(const std::string& name, const std::vector<double>& dense);
  void run();
  const std::vector<double>& result(const std::string& name) const;
  const SharedStats& stats() const noexcept { return stats_; }

  /// Plan-cache effectiveness (hits/misses/epoch) for benchmarks.
  const spmd::PlanCache& plan_cache() const noexcept { return *plans_; }

  /// Per-element execution-path tally (fused loop / affine element at a
  /// time / plan-evaluated subscripts / schedule replay / jitted code)
  /// accumulated over the run.
  /// Reporting only — never part of SharedStats.
  const PathCounters& path_counters() const noexcept {
    return dispatch_.paths();
  }

  /// Comm-schedule accounting: inspector builds, replayed steps,
  /// forced fallbacks. Reporting only — never part of SharedStats.
  const CommStats& comm_stats() const noexcept { return dispatch_.comm(); }

  /// JIT native-code accounting: compiles, cache reuse, dispatches
  /// through jitted functions, fallbacks to the bytecode kernel.
  /// Reporting only — never part of SharedStats (the `jit` oracle axis
  /// pins that).
  const spmd::JitStats& jit_stats() const noexcept {
    return dispatch_.jit();
  }

  /// The attached event tracer (EngineOptions::trace); nullptr when
  /// tracing is off. Lanes 0..procs-1 are ranks, lane procs the engine.
  /// Owned by the EngineContext, so it outlives this machine.
  const obs::Tracer* tracer() const noexcept { return tracer_; }

 private:
  /// Runs one parallel clause on the route `dispatch_` chose: every
  /// rank's dense Modify_p walk, or the replay of a recorded schedule.
  void run_clause(const prog::Clause& clause, const spmd::ClausePlan& plan,
                  ClauseRoute& route);
  void run_clause_sequential(const prog::Clause& clause);

  spmd::Program program_;  // arrays table evolves across redistributions
  gen::BuildOptions opts_;
  CostModel cost_;
  bool elide_barriers_;
  EngineOptions engine_;
  std::shared_ptr<EngineContext> ctx_;  // never null after ctor
  obs::Tracer* tracer_ = nullptr;       // ctx-owned, set when engine_.trace
  PlanLease plans_;                     // leased from ctx_, never empty
  ClauseDispatch dispatch_;             // lanes, JIT and schedule routing
  DenseStore store_;
  SharedStats stats_;
  i64 trace_step_ = 0;  // executed-step ordinal for trace event ids
  std::vector<ReplayScratch> replay_scratch_;  // per rank, reused
};

}  // namespace vcal::rt
