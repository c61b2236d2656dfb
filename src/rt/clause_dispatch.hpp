// How the in-process SPMD machines (DistMachine, SharedMachine) route
// each execution of a parallel clause through the engine: the lanes the
// ranks run on, the memoized plan-cache key, the per-key JIT state, and
// the comm-schedule dispatch (replay a schedule recorded at the current
// epoch, record one on the second clean execution, else enumerate).
// Both machines share this one copy; each keeps only what its memory
// model adds (channels and halos on dist, one dense store on shared).
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"
#include "rt/engine_context.hpp"
#include "rt/engine_options.hpp"
#include "spmd/clause_plan.hpp"
#include "spmd/jit.hpp"
#include "spmd/plan_cache.hpp"
#include "support/thread_pool.hpp"

namespace vcal::spmd {
class CommSchedule;
}

namespace vcal::rt {

/// One execution's route, from ClauseDispatch::route.
struct ClauseRoute {
  const std::string* key = nullptr;  // plan-cache key; null when uncached
  const spmd::JitFns* jit = nullptr;  // jitted entry points, else bytecode
  const spmd::CommSchedule* replay = nullptr;  // the schedule to replay
  const spmd::JitReplayProg* jit_replay = nullptr;  // `replay`, flattened
  /// The schedule this execution records (the inspector pass), which
  /// finish() publishes. A recording step runs bytecode.
  std::unique_ptr<spmd::CommSchedule> record;
};

class ClauseDispatch {
 public:
  ClauseDispatch() = default;
  /// `plans` and `tracer` belong to the machine's lease and context;
  /// `tracer` may be null.
  ClauseDispatch(const EngineOptions& engine,
                 std::shared_ptr<EngineContext> ctx, spmd::PlanCache* plans,
                 obs::Tracer* tracer);

  /// Runs body(rank) for every rank, honoring EngineOptions::threads.
  /// The threads == 1 path calls the body inline with no std::function
  /// wrapper, so replayed steady states allocate nothing.
  template <typename F>
  void for_ranks(i64 n, F&& body) {
    if (engine_.threads == 1) {
      for (i64 r = 0; r < n; ++r) body(r);
      return;
    }
    (pool_ ? *pool_ : support::ThreadPool::shared())
        .parallel_for_ranks(n, body);
  }

  /// The plan-cache key of `clause` (its printed form, built once per
  /// program step); null when plans are not cached.
  const std::string* key(const prog::Clause& clause);

  /// Routes one execution of a parallel clause whose plan is `plan`.
  /// The JIT is polled for cached affine plans; a schedule is replayed
  /// when one exists at the current epoch, or recorded on the second
  /// clean execution. An uncached plan or an armed fault keeps the
  /// tagged bytecode path and counts a schedule fallback.
  ClauseRoute route(const std::string* key, const prog::Clause& clause,
                    const spmd::ClausePlan& plan, bool fault_armed,
                    i64 step_id);

  /// Closes a routed step: folds the ranks' path counters (a JIT hit
  /// counts only when jitted code ran), accounts a replay, and seals and
  /// publishes a recorded schedule.
  void finish(ClauseRoute& route, const std::vector<PathCounters>& pcs,
              i64 step_id);

  const PathCounters& paths() const noexcept { return paths_; }
  const CommStats& comm() const noexcept { return comm_; }
  const spmd::JitStats& jit() const noexcept { return jit_; }

 private:
  /// One arming / dispatch poll of the JIT state keyed by `key` at the
  /// current epoch: the jitted entry points when ready (the owning state
  /// in *js), nullptr while the bytecode kernel should keep running. A
  /// redistribution's epoch bump invalidates the state with the plan
  /// that owned it (a fallback when the old state had armed).
  const spmd::JitFns* poll_jit(const std::string& key,
                               const prog::Clause& clause,
                               const spmd::ClauseKernel& kern, i64 step_id,
                               spmd::JitState** js);

  EngineOptions engine_;
  std::shared_ptr<EngineContext> ctx_;
  spmd::PlanCache* plans_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  std::unique_ptr<support::ThreadPool> pool_;  // owned when threads > 1

  PathCounters paths_;
  CommStats comm_;
  spmd::JitStats jit_;

  std::unordered_map<const void*, std::string> step_keys_;
  struct KeySeen {  // clean executions of a key at its epoch
    std::uint64_t epoch = 0;
    i64 seen = 0;
  };
  std::unordered_map<std::string, KeySeen> key_seen_;
  struct JitSlot {
    std::shared_ptr<spmd::JitState> state;
    std::uint64_t epoch = 0;
    bool no_toolchain_noted = false;  // one fallback per key, not per exec
  };
  std::unordered_map<std::string, JitSlot> jit_slots_;
};

}  // namespace vcal::rt
