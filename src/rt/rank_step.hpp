// One rank's half of the tagged SPMD clause step (Sections 2.7 and 2.10
// of the paper): the node-program template every distributed backend
// executes. Rank p first sends the elements it stores that other ranks'
// updates read (Reside_p \ Modify_p), then walks Modify_p, receiving
// remote operands and updating its own elements.
//
// The in-process simulator (DistMachine) calls both phases for every
// rank over its (src, dst) channel array; a proc worker calls them once
// for its own rank and moves the channels over the rings in between.
// Moving channels between ranks stays with each caller, so both
// backends run this same code — the bytecode kernel, the fused strided
// loops, the counters and the deadlock diagnostic — and the oracle's
// proc axis checks the code the simulator runs.
//
// The shared-memory machine (SharedMachine) runs the same walk over one
// dense address space: every operand is resident, no message is sent,
// and a recorded CommSchedule replays through the same replay phase.
//
// A rank step reads the rank's pre-clause rows and halo copies, and
// writes only its own channels, counters, message-matrix row and LHS
// row, so callers may run ranks concurrently.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "decomp/array_desc.hpp"
#include "obs/trace.hpp"
#include "rt/channel.hpp"
#include "rt/cost_model.hpp"
#include "rt/engine_options.hpp"
#include "rt/fault_plan.hpp"
#include "spmd/clause_plan.hpp"

namespace vcal::spmd {
class CommSchedule;
struct JitFns;
struct JitReplayProg;
struct RecvPlan;
}  // namespace vcal::spmd

namespace vcal::rt {

/// One rank's pre-clause copy of an overlapped array's halo region:
/// global index -> value.
using HaloCopy = std::unordered_map<i64, double>;

/// The halo elements `reader` caches of `rd`, both sides, in the order
/// every backend enumerates them: f(g, owner, new_bulk), where new_bulk
/// marks the first element of a bulk message (its owner differs from
/// the previous element's on that side).
template <typename F>
void for_each_halo_element(const decomp::ArrayDesc& rd, i64 reader, F&& f) {
  for (int side : {-1, 1}) {
    auto [hlo, hhi] = rd.halo_range(reader, side);
    i64 prev_owner = -1;
    for (i64 g = hlo; g <= hhi; ++g) {
      const i64 owner = rd.owner({g});
      f(g, owner, owner != prev_owner);
      prev_owner = owner;
    }
  }
}

/// One rank's channels inside the caller's storage: the channel to or
/// from rank q is base[q * stride].
struct ChannelRow {
  Channel* base = nullptr;
  i64 stride = 1;
  Channel& operator[](i64 q) const { return base[q * stride]; }
};

/// What one rank's step reads and where its accounting goes.
struct RankStep {
  const prog::Clause* clause = nullptr;
  const spmd::ClausePlan* plan = nullptr;
  i64 rank = 0;
  i64 step_id = 0;
  /// Pre-clause row of each ref on this rank: the copy-in snapshot when
  /// the clause reads its own target, the live row otherwise.
  std::vector<const std::vector<double>*> rows{};
  /// This rank's halo copy of each ref's array; must be set for every
  /// ref whose array has a halo, null otherwise (unused when dense).
  std::vector<const HaloCopy*> halos{};
  RankCounters* counters = nullptr;
  PathCounters* paths = nullptr;
  obs::Tracer* tracer = nullptr;  // events go to lane `lane`
  i64 lane = 0;
  spmd::CommSchedule* recorder = nullptr;  // inspector pass, else null
  /// One dense address space (shared memory): rows are whole dense
  /// arrays, every operand is resident, and offsets are dense_linear.
  bool dense = false;
};

/// Per-rank scratch the replay phase reuses, so a steady state of
/// replayed steps allocates nothing.
struct ReplayScratch {
  std::vector<double> refs;
  std::vector<double> stack;
  std::vector<const double*> bases;
};

/// True when the clause reads the array it writes (senders and local
/// reads must then see a copy-in snapshot).
bool reads_own_target(const prog::Clause& clause);

/// Phase 1: non-blocking sends. Pushes every element this rank stores
/// that another rank's update reads into out[dst], packs each non-empty
/// channel into one bulk message, and counts the sends in `matrix_row`.
void send_phase(const RankStep& s, ChannelRow out,
                std::vector<i64>& matrix_row);

/// Phase 2: receive and update. Counts the bulk messages delivered in
/// `in`, then walks Modify_p, reading local operands, halo copies and
/// received values, and writes `out_row`. Provably local subranges of
/// affine clauses run as one fused strided loop, through `jit` when set.
/// A receive that finds no message throws DeadlockError.
void update_phase(const RankStep& s, ChannelRow in,
                  std::vector<double>& out_row, const spmd::JitFns* jit);

/// Replay phase: the executor half of a recorded CommSchedule. Runs
/// rank p's receive plan `rv`, fetching every operand by its recorded
/// offset — a row of s.rows, a halo copy, or slot b of the buffer that
/// source rank a packed (packed[a * packed_stride]; null when the plan
/// has no remote operands) — and evaluating guard and RHS live. Runs
/// the rank's flattened segment program from `prog` through `jit` when
/// both are set and the program covers the rank. Enumeration counters
/// are the caller's to replay.
void replay_phase(const RankStep& s, const spmd::RecvPlan& rv,
                  const std::vector<double>* packed, i64 packed_stride,
                  std::vector<double>& out_row, const spmd::JitFns* jit,
                  const spmd::JitReplayProg* prog, ReplayScratch& scratch);

/// The message-pairing invariant: throws when a channel delivered to
/// rank p (procs of them in `in`) still holds unconsumed messages.
void check_delivered(i64 p, ChannelRow in, i64 procs);

/// Applies a drop / duplicate / reorder fault to a packed channel;
/// false when the fault is of another kind or changed nothing.
bool apply_message_fault(const FaultPlan& fault, Channel& ch);

}  // namespace vcal::rt
