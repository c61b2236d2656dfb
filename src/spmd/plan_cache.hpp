// Memoization of ClausePlan::build across repeated clause executions.
//
// Iterative programs (relaxation sweeps, red-black passes) execute the
// same clause hundreds of times; planning a clause builds one
// OwnerComputePlan per constrained dimension, which is pure compile-time
// work the paper performs exactly once. The cache restores that property
// at run time: plans are keyed by the clause's printed form and by a
// *decomposition epoch*, the number of redistributions the machine
// holding the cache has executed. A redistribution bumps the epoch, so
// a plan whose owner arithmetic baked in the old layout is never reused
// against the new one — the invalidation the redistribution tests
// guard. A machine that leases a warm cache (EngineContext) starts
// again at epoch 0 with the program's initial layout, so a rerun of the
// same program hits every plan its predecessor built, on both sides of
// every redistribution.
//
// One cache belongs to one machine at a time, so the BuildOptions and
// the evolving ArrayTable passed to get() are those of its holder; they
// are not part of the key.
//
// References returned by get() stay valid for the cache's lifetime:
// entries are never rebuilt or erased.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>

#include "obs/trace.hpp"
#include "spmd/clause_plan.hpp"

namespace vcal::spmd {

/// Opaque base for artifacts derived from a plan at one decomposition
/// epoch — compiled communication schedules (comm_schedule.hpp). They
/// ride in the plan's cache entry, so a redistribution, which moves to
/// the next epoch's entries, never replays a stale schedule.
struct CachedSchedule {
  virtual ~CachedSchedule() = default;
};

class PlanCache {
 public:
  /// Returns the cached plan for `clause` at the current epoch, building
  /// and storing it on a miss.
  const ClausePlan& get(const prog::Clause& clause, const ArrayTable& arrays,
                        gen::BuildOptions opts = {});

  /// As above with the key (clause.str()) precomputed by the caller —
  /// the machines memoize keys per program step so the steady-state
  /// lookup allocates nothing.
  const ClausePlan& get(const std::string& key, const prog::Clause& clause,
                        const ArrayTable& arrays, gen::BuildOptions opts = {});

  /// The schedule attached to `key`'s entry at the current epoch, or
  /// nullptr (no entry or no schedule).
  CachedSchedule* find_schedule(const std::string& key) noexcept;

  /// Attaches a schedule to `key`'s current-epoch entry (dropped if the
  /// entry is missing).
  void attach_schedule(const std::string& key,
                       std::unique_ptr<CachedSchedule> sched);

  /// Number of current-epoch entries holding a schedule.
  i64 schedules() const noexcept;

  /// Moves to the next epoch (the holder executed a redistribution).
  void bump_epoch() {
    if (++epoch_ == epochs_.size()) epochs_.emplace_back();
  }

  /// Back to epoch 0: a new holder starts from the program's initial
  /// layout (EngineContext::acquire_plans calls this on every lease).
  void rewind() noexcept { epoch_ = 0; }

  std::uint64_t epoch() const noexcept { return epoch_; }
  i64 hits() const noexcept { return hits_; }
  i64 misses() const noexcept { return misses_; }
  /// Entries across every epoch.
  i64 size() const noexcept;

  /// Emit PlanHit/PlanMiss events on `lane` of `tracer` (the owning
  /// machine's control lane). nullptr detaches.
  void set_tracer(obs::Tracer* tracer, i64 lane) noexcept {
    tracer_ = tracer;
    lane_ = lane;
  }

 private:
  struct Entry {
    ClausePlan plan;
    std::unique_ptr<CachedSchedule> sched;  // may be null
  };
  using EpochMap = std::unordered_map<std::string, Entry>;

  std::uint64_t epoch_ = 0;
  i64 hits_ = 0;
  i64 misses_ = 0;
  // epochs_[e] holds epoch e's entries; always longer than epoch_. A
  // deque, so growing it never moves the maps references point into.
  std::deque<EpochMap> epochs_ = std::deque<EpochMap>(1);
  obs::Tracer* tracer_ = nullptr;
  i64 lane_ = 0;
};

}  // namespace vcal::spmd
