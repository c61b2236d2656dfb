// The job file: everything a worker needs to reproduce the launcher's
// program and options, written once into the channel directory before
// any rank is spawned. Workers recompile the vexl source themselves
// (lang::compile is deterministic), so the file ships source text, not
// a serialized IR.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gen/optimizer.hpp"
#include "rt/cost_model.hpp"
#include "rt/engine_options.hpp"
#include "rt/fault_plan.hpp"
#include "support/math.hpp"

namespace vcal::proc {

struct JobSpec {
  std::string source;  // vexl program text
  i64 procs = 0;       // sanity check against the compiled program
  gen::BuildOptions build;
  rt::EngineOptions engine;
  std::vector<rt::FaultPlan> faults;
  // Dense input images loaded before the run, in load order.
  std::vector<std::pair<std::string, std::vector<double>>> inputs;
  i64 timeout_ms = 60000;  // transport wait budget per pump
  i64 ring_slots = 1024;   // per-(src,dst) ring capacity in slots
};

std::vector<std::uint8_t> encode_job(const JobSpec& job);
JobSpec decode_job(const std::uint8_t* data, std::size_t n);

void save_job(const std::string& path, const JobSpec& job);
JobSpec load_job(const std::string& path);

inline std::string job_path(const std::string& dir) {
  return dir + "/job.bin";
}

/// The build/engine-option sections alone, byte-comparable: each worker
/// echoes this in HELLO so the launcher verifies option propagation on
/// every run.
std::vector<std::uint8_t> encode_options_echo(const JobSpec& job);

struct WireWriter;
struct WireReader;

/// STEP-frame helpers shared by worker (encode) and launcher (decode).
void put_rank_counters(WireWriter& w, const rt::RankCounters& c);
rt::RankCounters get_rank_counters(WireReader& r);
void put_path_counters(WireWriter& w, const rt::PathCounters& c);
rt::PathCounters get_path_counters(WireReader& r);

}  // namespace vcal::proc
