// The benchmark's three workloads: the vexl sources they compile, the
// inputs they load, and the shape of their compile-service traffic.
// Everything is a pure function of the workload name and the seed.
// NOTES.md records why each workload exists and which layer it stresses.
#pragma once
#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace vbench {

/// One array image loaded before a run. `ramp` inputs hold 0,1,2,...
/// (and travel to the server as a ramp flag, not as values).
struct InputArray {
  std::string name;
  bool ramp = false;
  std::vector<double> values;
};

/// One program of a workload: its source and the inputs it loads.
struct ProgramSpec {
  std::string source;
  std::vector<InputArray> inputs;
};

struct WorkloadSpec {
  std::string name;
  /// Programs every target sample runs, in order.
  std::vector<ProgramSpec> batch;
  /// Closed-loop compile-service traffic.
  double cold_share = 0.5;   // chance a request is a never-seen program
  std::vector<vcal::serve::Target> targets;  // drawn per new program
  /// The serve loop sends a fixed number of requests, this many per
  /// second of --seconds, so that the number of cold programs the server
  /// caches (and with it peak memory) does not depend on how fast the
  /// run went. On a 4-core host the loop takes 2-3 s of a 35-second run.
  double serve_rate = 1.0;
};

/// Every workload name, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Builds a workload; throws std::invalid_argument on an unknown name.
WorkloadSpec make_workload(const std::string& name, std::uint64_t seed);

/// Source and inputs of the compile service's request program `id`.
/// Distinct ids give distinct sources, so the first request for an id
/// misses the server's compile cache.
ProgramSpec serve_program(const WorkloadSpec& w, std::uint64_t seed,
                          std::int64_t id);

}  // namespace vbench
