#include "workloads.hpp"

#include <cmath>
#include <stdexcept>

#include "lang/translate.hpp"
#include "support/format.hpp"
#include "support/rng.hpp"
#include "verify/program_gen.hpp"

namespace vbench {
namespace {

using vcal::cat;
using vcal::i64;
using vcal::Rng;

// Problem sizes. One direct run of either large program takes tens of
// milliseconds on the parallel targets of a 4-core host, so a run of a
// few seconds holds dozens of samples per target. The compile service
// gets the same programs at 1/16 of the extent: about a millisecond per
// request, so one run holds the thousands of requests a steady p99
// needs.
constexpr i64 kStencilN = 16384;
constexpr i64 kStencilSweeps = 40;  // even: the last sweep writes U
constexpr i64 kShuffleN = 4096;
constexpr i64 kShuffleEpochs = 3;   // each ends in a redistribute
constexpr i64 kShuffleRepeats = 3;  // >= 3 so comm schedules replay
constexpr i64 kServeShrink = 16;
constexpr int kServeMixBatch = 8;   // programs per direct target sample
constexpr std::uint64_t kBatchSeed = 0x5eed;  // serve-mix direct programs

std::vector<double> seeded_values(std::uint64_t seed, std::uint64_t stream,
                                  i64 n) {
  Rng rng(Rng::derive(seed, stream));
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = rng.uniform01();
  return v;
}

// 1-D Jacobi ping-pong: U carries a one-element halo, so every sweep is
// a fused affine loop plus a halo refresh.
ProgramSpec stencil_program(std::uint64_t seed, i64 n) {
  std::string src = cat("processors 4;\narray U[0:", n - 1, "];\narray V[0:",
                        n - 1, "];\ndistribute U block overlap(1);\n",
                        "distribute V block;\n");
  for (i64 t = 0; t < kStencilSweeps; ++t) {
    const char* dst = t % 2 == 0 ? "V" : "U";
    const char* from = t % 2 == 0 ? "U" : "V";
    src += cat("forall i in 1:", n - 2, " do ", dst, "[i] := (", from,
               "[i-1] + ", from, "[i+1])/2; od\n");
  }
  return {src,
          {{"U", false, seeded_values(seed, 1, n)},
           {"V", false, seeded_values(seed, 2, n)}}};
}

// Mod-rotate and strided copies between a scatter array, a block array
// that is redistributed every epoch, and a block-scatter array: nearly
// every read is remote and no subscript is affine, so no fused kernel
// loop applies and the comm schedules and replanning carry the run.
// An affine copy would reach the generic kernel path, but its local
// elements would take the fused and jitted loops too, and shuffle must
// not move with a kernel-only change (NOTES.md).
ProgramSpec shuffle_program(std::uint64_t seed, i64 n) {
  Rng rng(Rng::derive(seed, 3));
  auto off = [&] { return rng.uniform(1, n - 1); };
  const char* b_layouts[] = {"blockscatter(64)", "scatter", "block"};
  std::string src =
      cat("processors 4;\narray A[0:", n - 1, "];\narray B[0:", n - 1,
          "];\narray C[0:", n - 1, "];\ndistribute A scatter;\n",
          "distribute B block;\ndistribute C blockscatter(16);\n");
  for (i64 e = 0; e < kShuffleEpochs; ++e) {
    const i64 s1 = off(), s2 = off(), s3 = off(), c = off();
    const std::string body = cat(
        "forall i in 0:", n - 1, " do A[i] := B[(i + ", s1, ") mod ", n,
        "]; od\nforall i in 0:", n - 1, " do C[i] := A[(3*i + ", c,
        ") mod ", n, "]*0.5 + B[(i + ", s2, ") mod ", n,
        "]*0.5; od\nforall i in 0:", n - 1, " do B[i] := C[(i + ", s3,
        ") mod ", n, "]; od\n");
    for (i64 r = 0; r < kShuffleRepeats; ++r) src += body;
    src += cat("redistribute B ", b_layouts[e % 3], ";\n");
  }
  return {src,
          {{"A", false, seeded_values(seed, 4, n)},
           {"B", false, seeded_values(seed, 5, n)},
           {"C", false, seeded_values(seed, 6, n)}}};
}

// A conformance-generator draw, widened beyond the oracle's defaults but
// with small arrays, pinned to 4 processors, every array a ramp input.
ProgramSpec generated_program(std::uint64_t seed, std::uint64_t stream) {
  vcal::verify::GenOptions opts;
  opts.max_n = 64;
  opts.max_procs = 4;
  opts.max_clauses = 6;
  vcal::verify::ProgramGen gen(Rng::derive(seed, stream), opts);
  vcal::verify::GeneratedProgram gp = gen.next();
  gp.decls.at(0) = "processors 4;";
  ProgramSpec spec;
  spec.source = gp.source();
  for (const std::string& d : gp.decls)
    if (d.rfind("array ", 0) == 0)
      spec.inputs.push_back({d.substr(6, d.find('[') - 6), true, {}});
  return spec;
}

// The direct targets of serve-mix run the same generated programs on
// every seed: draws differ several-fold in size, so a per-seed batch
// would move the per-program times with the seed. The seed picks the
// input values instead (uniform over the ramp's range [0, n)).
ProgramSpec batch_program(std::uint64_t seed, int k) {
  ProgramSpec spec =
      generated_program(kBatchSeed, static_cast<std::uint64_t>(k));
  const vcal::spmd::Program prog = vcal::lang::compile(spec.source);
  std::uint64_t stream = 100 + 8 * static_cast<std::uint64_t>(k);
  for (InputArray& in : spec.inputs) {
    const i64 n = prog.arrays.at(in.name).total();
    in.ramp = false;
    in.values = seeded_values(seed, stream++, n);
    for (double& v : in.values) v = std::floor(v * static_cast<double>(n));
  }
  return spec;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"stencil", "shuffle",
                                                 "serve-mix"};
  return names;
}

WorkloadSpec make_workload(const std::string& name, std::uint64_t seed) {
  using vcal::serve::Target;
  WorkloadSpec w;
  w.name = name;
  // The traffic shapes below (cold share, target split, request rate)
  // are fixed choices, not measurements of real compile-service
  // traffic; NOTES.md ("Compile-service traffic") gives the reason for
  // each value.
  if (name == "stencil" || name == "shuffle") {
    w.batch.push_back(name == "stencil" ? stencil_program(seed, kStencilN)
                                        : shuffle_program(seed, kShuffleN));
    // Sessions resubmitting the program; one request in ten sends a
    // text the server never saw. The server keeps every distinct
    // program's plans for the session's life, so cold requests are few.
    w.cold_share = 0.1;
    w.targets = {Target::Dist};
    w.serve_rate = 230;
  } else if (name == "serve-mix") {
    for (int k = 0; k < kServeMixBatch; ++k)
      w.batch.push_back(batch_program(seed, k));
    w.cold_share = 0.25;
    w.targets = {Target::Seq, Target::Shared, Target::Dist};
    w.serve_rate = 800;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

ProgramSpec serve_program(const WorkloadSpec& w, std::uint64_t seed,
                          std::int64_t id) {
  // stencil and shuffle serve their program at a smaller extent. A
  // trailing comment names the request, so every id is a new text.
  ProgramSpec p =
      w.name == "serve-mix"
          ? generated_program(seed, static_cast<std::uint64_t>(id))
      : w.name == "stencil" ? stencil_program(seed, kStencilN / kServeShrink)
                            : shuffle_program(seed, kShuffleN / kServeShrink);
  p.source += cat("# request ", id, "\n");
  return p;
}

}  // namespace vbench
