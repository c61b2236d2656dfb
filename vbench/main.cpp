// End-to-end benchmark of V-cal: one workload per run.
//
//   vbench --workload stencil|shuffle|serve-mix --seed N --seconds S
//          --trace 0|1 --work-dir DIR [--spans FILE]
//
// A run sets up seven times (compile, reference run, cold JIT and native
// compiles into a fresh cache, proc worker check, server start) and
// reports the median as setup_s. It then spends 70% of --seconds in
// interleaved rounds that time lang::compile and one complete program
// run on every direct target (SeqExecutor, SharedMachine, DistMachine,
// NativeMachine, ProcMachine). Between rounds, a closed loop of
// serve::Client sessions sends a fixed number of requests to a
// serve::Server in a child process, in chunks spread over the run. Every
// output is checked against the SeqExecutor reference outside the timed
// regions; DistStats and message matrices must repeat exactly and agree
// between dist and proc. The last line of stdout is one JSON object:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
//
// With --trace 1, every other round and the whole serve loop record
// in-memory spans around each call into the library (spans.hpp), which
// are written to --spans as Chrome trace_event JSON at exit.
//
// The binary is also its own ProcMachine worker (`vbench --rank N
// --channel-dir D` runs proc::worker_main) and its own compile server
// (`vbench --serve ADDR`).
//
// Usually started through run.py, which builds it and gives each run a
// fresh work directory and TMPDIR.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "gen/schedule.hpp"
#include "lang/parser.hpp"
#include "lang/translate.hpp"
#include "obs/calibrate.hpp"
#include "proc/proc_machine.hpp"
#include "proc/worker.hpp"
#include "rt/dist_machine.hpp"
#include "rt/native_machine.hpp"
#include "rt/seq_executor.hpp"
#include "rt/shared_machine.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "spmd/jit.hpp"
#include "spmd/kernel.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace vcal;
using Clock = std::chrono::steady_clock;
using vbench::Scope;

constexpr int kSetups = 7;  // setup_s is the median of this many
// Share of --seconds spent in the interleaved rounds over the direct
// targets and the chunks of the serve loop between them.
constexpr double kRoundsShare = 0.7;
// Client sessions in the serve loop, each one thread keeping one
// request in flight. Half the cores of a 4-core host: a request wakes a
// client, a server reader and an executor thread in turn, and with 4
// sessions those threads queued for the cores and set the p99.
constexpr int kClients = 2;
// The serve loop is sent in about this many chunks, spread over the
// rounds. A chunk's first requests wake idle threads; with a chunk
// after every round they made up several percent of the requests and
// set the p99.
constexpr int kServeChunks = 12;

// The direct-target and compile timings report this quantile of a
// run's samples rather than the median. On a shared host a vCPU runs
// at one of two speeds about 1.4x apart, switching every second or so
// (a single thread pinned to one vCPU shows it); the median fell
// between the two and moved with the share of slow samples in the run.
// The tenth percentile is the code's time at full speed as long as a
// tenth of the samples ran there.
constexpr double kTimeQuantile = 0.1;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(k, 1, v.size()) - 1];
}

double timing(const std::vector<double>& samples) {
  return percentile(samples, kTimeQuantile);
}

// FNV-1a 64 over named stores in name order: the served replies are
// compared with the reference through this digest.
std::uint64_t store_hash(
    std::vector<std::pair<std::string, std::vector<double>>> stores) {
  std::sort(stores.begin(), stores.end());
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  };
  for (const auto& [name, v] : stores) {
    mix(name.data(), name.size());
    const std::uint64_t len = v.size();
    mix(&len, sizeof len);
    mix(v.data(), v.size() * sizeof(double));
  }
  return h;
}

std::vector<double> ramp(i64 n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = double(i);
  return v;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool dist_stats_equal(const rt::DistStats& x, const rt::DistStats& y) {
  return x.messages == y.messages && x.bulk_messages == y.bulk_messages &&
         x.redist_messages == y.redist_messages &&
         x.local_reads == y.local_reads && x.remote_reads == y.remote_reads &&
         x.iterations == y.iterations && x.tests == y.tests &&
         x.halo_messages == y.halo_messages &&
         x.halo_values == y.halo_values && x.halo_reads == y.halo_reads &&
         x.steps == y.steps && x.sim_time == y.sim_time;
}

bool shared_stats_equal(const rt::SharedStats& x, const rt::SharedStats& y) {
  return x.barriers == y.barriers &&
         x.barriers_elided == y.barriers_elided &&
         x.iterations == y.iterations && x.tests == y.tests &&
         x.sim_time == y.sim_time;
}

// ---- programs --------------------------------------------------------

// A workload program ready to run: compiled, inputs materialized, and
// the SeqExecutor reference plus the first dist/shared statistics that
// every later run must repeat exactly.
struct Prog {
  std::string source;
  spmd::Program program;
  std::vector<std::pair<std::string, std::vector<double>>> inputs;
  std::vector<std::string> arrays;       // every array, gathered by name
  std::vector<std::vector<double>> ref;  // SeqExecutor result per array
  std::uint64_t ref_hash = 0;
  rt::DistStats dist_ref;
  std::vector<std::vector<i64>> matrix_ref;
  rt::SharedStats shared_ref;
};

Prog prepare(const vbench::ProgramSpec& spec) {
  Prog p;
  p.source = spec.source;
  p.program = lang::compile(spec.source);
  for (const vbench::InputArray& in : spec.inputs)
    p.inputs.emplace_back(
        in.name, in.ramp ? ramp(p.program.arrays.at(in.name).total())
                         : in.values);
  rt::SeqExecutor seq(p.program);
  for (const auto& [name, values] : p.inputs) seq.load(name, values);
  seq.run();
  std::vector<std::pair<std::string, std::vector<double>>> named;
  for (const auto& [name, desc] : p.program.arrays) {
    p.arrays.push_back(name);
    p.ref.push_back(seq.result(name));
    named.emplace_back(name, p.ref.back());
  }
  p.ref_hash = store_hash(std::move(named));
  return p;
}

serve::RunRequest make_request(const vbench::ProgramSpec& spec,
                               serve::Target target,
                               const rt::EngineOptions& engine) {
  serve::RunRequest req;
  req.source = spec.source;
  req.target = target;
  req.engine = engine;
  for (const vbench::InputArray& in : spec.inputs) {
    req.inputs.push_back({in.name, in.ramp, in.values});
    req.gather.push_back(in.name);
  }
  req.want_stats = false;
  return req;
}

// ---- failures ----------------------------------------------------------

// Counts attempted and failed operations; keeps the first few messages.
struct Ledger {
  std::mutex m;
  i64 attempted = 0;
  i64 failed = 0;
  std::vector<std::string> notes;

  void record(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(m);
    ++attempted;
    if (ok) return;
    ++failed;
    if (notes.size() < 20) notes.push_back(what);
  }
};

// ---- direct targets ----------------------------------------------------

enum class Target { Seq, Shared, Dist, Native, Proc };
constexpr int kTargets = 5;
const char* const kTargetName[kTargets] = {"seq", "shared", "dist", "native",
                                           "proc"};

struct PhaseNames {
  const char* sample;
  const char* construct;
  const char* load;
  const char* run;
  const char* gather;
};
const PhaseNames kPhases[kTargets] = {
    {"sample.seq", "rt::SeqExecutor::SeqExecutor", "rt::SeqExecutor::load",
     "rt::SeqExecutor::run", "rt::SeqExecutor::result"},
    {"sample.shared", "rt::SharedMachine::SharedMachine",
     "rt::SharedMachine::load", "rt::SharedMachine::run",
     "rt::SharedMachine::result"},
    {"sample.dist", "rt::DistMachine::DistMachine", "rt::DistMachine::load",
     "rt::DistMachine::run", "rt::DistMachine::gather"},
    {"sample.native", "rt::NativeMachine::NativeMachine",
     "rt::NativeMachine::load", "rt::NativeMachine::run",
     "rt::NativeMachine::result"},
    {"sample.proc", "proc::ProcMachine::ProcMachine",
     "proc::ProcMachine::load", "proc::ProcMachine::run",
     "proc::ProcMachine::gather"},
};

// Engine state shared by the runs of one setup: a fresh JIT/native cache
// directory and one long-lived EngineContext per target (its module
// registry keeps the compiled code; plan caches stay per machine).
struct Engines {
  rt::EngineOptions options;  // defaults, plus the run's cache directory
  std::shared_ptr<rt::EngineContext> shared, dist, native;
  proc::ProcOptions proc;
};

// What one program run produced, compared after the timed region.
struct RunOut {
  std::vector<std::vector<double>> stores;
  rt::DistStats dist;
  std::vector<std::vector<i64>> matrix;
  rt::SharedStats shared;
  rt::PathCounters paths;
  rt::CommStats comm;
  spmd::JitStats jit;
  i64 plan_hits = 0;
  i64 plan_misses = 0;
  bool native = true;
  std::string native_error;
};

// Times construct -> load -> run -> gather of one machine, one span per
// call; `m` stays alive so the caller reads its statistics untimed.
template <class M, class Make, class Gather>
double timed_run(const PhaseNames& n, i64 unit, const Prog& p,
                 std::optional<M>& m, Make make, Gather gather,
                 RunOut& out) {
  const auto t0 = Clock::now();
  {
    Scope s(n.construct, unit);
    make(m);
  }
  {
    Scope s(n.load, unit);
    for (const auto& [name, values] : p.inputs) m->load(name, values);
  }
  {
    Scope s(n.run, unit);
    m->run();
  }
  {
    Scope s(n.gather, unit);
    for (const std::string& a : p.arrays) out.stores.push_back(gather(*m, a));
  }
  return ms_between(t0, Clock::now());
}

double run_target(Target t, const Prog& p, Engines& e, RunOut& out) {
  const i64 unit = vbench::new_unit();
  const PhaseNames& n = kPhases[static_cast<int>(t)];
  Scope sample(n.sample, unit);
  auto result = [](auto& m, const std::string& a) { return m.result(a); };
  auto gather = [](auto& m, const std::string& a) { return m.gather(a); };
  switch (t) {
    case Target::Seq: {
      std::optional<rt::SeqExecutor> m;
      return timed_run(n, unit, p, m, [&](auto& o) { o.emplace(p.program); },
                       result, out);
    }
    case Target::Shared: {
      std::optional<rt::SharedMachine> m;
      const double ms = timed_run(
          n, unit, p, m,
          [&](auto& o) {
            o.emplace(p.program, gen::BuildOptions{}, rt::CostModel{}, false,
                      e.options, e.shared);
          },
          result, out);
      out.shared = m->stats();
      out.paths = m->path_counters();
      out.comm = m->comm_stats();
      out.jit = m->jit_stats();
      return ms;
    }
    case Target::Dist: {
      std::optional<rt::DistMachine> m;
      const double ms = timed_run(
          n, unit, p, m,
          [&](auto& o) {
            o.emplace(p.program, gen::BuildOptions{}, rt::CostModel{},
                      e.options, e.dist);
          },
          gather, out);
      out.dist = m->stats();
      out.matrix = m->message_matrix();
      out.paths = m->path_counters();
      out.comm = m->comm_stats();
      out.jit = m->jit_stats();
      out.plan_hits = m->plan_cache().hits();
      out.plan_misses = m->plan_cache().misses();
      return ms;
    }
    case Target::Native: {
      std::optional<rt::NativeMachine> m;
      const double ms = timed_run(
          n, unit, p, m,
          [&](auto& o) { o.emplace(p.program, e.options, e.native); }, result,
          out);
      out.native = m->native();
      out.native_error = m->error();
      return ms;
    }
    case Target::Proc: {
      std::optional<proc::ProcMachine> m;
      const double ms = timed_run(
          n, unit, p, m,
          [&](auto& o) {
            o.emplace(p.source, gen::BuildOptions{}, rt::CostModel{},
                      e.options, e.proc);
          },
          gather, out);
      out.dist = m->stats();
      out.matrix = m->message_matrix();
      return ms;
    }
  }
  return 0.0;
}

// Checks one run against the reference; returns "" when it matches.
std::string check_run(Target t, const Prog& p, const RunOut& out) {
  if (out.stores.size() != p.ref.size()) return "store count differs";
  for (std::size_t a = 0; a < p.ref.size(); ++a)
    if (!same_bits(out.stores[a], p.ref[a]))
      return "array " + p.arrays[a] + " differs from the SeqExecutor reference";
  switch (t) {
    case Target::Dist:
    case Target::Proc:
      if (!dist_stats_equal(out.dist, p.dist_ref))
        return "DistStats differ from the first dist run: " + out.dist.str() +
               " vs " + p.dist_ref.str();
      if (out.matrix != p.matrix_ref)
        return "message matrix differs from the first dist run";
      break;
    case Target::Shared:
      if (!shared_stats_equal(out.shared, p.shared_ref))
        return "SharedStats differ from the first shared run";
      break;
    case Target::Native:
      if (!out.native && spmd::jit_toolchain_available())
        return "native fell back with a compiler present: " +
               out.native_error;
      break;
    case Target::Seq:
      break;
  }
  return "";
}

// ---- compile pipeline --------------------------------------------------

// Table I methods chosen per loop dimension of every Modify_p and
// Reside_p set on rank 0, over every clause at its decomposition epoch.
using MethodTally = std::map<std::string, i64>;

// Builds every clause plan against the array table of its epoch (the
// machines' plan-cache misses) and every clause kernel, one span each.
void build_plans(const spmd::Program& prog, i64 unit, MethodTally* tally) {
  spmd::ArrayTable arrays = prog.arrays;
  for (const spmd::Step& step : prog.steps) {
    if (const auto* r = std::get_if<spmd::RedistStep>(&step)) {
      arrays.insert_or_assign(r->array, r->new_desc);
      continue;
    }
    const auto& clause = std::get<prog::Clause>(step);
    std::optional<spmd::ClausePlan> plan;
    {
      Scope s("spmd::ClausePlan::build", unit);
      plan.emplace(spmd::ClausePlan::build(clause, arrays));
    }
    {
      Scope s("spmd::ClauseKernel::compile", unit);
      (void)spmd::ClauseKernel::compile(clause);
    }
    if (tally == nullptr) continue;
    const spmd::IterationSpace& mod = plan->modify_space(0);
    for (int d = 0; d < mod.dims(); ++d)
      ++(*tally)[gen::to_string(mod.dim(d).method())];
    for (int r = 0; r < static_cast<int>(clause.refs.size()); ++r) {
      if (!plan->ref_needs_comm(r)) continue;
      const spmd::IterationSpace& res = plan->reside_space(0, r);
      for (int d = 0; d < res.dims(); ++d)
        ++(*tally)[gen::to_string(res.dim(d).method())];
    }
  }
}

// One compile sample over the batch; returns ms per program. The traced
// run also times parse and translate apart, and the plan and kernel
// builds the machines do on a plan-cache miss.
double compile_sample(const std::vector<Prog>& progs, bool detailed) {
  double total = 0.0;
  for (const Prog& p : progs) {
    const i64 unit = vbench::new_unit();
    Scope sample("sample.compile", unit);
    const auto t0 = Clock::now();
    if (!detailed) {
      (void)lang::compile(p.source);
      total += ms_between(t0, Clock::now());
      continue;
    }
    std::optional<lang::AProgram> ast;
    {
      Scope s("lang::parse", unit);
      ast.emplace(lang::parse(p.source));
    }
    std::optional<spmd::Program> prog;
    {
      Scope s("lang::translate", unit);
      prog.emplace(lang::translate(*ast));
    }
    build_plans(*prog, unit, nullptr);
    total += ms_between(t0, Clock::now());
  }
  return total / static_cast<double>(progs.size());
}

// ---- the compile server ------------------------------------------------

extern "C" char** environ;

// Reads `"key":<number>` from the flat JSON object the server's metrics
// frame carries (obs::MetricsRegistry::json).
double json_number(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\":");
  if (at == std::string::npos)
    throw std::runtime_error("server metrics lack " + key);
  return std::strtod(json.c_str() + at + key.size() + 3, nullptr);
}

// The compile server runs in a child process (this binary with
// --serve), as `vcalc --serve` does. ProcMachine forks the calling
// process once per rank, and fork time grows with the caller's resident
// memory: with the server's caches (about 200 MB on serve-mix) in this
// process, a proc run of a small program took 13-15 ms instead of 3 ms,
// most of it copying page tables.
class ServerProcess {
 public:
  ServerProcess(const std::string& self, const std::string& addr)
      : addr_(addr) {
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    // The result line is this process's; the server keeps off stdout.
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    const char* argv[] = {self.c_str(), "--serve", addr.c_str(), nullptr};
    const int rc = ::posix_spawn(&pid_, self.c_str(), &fa, nullptr,
                                 const_cast<char* const*>(argv), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start the server: " +
                               std::string(std::strerror(rc)));
    }
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    for (;;) {
      try {
        control_.connect(addr_);
        return;
      } catch (const std::exception& ex) {
        if (Clock::now() > deadline) {
          reap();
          throw std::runtime_error(std::string("server did not start: ") +
                                   ex.what());
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { reap(); }

  const std::string& address() const { return addr_; }

  serve::ServerStats stats() {
    std::string server, session;
    control_.metrics(&server, &session);
    serve::ServerStats st;
    st.rejected = i64(json_number(server, "rejected"));
    st.cache_hits = i64(json_number(server, "cache_hits"));
    st.cache_misses = i64(json_number(server, "cache_misses"));
    st.cache_coalesced = i64(json_number(server, "coalesced"));
    st.compiles = i64(json_number(server, "compiles"));
    st.queue_peak = i64(json_number(server, "queue_peak"));
    st.p50_ms = json_number(server, "p50_ms");
    return st;
  }

  // The server's peak resident set so far (VmHWM).
  double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line))
      if (line.rfind("VmHWM:", 0) == 0)
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    return 0.0;
  }

 private:
  void reap() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  std::string addr_;
  pid_t pid_ = -1;
  serve::Client control_;  // the metrics session
};

// `vbench --serve ADDR`: the server end of ServerProcess, until killed.
int serve_main(const std::string& addr) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
  if (::getppid() == 1) return 1;
  serve::ServeOptions opts;
  opts.addr = addr;
  serve::Server server(opts);
  server.start();
  server.wait();
  server.stop();
  return 0;
}

// ---- setup -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;
  std::string spans_path;
};

// Facts measured during setup that the per-layer report uses.
struct SetupFacts {
  double native_compile_ms = 0.0;  // per program, cold cache
  double native_source_kb = 0.0;   // emitted driver, per program
  i64 jit_builds = 0;
  double jit_compile_ms = 0.0;
};

// One client session of the serve loop. What it sent persists across
// the chunks the loop is sent in.
struct Session {
  serve::Client client;
  Rng rng{0};
  std::vector<i64> history;           // programs this session sent
  std::map<i64, serve::Target> sent;  // program id -> its target
};

struct State {
  vbench::WorkloadSpec spec;
  std::vector<Prog> progs;
  Engines engines;
  SetupFacts facts;
  std::unique_ptr<ServerProcess> server;
  std::vector<Session> sessions;
};

std::unique_ptr<State> setup(const Args& args, int index, Ledger& ledger) {
  auto st = std::make_unique<State>();
  st->spec = vbench::make_workload(args.workload, args.seed);
  for (const vbench::ProgramSpec& spec : st->spec.batch)
    st->progs.push_back(prepare(spec));

  Engines& e = st->engines;
  const std::string cache = args.work_dir + "/cache-" + std::to_string(index);
  std::filesystem::create_directories(cache);
  std::filesystem::permissions(cache, std::filesystem::perms::owner_all);
  e.options.jit_cache_dir = cache;
  // The JIT arms synchronously: no compile job runs in the background,
  // and the swap lands on the same sweep in every run instead of
  // whenever the compile worker wakes, which moved stencil's dist and
  // shared times by tens of percent from sample to sample.
  e.options.jit_sync = true;
  e.shared = std::make_shared<rt::EngineContext>();
  e.dist = std::make_shared<rt::EngineContext>();
  e.native = std::make_shared<rt::EngineContext>();

  // The cold JIT compiles happen here, and the first native run compiles
  // the emitted driver into the fresh cache.
  const double n_progs = static_cast<double>(st->progs.size());
  for (Prog& p : st->progs) {
    RunOut sh, di, na;
    run_target(Target::Shared, p, e, sh);
    run_target(Target::Dist, p, e, di);
    {
      rt::NativeMachine m(p.program, e.options, e.native);
      for (const auto& [name, values] : p.inputs) m.load(name, values);
      m.run();
      for (const std::string& a : p.arrays) na.stores.push_back(m.result(a));
      na.native = m.native();
      na.native_error = m.error();
      st->facts.native_compile_ms += m.compile_ms() / n_progs;
      st->facts.native_source_kb +=
          static_cast<double>(m.source().size()) / 1024.0 / n_progs;
    }
    p.shared_ref = sh.shared;
    p.dist_ref = di.dist;
    p.matrix_ref = di.matrix;
    st->facts.jit_builds += sh.jit.builds + di.jit.builds;
    st->facts.jit_compile_ms += sh.jit.compile_ms + di.jit.compile_ms;
    const std::pair<Target, const RunOut*> runs[] = {
        {Target::Shared, &sh}, {Target::Dist, &di}, {Target::Native, &na}};
    for (const auto& [t, out] : runs) {
      const std::string bad = check_run(t, p, *out);
      ledger.record(bad.empty(), std::string("setup ") +
                                     kTargetName[static_cast<int>(t)] +
                                     ": " + bad);
    }
  }

  // The proc workers are this binary; resolve it once and prove that a
  // 4-rank job runs before any proc sample is timed.
  e.proc.worker_path = proc::ProcMachine::resolve_worker("");
  if (::access(e.proc.worker_path.c_str(), X_OK) != 0)
    throw std::runtime_error("proc worker not executable: " +
                             e.proc.worker_path);
  {
    proc::ProcMachine m(
        "processors 4;\narray A[0:7];\ndistribute A block;\n"
        "forall i in 0:7 do A[i] := i; od\n",
        {}, {}, e.options, e.proc);
    m.run();
    ledger.record(m.gather("A") == ramp(8), "setup proc worker check");
  }

  st->server = std::make_unique<ServerProcess>(
      e.proc.worker_path,
      args.work_dir + "/serve-" + std::to_string(index) + ".sock");
  const int clients = std::max(
      1, std::min<int>(kClients,
                       static_cast<int>(std::thread::hardware_concurrency())));
  st->sessions.resize(static_cast<std::size_t>(clients));
  for (std::size_t c = 0; c < st->sessions.size(); ++c) {
    st->sessions[c].client.connect(st->server->address());
    st->sessions[c].rng = Rng(Rng::derive(args.seed, 1000 + c));
  }
  return st;
}

// ---- the serve loop ----------------------------------------------------

struct Reply {
  double ms = 0.0;
  bool hit = false;
  serve::Target target = serve::Target::Dist;
  serve::Status status = serve::Status::Ok;
  i64 id = 0;
  std::uint64_t hash = 0;
  std::string error;
};

struct ServeResult {
  std::vector<Reply> replies;
  // Completed requests per second of each chunk, leaving out chunks of
  // less than half the usual size (the last one may hold a handful).
  std::vector<double> chunk_rps;
  serve::ServerStats before, after;
};

// The closed loop of client sessions. It sends a fixed number of
// requests, in chunks between the rounds of direct-target samples, so
// its latencies sample the whole run rather than one stretch of it: on
// a shared 4-core host the served latency of one program moved by a
// third between stretches a few seconds apart.
struct ServeLoop {
  i64 total = 0;  // requests the run sends
  rt::EngineOptions engine;
  Clock::time_point deadline;
  std::atomic<i64> next_id{0}, sent{0}, warm{0}, cold{0};
  ServeResult res;
};

void serve_start(const State& st, const Args& args, ServeLoop& loop) {
  loop.total = std::max<i64>(
      2, static_cast<i64>(std::ceil(st.spec.serve_rate * args.seconds)));
  loop.engine = st.engines.options;
  // Requests run inline: the server's executors already run requests in
  // parallel, and machines on several executors sharing the process pool
  // queued behind each other (on serve-mix, 2.6x the throughput and a
  // third of the p99 of threads = 0). No JIT compile may run inside the
  // closed loop.
  loop.engine.threads = 1;
  loop.engine.jit = false;
  // On a slow host the loop stops after --seconds, short of its count.
  loop.deadline = Clock::now() +
                  std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(args.seconds));
  loop.res.before = st.server->stats();
}

// Sends requests until `quota` were sent in all; the last chunk goes on
// until both kinds (warm and cold) were seen once.
void serve_chunk(State& st, const Args& args, ServeLoop& loop, i64 quota,
                 bool last) {
  vbench::spans_enable(args.trace);
  std::mutex m;
  const std::size_t before = loop.res.replies.size();
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (Session& session : st.sessions) {
    threads.emplace_back([&, &session = session] {
      std::vector<Reply> mine;
      while (Clock::now() < loop.deadline &&
             (loop.sent.fetch_add(1) < quota ||
              (last && (loop.warm.load() == 0 || loop.cold.load() == 0)))) {
        const bool fresh =
            session.history.empty() ||
            session.rng.chance(st.spec.cold_share) ||
            (loop.sent.load() >= loop.total && loop.cold.load() == 0);
        const i64 id =
            fresh ? loop.next_id.fetch_add(1)
                  : session.history[static_cast<std::size_t>(
                        session.rng.uniform(
                            0, static_cast<i64>(session.history.size()) - 1))];
        // A program keeps the target it was first sent to: a session
        // that resubmits one program to another target crashes the
        // server (see NOTES.md, "Known defects").
        auto it = session.sent.find(id);
        if (it == session.sent.end())
          it = session.sent
                   .emplace(id, st.spec.targets[static_cast<std::size_t>(
                                    session.rng.uniform(
                                        0, static_cast<i64>(
                                               st.spec.targets.size()) -
                                               1))])
                   .first;
        serve::RunRequest req =
            make_request(vbench::serve_program(st.spec, args.seed, id),
                         it->second, loop.engine);
        Reply r;
        r.id = id;
        r.target = req.target;
        try {
          const i64 unit = vbench::new_unit();
          const auto s0 = Clock::now();
          i64 rid;
          {
            Scope s("serve::Client::submit", unit);
            rid = session.client.submit(std::move(req));
          }
          serve::RunResult out;
          {
            Scope s("serve::Client::wait", unit);
            out = session.client.wait(rid);
          }
          r.ms = ms_between(s0, Clock::now());
          r.hit = out.cache_hit;
          r.status = out.status;
          r.error = out.error;
          r.hash = store_hash(std::move(out.stores));
        } catch (const std::exception& ex) {
          r.status = serve::Status::RunError;
          r.error = ex.what();
          mine.push_back(r);
          break;  // the session is gone
        }
        if (r.status == serve::Status::Ok) {
          if (fresh) session.history.push_back(id);
          (r.hit ? loop.warm : loop.cold).fetch_add(1);
        }
        mine.push_back(std::move(r));
      }
      std::lock_guard<std::mutex> lock(m);
      loop.res.replies.insert(loop.res.replies.end(), mine.begin(),
                              mine.end());
    });
  }
  for (std::thread& t : threads) t.join();
  // Every session's last check counted a request it did not send.
  loop.sent.store(static_cast<i64>(loop.res.replies.size()));
  const double wall_s = ms_between(t0, Clock::now()) / 1000.0;
  const auto ok = std::count_if(
      loop.res.replies.begin() + static_cast<std::ptrdiff_t>(before),
      loop.res.replies.end(),
      [](const Reply& r) { return r.status == serve::Status::Ok; });
  if (2 * (loop.res.replies.size() - before) * kServeChunks >=
      static_cast<std::size_t>(loop.total))
    loop.res.chunk_rps.push_back(static_cast<double>(ok) / wall_s);
  vbench::spans_enable(false);
}

// Verifies every reply against the reference of its program.
void check_replies(const State& st, const Args& args, const ServeResult& res,
                   Ledger& ledger) {
  std::map<i64, std::uint64_t> ref;
  for (const Reply& r : res.replies) {
    if (r.status != serve::Status::Ok) {
      ledger.record(false, "serve request " + std::to_string(r.id) +
                               " failed: " + r.error);
      continue;
    }
    auto it = ref.find(r.id);
    if (it == ref.end()) {
      std::uint64_t h = ~r.hash;  // no reference: the reply cannot match
      try {
        h = prepare(vbench::serve_program(st.spec, args.seed, r.id)).ref_hash;
      } catch (const std::exception&) {
      }
      it = ref.emplace(r.id, h).first;
    }
    ledger.record(r.hash == it->second,
                  "serve request " + std::to_string(r.id) +
                      " differs from the SeqExecutor reference");
  }
}

// ---- reporting ---------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_json(const std::vector<Metric>& metrics, const Ledger& ledger) {
  std::string out = "{\"correct\": ";
  out += ledger.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ledger.attempted);
  out += ", \"failed\": " + std::to_string(ledger.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

double own_peak_rss_mb() {
  struct rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload stencil|shuffle|serve-mix --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--spans FILE]\n",
               argv0);
  return 2;
}

// Samples gathered by the interleaved rounds.
struct Rounds {
  std::vector<double> compile;
  std::vector<double> target[kTargets];
  std::vector<double> round_traced, round_plain;  // timed ms per round
  std::vector<double> pool_wait_ms;
  // dist counters per sample, summed over the batch
  std::map<std::string, std::vector<double>> dist_counts;
};

void add_dist_counts(Rounds& r, const std::vector<RunOut>& outs) {
  std::map<std::string, double> sum;
  for (const RunOut& o : outs) {
    sum["spmd.fused_elems"] += double(o.paths.fused);
    sum["spmd.generic_elems"] += double(o.paths.generic);
    sum["spmd.interp_elems"] += double(o.paths.interp);
    sum["spmd.jit_elems"] += double(o.paths.jit);
    sum["spmd.sched_elems"] += double(o.paths.sched);
    sum["spmd.plan_cache_hits"] += double(o.plan_hits);
    sum["spmd.plan_cache_misses"] += double(o.plan_misses);
    sum["spmd.sched_builds"] += double(o.comm.sched_builds);
    sum["spmd.sched_hits"] += double(o.comm.sched_hits);
    sum["spmd.sched_fallbacks"] += double(o.comm.sched_fallbacks);
    sum["spmd.packed_bytes"] += double(o.comm.packed_bytes);
    sum["spmd.jit_fallbacks"] += double(o.jit.fallbacks);
  }
  for (const auto& [k, v] : sum) r.dist_counts[k].push_back(v);
}

// Rounds of direct-target samples for `seconds`. Whenever a chunk's
// worth of requests is due, a round is followed by a chunk of the serve
// loop that brings its count in step with the elapsed time.
Rounds run_rounds(State& st, const Args& args, double seconds,
                  ServeLoop& serve, Ledger& ledger) {
  Rounds r;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  // Traced runs alternate traced and untraced rounds, so the difference
  // is the tracing overhead.
  const int min_rounds = args.trace ? 4 : 3;
  support::ThreadPool& pool = support::ThreadPool::shared();
  for (int round = 0; round < min_rounds || Clock::now() < deadline;
       ++round) {
    const bool traced = args.trace && round % 2 == 1;
    vbench::spans_enable(traced);
    double timed = compile_sample(st.progs, args.trace);
    r.compile.push_back(timed);
    double pool_wait = 0.0;
    // Rotate the order so no target always follows the same neighbour.
    for (int k = 0; k < kTargets; ++k) {
      const Target t = static_cast<Target>((round + k) % kTargets);
      std::vector<RunOut> outs(st.progs.size());
      double ms = 0.0;
      const i64 w0 = pool.join_wait_ns();
      for (std::size_t i = 0; i < st.progs.size(); ++i) {
        try {
          ms += run_target(t, st.progs[i], st.engines, outs[i]);
        } catch (const std::exception& ex) {
          outs[i].stores.clear();
          ledger.record(false, std::string(kTargetName[int(t)]) +
                                   " threw: " + ex.what());
          continue;
        }
        const std::string bad = check_run(t, st.progs[i], outs[i]);
        ledger.record(bad.empty(), std::string(kTargetName[int(t)]) + ": " +
                                       bad);
      }
      if (t == Target::Dist || t == Target::Shared)
        pool_wait += double(pool.join_wait_ns() - w0) / 1e6;
      if (t == Target::Dist) add_dist_counts(r, outs);
      ms /= static_cast<double>(st.progs.size());
      r.target[int(t)].push_back(ms);
      timed += ms;
    }
    vbench::spans_enable(false);
    r.pool_wait_ms.push_back(pool_wait /
                             static_cast<double>(st.progs.size()));
    (traced ? r.round_traced : r.round_plain).push_back(timed);
    const double done =
        std::min(1.0, ms_between(start, Clock::now()) / (seconds * 1000.0));
    const i64 quota = static_cast<i64>(std::ceil(done * double(serve.total)));
    if (quota - serve.sent.load() >= serve.total / kServeChunks)
      serve_chunk(st, args, serve, quota, false);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  if (argc >= 2 && std::strcmp(argv[1], "--rank") == 0) {
    if (argc != 5 || std::strcmp(argv[3], "--channel-dir") != 0)
      return usage(argv[0]);
    return proc::worker_main(std::atoll(argv[2]), argv[4]);
  }
  if (argc == 3 && std::strcmp(argv[1], "--serve") == 0)
    return serve_main(argv[2]);

  Args args;
  for (int k = 1; k + 1 < argc; k += 2) {
    const std::string flag = argv[k], val = argv[k + 1];
    if (flag == "--workload") args.workload = val;
    else if (flag == "--seed") args.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::atof(val.c_str());
    else if (flag == "--trace") args.trace = val == "1";
    else if (flag == "--work-dir") args.work_dir = val;
    else if (flag == "--spans") args.spans_path = val;
    else return usage(argv[0]);
  }
  const auto& names = vbench::workload_names();
  if (argc % 2 == 0 || args.seconds <= 0.0 || args.work_dir.empty() ||
      std::find(names.begin(), names.end(), args.workload) == names.end())
    return usage(argv[0]);

  Ledger ledger;
  std::unique_ptr<State> st;
  std::vector<double> setup_s;
  try {
    for (int k = 0; k < kSetups; ++k) {
      const auto t0 = k == 0 ? process_start : Clock::now();
      st.reset();
      st = setup(args, k, ledger);
      setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "vbench: setup failed: %s\n", ex.what());
    return 1;
  }

  ServeLoop serve;
  serve_start(*st, args, serve);
  Rounds rounds =
      run_rounds(*st, args, args.seconds * kRoundsShare, serve, ledger);
  serve_chunk(*st, args, serve, serve.total, true);
  serve.res.after = st->server->stats();
  const ServeResult& served = serve.res;
  check_replies(*st, args, served, ledger);

  // Serve figures, split cold/warm by what the server reported.
  std::vector<double> all_ms, warm_ms, cold_ms;
  i64 per_target[3] = {0, 0, 0};
  for (const Reply& r : served.replies) {
    if (r.status != serve::Status::Ok) continue;
    all_ms.push_back(r.ms);
    (r.hit ? warm_ms : cold_ms).push_back(r.ms);
    ++per_target[static_cast<int>(r.target)];
  }
  const double n_ok = static_cast<double>(all_ms.size());
  const double hit_share = n_ok > 0 ? double(warm_ms.size()) / n_ok : 0.0;

  std::printf("vbench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), (unsigned long long)args.seed,
              args.seconds, args.trace ? 1 : 0);
  std::printf("  setup_s runs:");
  for (double s : setup_s) std::printf(" %.3f", s);
  std::printf("\n");
  std::printf("  samples: compile=%zu", rounds.compile.size());
  for (int t = 0; t < kTargets; ++t)
    std::printf(" %s=%zu", kTargetName[t], rounds.target[t].size());
  std::printf(" (%zu programs each)\n", st->progs.size());
  std::printf(
      "  serve mix: %zu requests (%zu warm, %zu cold), hit share %.3f, "
      "targets dist=%.3f shared=%.3f seq=%.3f, %zu clients; p99 %.4g ms "
      "over %zu samples\n",
      served.replies.size(), warm_ms.size(), cold_ms.size(), hit_share,
      n_ok > 0 ? per_target[0] / n_ok : 0.0,
      n_ok > 0 ? per_target[1] / n_ok : 0.0,
      n_ok > 0 ? per_target[2] / n_ok : 0.0, st->sessions.size(),
      percentile(all_ms, 0.99), all_ms.size());
  std::printf("  failed_ratio: %lld/%lld\n", (long long)ledger.failed,
              (long long)ledger.attempted);
  for (const std::string& note : ledger.notes)
    std::fprintf(stderr, "vbench: FAILED: %s\n", note.c_str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"compile_ms", timing(rounds.compile), "ms"},
        {"seq_ms", timing(rounds.target[int(Target::Seq)]), "ms"},
        {"shared_ms", timing(rounds.target[int(Target::Shared)]), "ms"},
        {"dist_ms", timing(rounds.target[int(Target::Dist)]), "ms"},
        {"native_ms", timing(rounds.target[int(Target::Native)]), "ms"},
        {"proc_ms", timing(rounds.target[int(Target::Proc)]), "ms"},
        {"serve_rps", median(served.chunk_rps), "req/s"},
        {"serve_warm_p50_ms", median(warm_ms), "ms"},
        {"serve_cold_p50_ms", median(cold_ms), "ms"},
        {"peak_rss_mb", own_peak_rss_mb() + st->server->peak_rss_mb(),
         "MB"},
    };
  } else {
    const vbench::SpanSummary spans = vbench::summarize_spans();
    auto layer = [&](const char* span) {
      auto it = spans.self_ms_per_unit.find(span);
      return it == spans.self_ms_per_unit.end() ? 0.0 : median(it->second);
    };
    auto count = [&](const char* name) {
      auto it = rounds.dist_counts.find(name);
      return it == rounds.dist_counts.end() ? 0.0 : median(it->second);
    };
    double source_kb = 0.0, clauses = 0.0, sim_time = 0.0;
    rt::DistStats exact;
    MethodTally methods;
    for (const Prog& p : st->progs) {
      source_kb += double(p.source.size()) / 1024.0;
      clauses += double(p.program.clause_count());
      build_plans(p.program, 0, &methods);
      exact.tests += p.dist_ref.tests;
      exact.iterations += p.dist_ref.iterations;
      exact.messages += p.dist_ref.messages;
      exact.bulk_messages += p.dist_ref.bulk_messages;
      exact.halo_messages += p.dist_ref.halo_messages;
      exact.remote_reads += p.dist_ref.remote_reads;
      sim_time += p.dist_ref.sim_time;
    }
    const double np = static_cast<double>(st->progs.size());
    const double dist_ms = timing(rounds.target[int(Target::Dist)]);

    // The cost model's makespan, priced by obs::calibrate's fit on the
    // same programs, against the measured dist time.
    double model_error_pct = -1.0;
    try {
      std::vector<std::pair<std::string, spmd::Program>> benches;
      for (const Prog& p : st->progs) benches.emplace_back("p", p.program);
      const obs::CalibrationReport cal = obs::calibrate(benches);
      const double predicted_ms = sim_time / np * cal.ns_per_sim_unit / 1e6;
      if (dist_ms > 0.0)
        model_error_pct = std::fabs(predicted_ms - dist_ms) / dist_ms * 100.0;
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "vbench: calibration failed: %s\n", ex.what());
    }

    const double overhead_pct =
        (median(rounds.round_traced) / median(rounds.round_plain) - 1.0) *
        100.0;
    metrics = {
        {"lang.parse_ms", layer("lang::parse"), "ms"},
        {"lang.translate_ms", layer("lang::translate"), "ms"},
        {"lang.source_kb", source_kb / np, "KiB"},
        {"lang.clauses", clauses / np, "count"},
        {"spmd.plan_build_ms", layer("spmd::ClausePlan::build"), "ms"},
        {"spmd.kernel_compile_ms", layer("spmd::ClauseKernel::compile"),
         "ms"},
    };
    for (int m = 0; m <= static_cast<int>(gen::Method::RuntimeResolution);
         ++m) {
      const std::string name = gen::to_string(static_cast<gen::Method>(m));
      metrics.push_back({"gen.methods." + name, double(methods[name]),
                         "count"});
    }
    const std::vector<Metric> rest = {
        {"gen.tests", double(exact.tests), "count"},
        {"gen.iterations", double(exact.iterations), "count"},
        {"spmd.fused_elems", count("spmd.fused_elems"), "count"},
        {"spmd.generic_elems", count("spmd.generic_elems"), "count"},
        {"spmd.interp_elems", count("spmd.interp_elems"), "count"},
        {"spmd.jit_elems", count("spmd.jit_elems"), "count"},
        {"spmd.sched_elems", count("spmd.sched_elems"), "count"},
        {"spmd.plan_cache_hits", count("spmd.plan_cache_hits"), "count"},
        {"spmd.plan_cache_misses", count("spmd.plan_cache_misses"), "count"},
        {"spmd.sched_builds", count("spmd.sched_builds"), "count"},
        {"spmd.sched_hits", count("spmd.sched_hits"), "count"},
        {"spmd.sched_fallbacks", count("spmd.sched_fallbacks"), "count"},
        {"spmd.packed_bytes", count("spmd.packed_bytes"), "B"},
        {"spmd.jit_builds", double(st->facts.jit_builds), "count"},
        {"spmd.jit_compile_ms", st->facts.jit_compile_ms, "ms"},
        {"spmd.jit_fallbacks", count("spmd.jit_fallbacks"), "count"},
        {"native.compile_ms", st->facts.native_compile_ms, "ms"},
        {"native.source_kb", st->facts.native_source_kb, "KiB"},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());
    const char* const phase[4] = {"construct", "load", "run", "gather"};
    for (int t = 0; t < kTargets; ++t) {
      const PhaseNames& n = kPhases[t];
      const char* const spans_of[4] = {n.construct, n.load, n.run, n.gather};
      const std::string prefix =
          t == int(Target::Proc) ? "proc." : std::string("rt.") +
                                                 kTargetName[t] + ".";
      for (int k = 0; k < 4; ++k)
        metrics.push_back({prefix + phase[k] + "_ms", layer(spans_of[k]),
                           "ms"});
    }
    const double server_hits = double(served.after.cache_hits -
                                      served.before.cache_hits);
    const double server_misses = double(served.after.cache_misses -
                                        served.before.cache_misses);
    const std::vector<Metric> tail = {
        {"rt.pool_join_wait_ms", median(rounds.pool_wait_ms), "ms"},
        {"rt.messages", double(exact.messages), "count"},
        {"rt.bulk_messages", double(exact.bulk_messages), "count"},
        {"rt.halo_messages", double(exact.halo_messages), "count"},
        {"rt.remote_reads", double(exact.remote_reads), "count"},
        {"rt.sim_time", sim_time, "units"},
        {"proc.messages", double(exact.messages), "count"},
        {"serve.client_p50_ms", median(all_ms), "ms"},
        {"serve.p99_ms", percentile(all_ms, 0.99), "ms"},
        {"serve.server_p50_ms", served.after.p50_ms, "ms"},
        {"serve.submit_ms", layer("serve::Client::submit"), "ms"},
        {"serve.requests", n_ok, "count"},
        {"serve.hit_ratio",
         server_hits + server_misses > 0
             ? server_hits / (server_hits + server_misses)
             : 0.0,
         "fraction"},
        {"serve.share_seq", n_ok > 0 ? per_target[2] / n_ok : 0.0,
         "fraction"},
        {"serve.share_shared", n_ok > 0 ? per_target[1] / n_ok : 0.0,
         "fraction"},
        {"serve.share_dist", n_ok > 0 ? per_target[0] / n_ok : 0.0,
         "fraction"},
        {"serve.compiles",
         double(served.after.compiles - served.before.compiles), "count"},
        {"serve.coalesced",
         double(served.after.cache_coalesced -
                served.before.cache_coalesced),
         "count"},
        {"serve.queue_peak", double(served.after.queue_peak), "count"},
        {"serve.rejected",
         double(served.after.rejected - served.before.rejected), "count"},
        {"obs.trace_overhead_pct", overhead_pct, "%"},
        {"obs.span_cost_ns", vbench::span_cost_ns(100000), "ns"},
        {"obs.trace_events", double(spans.recorded), "count"},
        {"obs.trace_dropped", double(spans.dropped), "count"},
        {"obs.model_error_pct", model_error_pct, "%"},
    };
    metrics.insert(metrics.end(), tail.begin(), tail.end());
    if (!args.spans_path.empty()) {
      const bool ok = vbench::write_chrome_trace(args.spans_path);
      ledger.record(ok, "cannot write " + args.spans_path);
      if (ok) std::printf("  spans: %s\n", args.spans_path.c_str());
    }
  }
  print_json(metrics, ledger);
  return ledger.failed == 0 ? 0 : 1;
}
