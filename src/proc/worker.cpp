// Rank worker of the multi-process backend.
//
// The worker runs one rank of the SPMD clause template through the same
// rank-step the simulator runs (rt/rank_step.hpp): the bytecode kernel,
// the fused strided loops, the counters and the deadlock diagnostic are
// shared code, and only the channel transport differs — the simulator's
// in-process channel array becomes the mmap'd rings here.
//
// Per clause step, rank p:
//   0. computes its outgoing halo values (push model: the owner
//      enumerates every reader's halo region — the same enumeration the
//      reader performs — and ships the values it owns, so both sides
//      agree on stream order without a request round-trip);
//   1. runs rt::send_phase into one channel per destination and queues
//      each packed channel as one CLAUSE frame of (tag, value) slots;
//   2. pumps the rings — interleaving partial writes with opportunistic
//      reads so frames larger than a ring never head-of-line deadlock —
//      until everything queued is sent and every expected frame arrived;
//   3. rebuilds each incoming Channel, applies any armed message faults
//      addressed to it, and runs rt::update_phase;
//   4. reports its RankCounters, PathCounters, message-matrix row delta,
//      and applied faults in one STEP control frame.
//
// Schedule replay and the per-clause JIT stay simulator-only: workers
// always run the tagged path on the bytecode kernel.
//
// Redistribution steps move only values: every counter is derivable
// from the old/new descriptors, so the launcher recomputes and verifies
// them centrally while the worker ships one REDIST frame per pair.
#include "proc/worker.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "decomp/array_desc.hpp"
#include "lang/translate.hpp"
#include "obs/trace.hpp"
#include "proc/control.hpp"
#include "proc/job.hpp"
#include "proc/ring.hpp"
#include "proc/wire.hpp"
#include "rt/channel.hpp"
#include "rt/cost_model.hpp"
#include "rt/rank_step.hpp"
#include "spmd/plan_cache.hpp"
#include "spmd/program.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace vcal::proc {

namespace {

using prog::Clause;
using rt::Channel;
using rt::FaultPlan;
using rt::RankCounters;
using spmd::ClausePlan;

using Clock = std::chrono::steady_clock;

struct InFrame {
  FrameKind kind = FrameKind::Clause;
  i64 step = 0;
  std::vector<Slot> payload;
};

// One peer rank's transport state. sendq/sent reset each step; the raw
// receive buffer and parsed-frame queue carry across steps (a fast peer
// may already be streaming the next step's frames).
struct PeerLink {
  Ring out, in;
  std::vector<Slot> sendq;
  i64 sent = 0;
  std::vector<Slot> raw;
  std::size_t parsed = 0;
  std::deque<InFrame> frames;
  i64 expect = 0;  // frames still owed for the current step
};

int connect_control(const std::string& path, i64 timeout_ms) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  require(fd >= 0, "proc worker: cannot create control socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  require(path.size() < sizeof addr.sun_path,
          "proc worker: control socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof addr) == 0)
      return fd;
    if (Clock::now() > deadline) {
      ::close(fd);
      throw RuntimeFault("proc worker: cannot reach control socket " +
                         path);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

class Worker {
 public:
  Worker(i64 rank, std::string dir, JobSpec job, int ctl)
      : rank_(rank), dir_(std::move(dir)), job_(std::move(job)), ctl_(ctl) {
    program_ = lang::compile(job_.source);
    program_.validate();
    require(program_.procs == job_.procs,
            "proc worker: job processor count disagrees with the program");
    require(in_range(rank_, 0, program_.procs - 1),
            cat("proc worker: rank ", rank_, " out of range for ",
                program_.procs, " processors"));
    procs_ = program_.procs;
    if (job_.engine.trace)
      tracer_ = std::make_unique<obs::Tracer>(1, job_.engine.trace_capacity);

    // Crash hook for the launcher's lifecycle tests: simulate a
    // kill -9'd rank deterministically at a chosen step.
    if (const char* cr = std::getenv("VCAL_PROC_TEST_CRASH_RANK")) {
      crash_rank_ = std::atoll(cr);
      if (const char* cs = std::getenv("VCAL_PROC_TEST_CRASH_STEP"))
        crash_step_ = std::atoll(cs);
    }

    peers_.resize(static_cast<std::size_t>(procs_));
    for (i64 q = 0; q < procs_; ++q) {
      if (q == rank_) continue;
      PeerLink& link = peers_[static_cast<std::size_t>(q)];
      link.out.open(ring_path(dir_, rank_, q));
      link.in.open(ring_path(dir_, q, rank_));
    }

    // Declare local rows and load the inputs, mirroring DistStore
    // restricted to this rank.
    for (const auto& [name, desc] : program_.arrays)
      rows_[name].assign(static_cast<std::size_t>(
                             desc.local_capacity(rank_)),
                         0.0);
    for (const auto& [name, dense] : job_.inputs) load(name, dense);
  }

  void hello() {
    WireWriter w;
    w.put_i64(rank_);
    std::vector<std::uint8_t> echo = encode_options_echo(job_);
    w.put_u32(static_cast<std::uint32_t>(echo.size()));
    w.bytes.insert(w.bytes.end(), echo.begin(), echo.end());
    send_frame(ctl_, MsgType::Hello, w.bytes);
  }

  void wait_go() {
    ControlFrame f;
    require(recv_frame(ctl_, &f) && f.type == MsgType::Go,
            "proc worker: expected GO from the launcher");
  }

  void run() {
    for (const spmd::Step& step : program_.steps) {
      if (rank_ == crash_rank_ && step_ == crash_step_) ::raise(SIGKILL);
      if (const auto* clause = std::get_if<Clause>(&step))
        run_clause(*clause);
      else
        run_redistribute(std::get<spmd::RedistStep>(step));
      ++step_;
    }
  }

  void send_result() {
    WireWriter w;
    w.put_u32(static_cast<std::uint32_t>(rows_.size()));
    for (const auto& [name, row] : rows_) {
      w.put_str(name);
      w.put_f64s(row);
    }
    w.put_u8(tracer_ ? 1 : 0);
    if (tracer_) {
      const obs::RankTrace& lane = tracer_->lane(0);
      w.put_u32(static_cast<std::uint32_t>(lane.size()));
      lane.for_each([&](const obs::TraceEvent& e) {
        w.put_u8(static_cast<std::uint8_t>(e.kind));
        w.put_i64(e.step);
        w.put_i64(e.wall_ns);
        w.put_f64(e.virt);
        w.put_i64(e.a0);
        w.put_i64(e.a1);
        w.put_i64(e.a2);
        w.put_i64(e.a3);
      });
      w.put_i64(lane.dropped());
    }
    send_frame(ctl_, MsgType::Result, w.bytes);
  }

  void send_error(ErrCode code, const std::string& msg) {
    WireWriter w;
    w.put_u32(static_cast<std::uint32_t>(code));
    w.put_i64(rank_);
    w.put_i64(step_);
    w.put_str(msg);
    send_frame(ctl_, MsgType::Error, w.bytes);
  }

 private:
  // ---- store helpers (DistStore semantics, own rank only) ------------

  void load(const std::string& name, const std::vector<double>& dense) {
    auto it = program_.arrays.find(name);
    require(it != program_.arrays.end(),
            "proc worker: load of unknown array " + name);
    const decomp::ArrayDesc& desc = it->second;
    require(static_cast<i64>(dense.size()) == desc.total(),
            "DistStore::load size mismatch for " + name);
    std::vector<double>& row = rows_[name];
    row.assign(static_cast<std::size_t>(desc.local_capacity(rank_)), 0.0);
    decomp::for_each_index(desc, [&](const std::vector<i64>& idx) {
      if (!desc.is_replicated() && desc.owner(idx) != rank_) return;
      row[static_cast<std::size_t>(desc.local_linear(idx))] =
          dense[static_cast<std::size_t>(desc.dense_linear(idx))];
    });
  }

  // ---- transport -----------------------------------------------------

  void queue_frame(i64 dst, FrameKind kind, const std::vector<Slot>& payload) {
    PeerLink& link = peers_[static_cast<std::size_t>(dst)];
    link.sendq.push_back(frame_header(
        kind, static_cast<std::uint32_t>(payload.size()), step_));
    link.sendq.insert(link.sendq.end(), payload.begin(), payload.end());
  }

  void parse_frames(PeerLink& link, i64 src) {
    for (;;) {
      const std::size_t avail = link.raw.size() - link.parsed;
      if (avail < 1) break;
      FrameKind kind;
      std::uint32_t count;
      i64 fstep;
      if (!parse_frame_header(link.raw[link.parsed], &kind, &count, &fstep))
        throw RuntimeFault(cat("proc ring: corrupt frame header from rank ",
                               src, " on rank ", rank_));
      if (avail < 1 + static_cast<std::size_t>(count)) break;
      InFrame f;
      f.kind = kind;
      f.step = fstep;
      f.payload.assign(
          link.raw.begin() + static_cast<std::ptrdiff_t>(link.parsed + 1),
          link.raw.begin() +
              static_cast<std::ptrdiff_t>(link.parsed + 1 + count));
      link.frames.push_back(std::move(f));
      link.parsed += 1 + count;
    }
    if (link.parsed > 4096) {
      link.raw.erase(link.raw.begin(),
                     link.raw.begin() +
                         static_cast<std::ptrdiff_t>(link.parsed));
      link.parsed = 0;
    }
  }

  // Drives every ring until this step's queued frames are fully written
  // and the expected incoming frames have fully arrived. Writes and
  // reads interleave so a frame larger than the ring drains in chunks;
  // every ring keeps being read even while this rank still has data to
  // push, so no head-of-line cycle can wedge the step.
  void pump() {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(job_.timeout_ms);
    Slot scratch[256];
    int idle = 0;
    for (;;) {
      bool progress = false;
      bool done = true;
      for (i64 q = 0; q < procs_; ++q) {
        if (q == rank_) continue;
        PeerLink& link = peers_[static_cast<std::size_t>(q)];
        const i64 pending = static_cast<i64>(link.sendq.size()) - link.sent;
        if (pending > 0) {
          i64 wrote = link.out.try_write(link.sendq.data() + link.sent,
                                         pending);
          link.sent += wrote;
          if (wrote > 0) progress = true;
          if (link.sent < static_cast<i64>(link.sendq.size())) done = false;
        }
        i64 got = link.in.try_read(scratch, 256);
        if (got > 0) {
          progress = true;
          link.raw.insert(link.raw.end(), scratch, scratch + got);
          parse_frames(link, q);
        }
        if (static_cast<i64>(link.frames.size()) < link.expect)
          done = false;
      }
      if (done) return;
      if (progress) {
        idle = 0;
        continue;
      }
      if (Clock::now() > deadline)
        throw RuntimeFault(
            cat("proc transport timed out on rank ", rank_, " at step ",
                step_, " after ", job_.timeout_ms,
                " ms waiting on peers"));
      // Spin briefly, then yield, then sleep: latency for the common
      // case, no busy-burn while a slow peer computes.
      ++idle;
      if (idle > 64) std::this_thread::yield();
      if (idle > 512)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  InFrame take_frame(i64 src, FrameKind kind) {
    PeerLink& link = peers_[static_cast<std::size_t>(src)];
    require(!link.frames.empty(),
            "proc worker: frame queue underflow (protocol bug)");
    InFrame f = std::move(link.frames.front());
    link.frames.pop_front();
    if (f.kind != kind || f.step != step_)
      throw RuntimeFault(cat(
          "proc ring: protocol violation on rank ", rank_, ": expected ",
          static_cast<int>(kind), " for step ", step_, " from rank ", src,
          ", got ", static_cast<int>(f.kind), " for step ", f.step));
    return f;
  }

  void begin_step() {
    for (i64 q = 0; q < procs_; ++q) {
      PeerLink& link = peers_[static_cast<std::size_t>(q)];
      link.sendq.clear();
      link.sent = 0;
      link.expect = 0;
    }
  }

  void send_step(const RankCounters& rc, const rt::PathCounters& pc,
                 const std::vector<i64>& matrix_row, i64 faults_delta) {
    WireWriter w;
    w.put_i64(step_);
    put_rank_counters(w, rc);
    put_path_counters(w, pc);
    w.put_u32(static_cast<std::uint32_t>(matrix_row.size()));
    for (i64 v : matrix_row) w.put_i64(v);
    w.put_i64(faults_delta);
    send_frame(ctl_, MsgType::Step, w.bytes);
  }

  // ---- clause steps --------------------------------------------------

  const ClausePlan& plan_for(const Clause& clause,
                             std::optional<ClausePlan>& uncached) {
    if (!job_.engine.cache_plans) {
      uncached.emplace(ClausePlan::build(clause, program_.arrays,
                                         job_.build));
      return *uncached;
    }
    auto [ki, fresh] = step_keys_.try_emplace(&clause, std::string{});
    if (fresh) ki->second = clause.str();
    return cache_.get(ki->second, clause, program_.arrays, job_.build);
  }

  void run_clause(const Clause& clause) {
    if (clause.ord == prog::Ordering::Seq)
      throw CodegenError(
          "sequential ('•') clauses are not supported on the distributed "
          "target; the paper leaves DOACROSS orderings out of scope");

    obs::Tracer* tr = tracer_.get();
    const i64 p = rank_;
    begin_step();

    std::optional<ClausePlan> uncached;
    const ClausePlan& plan = plan_for(clause, uncached);
    const int nrefs = static_cast<int>(clause.refs.size());

    // Copy-in snapshot of this rank's row when the clause reads its own
    // target: senders and local reads must observe pre-clause values.
    std::optional<std::vector<double>> snap;
    if (rt::reads_own_target(clause)) snap = rows_.at(clause.lhs_array);

    RankCounters rc;
    rt::PathCounters pc;
    rt::RankStep s{.clause = &clause, .plan = &plan, .rank = p,
                   .step_id = step_, .counters = &rc, .paths = &pc,
                   .tracer = tr};
    for (int r = 0; r < nrefs; ++r) {
      const std::string& name = clause.refs[static_cast<std::size_t>(r)].array;
      s.rows.push_back(snap && name == clause.lhs_array ? &*snap
                                                         : &rows_.at(name));
    }
    s.halos.assign(static_cast<std::size_t>(nrefs), nullptr);

    // ---- Phase 0: halo exchange (push model) -------------------------
    // Every rank replays the simulator's halo enumeration for every
    // reader: it takes the reader role when q == p (counting the
    // reader-side increments and recording which stream each remote
    // value arrives on) and the owner role when owner == p (counting the
    // owner-side increments and shipping the value). Both sides agree
    // on stream order without a request round-trip.
    VCAL_TRACE(tr, 0, obs::EventKind::HaloBegin, step_);
    std::unordered_map<std::string, rt::HaloCopy> halo;
    struct Need {
      rt::HaloCopy* copy;
      i64 g;
      i64 src;
    };
    std::vector<Need> needs;
    std::vector<std::vector<Slot>> halo_out(static_cast<std::size_t>(procs_));
    for (int r = 0; r < nrefs; ++r) {
      const decomp::ArrayDesc& rd = plan.ref_desc(r);
      if (rd.halo() == 0) continue;
      auto [it, fresh] = halo.try_emplace(rd.name());
      rt::HaloCopy& copy = it->second;
      s.halos[static_cast<std::size_t>(r)] = &copy;
      if (!fresh) continue;
      const std::vector<double>& row = *s.rows[static_cast<std::size_t>(r)];
      auto own_value = [&](i64 g) {
        i64 local = rd.local_linear({g});
        if (!in_range(local, 0, static_cast<i64>(row.size()) - 1))
          throw RuntimeFault("local read out of bounds on " + rd.name());
        return row[static_cast<std::size_t>(local)];
      };
      for (i64 q = 0; q < procs_; ++q)
        rt::for_each_halo_element(rd, q, [&](i64 g, i64 owner, bool new_bulk) {
          if (owner == p) {
            if (new_bulk) ++rc.halo_bulk;
            ++rc.halo_values;
          }
          if (q == p) {
            if (new_bulk) ++rc.halo_bulk;
            ++rc.halo_values;
            if (owner == p)
              copy[g] = own_value(g);
            else
              needs.push_back(Need{&copy, g, owner});
          } else if (owner == p) {
            halo_out[static_cast<std::size_t>(q)].push_back(
                value_slot(own_value(g)));
          }
        });
    }

    // ---- Phase 1: non-blocking sends (Reside_p \ Modify_p) -----------
    std::vector<Channel> out(static_cast<std::size_t>(procs_));
    std::vector<i64> matrix_row(static_cast<std::size_t>(procs_), 0);
    rt::send_phase(s, rt::ChannelRow{out.data(), 1}, matrix_row);
    // One CLAUSE frame per destination — sent even when empty, so a
    // missing message manifests exactly as in the simulator (an absent
    // tag in a delivered channel), never as a transport hang.
    for (i64 dst = 0; dst < procs_; ++dst) {
      if (dst == p) continue;
      if (!halo.empty())
        queue_frame(dst, FrameKind::Halo,
                    halo_out[static_cast<std::size_t>(dst)]);
      std::vector<Slot> payload;
      payload.reserve(out[static_cast<std::size_t>(dst)].msgs.size());
      for (const auto& [tag, value] : out[static_cast<std::size_t>(dst)].msgs)
        payload.push_back(clause_slot(tag, value));
      queue_frame(dst, FrameKind::Clause, payload);
      peers_[static_cast<std::size_t>(dst)].expect = halo.empty() ? 1 : 2;
    }

    pump();

    // Fill the halo copies from the per-source streams (arrival order ==
    // the shared enumeration order restricted to each owner).
    std::vector<InFrame> halo_in(static_cast<std::size_t>(procs_));
    if (!halo.empty())
      for (i64 src = 0; src < procs_; ++src) {
        if (src == p) continue;
        halo_in[static_cast<std::size_t>(src)] =
            take_frame(src, FrameKind::Halo);
      }
    std::vector<std::size_t> cursor(static_cast<std::size_t>(procs_), 0);
    for (const Need& need : needs) {
      const InFrame& f = halo_in[static_cast<std::size_t>(need.src)];
      std::size_t& c = cursor[static_cast<std::size_t>(need.src)];
      require(c < f.payload.size(),
              "proc worker: halo stream underflow (protocol bug)");
      (*need.copy)[need.g] = slot_value(f.payload[c++]);
    }
    VCAL_TRACE(tr, 0, obs::EventKind::HaloEnd, step_);

    // Rebuild the incoming channels: the sender shipped its packed
    // channel, so push + pack() reproduces it bit for bit.
    std::vector<Channel> in(static_cast<std::size_t>(procs_));
    for (i64 src = 0; src < procs_; ++src) {
      if (src == p) continue;
      Channel& ch = in[static_cast<std::size_t>(src)];
      for (const Slot& sl : take_frame(src, FrameKind::Clause).payload)
        ch.push(slot_tag(sl), slot_value(sl));
      ch.pack();
    }
    // Armed message faults addressed to this rank perturb the packed
    // channels, in injection order — the simulator's serial fault loop
    // restricted to dst == p.
    i64 faults_delta = 0;
    for (const FaultPlan& f : job_.faults)
      if (f.step == step_ && f.dst == p && in_range(f.src, 0, procs_ - 1) &&
          rt::apply_message_fault(f, in[static_cast<std::size_t>(f.src)]))
        ++faults_delta;

    // ---- Phase 2: receive and update (Modify_p) ----------------------
    const rt::ChannelRow in_row{in.data(), 1};
    rt::update_phase(s, in_row, rows_.at(clause.lhs_array), nullptr);
    rt::check_delivered(p, in_row, procs_);

    send_step(rc, pc, matrix_row, faults_delta);
  }

  // ---- redistribution steps ------------------------------------------

  void run_redistribute(const spmd::RedistStep& step) {
    obs::Tracer* tr = tracer_.get();
    const i64 p = rank_;
    begin_step();
    VCAL_TRACE(tr, 0, obs::EventKind::RedistBegin, step_);
    const decomp::ArrayDesc& old_desc = program_.arrays.at(step.array);
    const decomp::ArrayDesc& new_desc = step.new_desc;
    const std::vector<double>& old_row = rows_.at(step.array);
    std::vector<double> fresh(
        static_cast<std::size_t>(new_desc.local_capacity(p)), 0.0);

    RankCounters rc;
    std::vector<i64> matrix_row(static_cast<std::size_t>(procs_), 0);
    std::vector<std::vector<Slot>> outgoing(
        static_cast<std::size_t>(procs_));
    std::vector<i64> expect_in(static_cast<std::size_t>(procs_), 0);
    auto read_old = [&](const std::vector<i64>& idx) {
      i64 local = old_desc.local_linear(idx);
      if (!in_range(local, 0, static_cast<i64>(old_row.size()) - 1))
        throw RuntimeFault("local read out of bounds on " + step.array);
      return old_row[static_cast<std::size_t>(local)];
    };
    decomp::for_each_index(old_desc, [&](const std::vector<i64>& idx) {
      i64 src = old_desc.owner(idx);
      i64 dst = new_desc.owner(idx);
      if (src == p) ++rc.iterations;
      if (src != dst) {
        if (src == p) {
          ++rc.sends;
          ++matrix_row[static_cast<std::size_t>(dst)];
          outgoing[static_cast<std::size_t>(dst)].push_back(
              value_slot(read_old(idx)));
        }
        if (dst == p) {
          ++rc.receives;
          ++expect_in[static_cast<std::size_t>(src)];
        }
      } else if (src == p) {
        fresh[static_cast<std::size_t>(new_desc.local_linear(idx))] =
            read_old(idx);
      }
    });
    for (i64 q = 0; q < procs_; ++q) {
      if (q == p) continue;
      if (!outgoing[static_cast<std::size_t>(q)].empty()) ++rc.bulk_sends;
      if (expect_in[static_cast<std::size_t>(q)] > 0) ++rc.bulk_receives;
      queue_frame(q, FrameKind::Redist,
                  outgoing[static_cast<std::size_t>(q)]);
      peers_[static_cast<std::size_t>(q)].expect = 1;
    }

    pump();

    std::vector<InFrame> incoming(static_cast<std::size_t>(procs_));
    for (i64 src = 0; src < procs_; ++src) {
      if (src == p) continue;
      incoming[static_cast<std::size_t>(src)] =
          take_frame(src, FrameKind::Redist);
      require(static_cast<i64>(
                  incoming[static_cast<std::size_t>(src)].payload.size()) ==
                  expect_in[static_cast<std::size_t>(src)],
              "proc worker: redistribution stream length mismatch");
    }
    std::vector<std::size_t> cursor(static_cast<std::size_t>(procs_), 0);
    decomp::for_each_index(old_desc, [&](const std::vector<i64>& idx) {
      i64 src = old_desc.owner(idx);
      i64 dst = new_desc.owner(idx);
      if (dst != p || src == dst) return;
      std::size_t& c = cursor[static_cast<std::size_t>(src)];
      fresh[static_cast<std::size_t>(new_desc.local_linear(idx))] =
          slot_value(incoming[static_cast<std::size_t>(src)].payload[c++]);
    });

    rows_.at(step.array) = std::move(fresh);
    program_.arrays.insert_or_assign(step.array, new_desc);
    cache_.bump_epoch();
    VCAL_TRACE(tr, 0, obs::EventKind::RedistEnd, step_);
    send_step(rc, {}, matrix_row, 0);
  }

  i64 rank_ = 0;
  i64 procs_ = 0;
  std::string dir_;
  JobSpec job_;
  spmd::Program program_;
  std::map<std::string, std::vector<double>> rows_;
  spmd::PlanCache cache_;
  std::map<const Clause*, std::string> step_keys_;
  std::vector<PeerLink> peers_;
  std::unique_ptr<obs::Tracer> tracer_;
  int ctl_ = -1;
  i64 step_ = 0;
  i64 crash_rank_ = -1;
  i64 crash_step_ = 0;
};

}  // namespace

int worker_main(i64 rank, const std::string& channel_dir) {
  ::signal(SIGPIPE, SIG_IGN);
  int ctl = -1;
  try {
    JobSpec job = load_job(job_path(channel_dir));
    ctl = connect_control(control_socket_path(channel_dir),
                          job.timeout_ms);
    Worker w(rank, channel_dir, std::move(job), ctl);
    w.hello();
    w.wait_go();
    try {
      w.run();
      w.send_result();
      send_frame(ctl, MsgType::Done, {});
    } catch (const DeadlockError& e) {
      w.send_error(ErrCode::Deadlock, e.what());
    } catch (const CodegenError& e) {
      w.send_error(ErrCode::Codegen, e.what());
    } catch (const SemanticError& e) {
      w.send_error(ErrCode::Semantic, e.what());
    } catch (const InternalError& e) {
      w.send_error(ErrCode::Internal, e.what());
    } catch (const RuntimeFault& e) {
      w.send_error(ErrCode::Runtime, e.what());
    } catch (const std::exception& e) {
      w.send_error(ErrCode::Other, e.what());
    }
    ::close(ctl);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vcalc worker rank %lld: %s\n",
                 static_cast<long long>(rank), e.what());
    if (ctl >= 0) ::close(ctl);
    return 4;
  }
}

}  // namespace vcal::proc
