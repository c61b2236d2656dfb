// Persistent compile-and-execute server ("vcalc --serve").
//
// One Server owns a listening socket (UNIX-domain by default, TCP on
// request), an accept thread, one reader thread per connected session,
// and a small executor pool. Each connection is a *session* with its
// own EngineContext (plan caches, tracers, JIT modules, metrics) —
// tenants share threads, never engine state. The content-addressed
// CompileCache is the one deliberately shared layer: lang::compile is
// pure, so a program compiled for any session serves every session
// (including one-shot `vcalc --connect` processes), and singleflight
// coalesces concurrent identical compiles across sessions.
//
// Fairness and backpressure: every Run request goes through one global
// FIFO queue drained by the executor pool, so sessions are served in
// arrival order regardless of who is noisiest; a session already at its
// in-flight cap gets an immediate Status::Rejected response instead of
// a queue slot. The queue is therefore bounded by
// sessions × session_inflight by construction.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rt/engine_context.hpp"
#include "serve/compile_cache.hpp"
#include "serve/protocol.hpp"
#include "support/scoped_dir.hpp"

namespace vcal::serve {

struct ServeOptions {
  /// Where to listen:
  ///   ""            — fresh UNIX socket in a private temp dir
  ///                   (address() tells the clients where);
  ///   a path        — UNIX socket at that path (anything with a '/');
  ///   "host:port"   — TCP; port 0 picks a free port, resolved in
  ///                   address().
  std::string addr;
  /// Executor threads draining the run queue (0 = 4).
  int executors = 0;
  /// Per-session in-flight cap; requests beyond it are Rejected.
  int session_inflight = 8;
  /// Compile-cache capacity in entries; least-recently-requested
  /// programs are evicted beyond it (0 = unbounded).
  int cache_entries = 0;
  /// Bounded reservoir of per-request latencies for p50/p99.
  int latency_samples = 4096;
};

struct ServerStats {
  i64 sessions_opened = 0;
  i64 sessions_active = 0;
  i64 requests = 0;   // accepted Run requests (excludes rejected)
  i64 rejected = 0;   // backpressure responses
  i64 cache_hits = 0;
  i64 cache_misses = 0;
  i64 cache_coalesced = 0;
  i64 cache_entries = 0;    // resident compiled programs
  i64 cache_evictions = 0;  // LRU drops (--serve-cache-entries bound)
  i64 compiles = 0;
  i64 queue_depth = 0;
  i64 queue_peak = 0;
  double p50_ms = 0.0;  // per-request service latency (execute only)
  double p99_ms = 0.0;

  std::string str() const;
  std::string json() const;
};

class Server {
 public:
  explicit Server(ServeOptions opts = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the accept + executor threads. Throws
  /// RuntimeFault if the address cannot be bound.
  void start();

  /// The resolved listen address, valid after start(): the UDS path, or
  /// "host:port" with the real port for TCP port 0.
  const std::string& address() const noexcept { return address_; }

  /// Blocks until a client sends Shutdown (or stop() is called).
  void wait();

  /// Stops accepting, disconnects every session, joins all threads.
  /// Idempotent; the destructor calls it.
  void stop();

  ServerStats stats() const;

 private:
  struct Session {
    i64 id = 0;
    int fd = -1;
    std::mutex write_m;  // Result/Metrics frames interleave per session
    std::shared_ptr<rt::EngineContext> ctx;
    std::atomic<i64> inflight{0};
    std::atomic<bool> gone{false};
  };

  struct Job {
    std::shared_ptr<Session> session;
    RunRequest request;
  };

  /// Accepts on its own copy of the listen fd (stop() owns the field).
  void accept_loop(int listen_fd);
  void reader_loop(std::shared_ptr<Session> session);
  void executor_loop();
  /// Compile (through the session cache), execute, and answer one
  /// request; folds per-request counters into the session context and
  /// the server stats.
  RunResult execute(Session& session, const RunRequest& req);
  void send_to(Session& session, MsgType type,
               const std::vector<std::uint8_t>& payload);
  void record_latency(double ms);
  std::string session_metrics_json(Session& session) const;

  ServeOptions opts_;
  std::string address_;
  support::ScopedDir sock_dir_;  // owns the auto-UDS directory
  int listen_fd_ = -1;
  bool tcp_ = false;

  // Server-wide content-addressed compile cache (internally
  // synchronized; see the header comment for why it is shared).
  CompileCache cache_;

  std::thread accept_thread_;
  std::vector<std::thread> executors_;
  // Reader threads are detached from their Session on disconnect but
  // joined at stop(); guarded by sessions_m_.
  std::vector<std::thread> readers_;
  std::vector<std::shared_ptr<Session>> sessions_;
  mutable std::mutex sessions_m_;
  std::atomic<i64> next_session_{1};

  // Global FIFO run queue (arrival order across sessions).
  std::deque<Job> queue_;
  mutable std::mutex queue_m_;
  std::condition_variable queue_cv_;
  bool stopping_ = false;

  // Shutdown handshake for wait().
  std::mutex shutdown_m_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;

  // Counters + bounded latency reservoir.
  mutable std::mutex stats_m_;
  ServerStats stats_;
  std::vector<double> latencies_;
};

}  // namespace vcal::serve
