// In-memory span recording for the benchmark's traced run.
//
// The harness wraps every call it makes into a layer's public API in a
// Scope. Spans are kept in per-thread buffers while the run lasts and
// written out as Chrome trace_event JSON when it ends. Nothing here
// reaches into the library: the spans time the calls from outside.
//
// A span's `unit` groups the spans of one program run or one served
// request, so per-layer times can be summed per unit before taking a
// median. Self time is a span's duration minus the time its child spans
// (same thread, nested) cover.
#pragma once
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vbench {

struct Span {
  const char* name = "";
  std::int64_t id = 0;
  std::int64_t parent = 0;  // enclosing span on the same thread, 0 = none
  std::int64_t unit = 0;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  int tid = 0;
};

/// Turns recording on or off. Toggled only between samples, while no
/// other thread is inside a Scope.
void spans_enable(bool on);
bool spans_enabled();

/// A fresh unit id (one program run or one request).
std::int64_t new_unit();

/// Records [construction, destruction) as a span named `name` (a string
/// literal) when recording is on; does nothing otherwise.
class Scope {
 public:
  Scope(const char* name, std::int64_t unit);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  const char* name_;
  std::int64_t unit_;
  std::int64_t id_ = 0;  // 0: not recording
  std::int64_t parent_ = 0;
  std::int64_t t0_ = 0;
};

struct SpanSummary {
  std::int64_t recorded = 0;
  std::int64_t dropped = 0;  // spans lost to the in-memory cap
  /// Per span name: the sum of self time (ms) within each unit.
  std::map<std::string, std::vector<double>> self_ms_per_unit;
};

/// Collects every thread's spans. Call after all recording threads have
/// been joined.
SpanSummary summarize_spans();

/// Writes every recorded span as Chrome trace_event JSON. Returns false
/// when the file cannot be written.
bool write_chrome_trace(const std::string& path);

/// Cost of one enabled Scope, measured by timing `n` empty spans on the
/// calling thread (the spans are discarded).
double span_cost_ns(int n);

}  // namespace vbench
