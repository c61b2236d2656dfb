#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace vbench {
namespace {

// Past this many spans in one run, further spans are counted as dropped
// instead of stored (bounds the memory a long traced run can take).
constexpr std::int64_t kMaxSpans = 1 << 20;

std::atomic<bool> g_enabled{false};
std::atomic<std::int64_t> g_next_id{1};
std::atomic<std::int64_t> g_next_unit{1};
std::atomic<std::int64_t> g_stored{0};
std::atomic<std::int64_t> g_dropped{0};

struct ThreadBuf {
  int tid = 0;
  std::vector<Span> spans;
  std::vector<std::int64_t> stack;  // open span ids, innermost last
};

// Buffers outlive their threads so the spans survive until export.
std::mutex g_bufs_m;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;

ThreadBuf& local_buf() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_bufs_m);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    buf = g_bufs.back().get();
    buf->tid = static_cast<int>(g_bufs.size());
  }
  return *buf;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<const Span*> all_spans() {
  std::vector<const Span*> out;
  std::lock_guard<std::mutex> lock(g_bufs_m);
  for (const auto& b : g_bufs)
    for (const Span& s : b->spans) out.push_back(&s);
  return out;
}

}  // namespace

void spans_enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool spans_enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t new_unit() {
  return g_next_unit.fetch_add(1, std::memory_order_relaxed);
}

Scope::Scope(const char* name, std::int64_t unit) : name_(name), unit_(unit) {
  if (!spans_enabled()) return;
  ThreadBuf& b = local_buf();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = b.stack.empty() ? 0 : b.stack.back();
  b.stack.push_back(id_);
  t0_ = now_ns();
}

Scope::~Scope() {
  if (id_ == 0) return;
  const std::int64_t t1 = now_ns();
  ThreadBuf& b = local_buf();
  b.stack.pop_back();
  if (g_stored.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  b.spans.push_back(Span{name_, id_, parent_, unit_, t0_, t1, b.tid});
}

SpanSummary summarize_spans() {
  const std::vector<const Span*> spans = all_spans();
  std::unordered_map<std::int64_t, std::int64_t> child_ns;
  for (const Span* s : spans)
    if (s->parent != 0) child_ns[s->parent] += s->t1_ns - s->t0_ns;

  std::map<std::pair<std::string, std::int64_t>, double> per_unit;
  for (const Span* s : spans) {
    auto it = child_ns.find(s->id);
    const std::int64_t self =
        s->t1_ns - s->t0_ns - (it == child_ns.end() ? 0 : it->second);
    per_unit[{s->name, s->unit}] += static_cast<double>(self) / 1e6;
  }
  SpanSummary out;
  out.recorded = static_cast<std::int64_t>(spans.size());
  out.dropped = g_dropped.load();
  for (const auto& [key, ms] : per_unit)
    out.self_ms_per_unit[key.first].push_back(ms);
  return out;
}

bool write_chrome_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<const Span*> spans = all_spans();
  std::int64_t base = 0;
  if (!spans.empty())
    base = (*std::min_element(spans.begin(), spans.end(),
                              [](const Span* a, const Span* b) {
                                return a->t0_ns < b->t0_ns;
                              }))->t0_ns;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  bool first = true;
  for (const Span* s : spans) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"vbench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%lld,\"parent\":%lld,\"unit\":%lld}}",
                 first ? "" : ",", s->name, s->tid,
                 static_cast<double>(s->t0_ns - base) / 1e3,
                 static_cast<double>(s->t1_ns - s->t0_ns) / 1e3,
                 static_cast<long long>(s->id),
                 static_cast<long long>(s->parent),
                 static_cast<long long>(s->unit));
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

double span_cost_ns(int n) {
  ThreadBuf& b = local_buf();
  const std::size_t keep = b.spans.size();
  const bool was = spans_enabled();
  const std::int64_t stored = g_stored.load();
  spans_enable(true);
  const std::int64_t t0 = now_ns();
  for (int k = 0; k < n; ++k) Scope s("span-cost", 0);
  const std::int64_t t1 = now_ns();
  spans_enable(was);
  b.spans.resize(keep);
  g_stored.store(stored);
  return static_cast<double>(t1 - t0) / n;
}

}  // namespace vbench
