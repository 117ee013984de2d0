#include "trace/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/error.hpp"
#include "common/report_version.hpp"

namespace gemmtune::trace {

namespace {

std::atomic<bool> g_enabled{false};

/// Monotonic nanoseconds since the first trace call in the process.
std::uint64_t now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point base = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           base)
          .count());
}

/// Global sequence for gauge writes: the merged gauge value is the write
/// with the highest sequence number, independent of which thread's buffer
/// it landed in.
std::atomic<std::uint64_t> g_gauge_seq{0};

struct SpanEvent {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
  int depth;
};

struct GaugeValue {
  double value = 0;
  std::uint64_t seq = 0;
};

/// One thread's recording buffer. The owning thread appends under `mu`;
/// the mutex is uncontended except while an export or reset is running.
struct ThreadBuf {
  std::mutex mu;
  std::vector<SpanEvent> spans;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeValue> gauges;
  int depth = 0;  // span nesting depth (owner thread only)
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: usable during exit handlers
  return *r;
}

ThreadBuf& thread_buf() {
  // The registry shares ownership so a worker thread's data survives the
  // thread: pools are torn down before export in every current caller.
  thread_local std::shared_ptr<ThreadBuf> buf = [] {
    auto b = std::make_shared<ThreadBuf>();
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.bufs.push_back(b);
    return b;
  }();
  return *buf;
}

/// Order-independent aggregate of one span name.
struct SpanStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = ~0ull;
  std::uint64_t max_ns = 0;
};

std::vector<std::shared_ptr<ThreadBuf>> snapshot_bufs() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.bufs;
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  if (on) now_ns();  // pin the timestamp base before the first span
  g_enabled.store(on, std::memory_order_relaxed);
}

Span::Span(const char* name) : name_(name) {
  if (!enabled()) return;
  armed_ = true;
  ++thread_buf().depth;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (!armed_) return;
  const std::uint64_t end = now_ns();
  ThreadBuf& b = thread_buf();
  const int depth = --b.depth;
  std::lock_guard<std::mutex> lock(b.mu);
  // Duration floor of 1 ns: steady_clock can tick coarser than the span.
  b.spans.push_back(
      {name_, start_ns_, std::max<std::uint64_t>(1, end - start_ns_), depth});
}

void counter_add(const char* name, std::uint64_t delta) {
  if (!enabled()) return;
  ThreadBuf& b = thread_buf();
  std::lock_guard<std::mutex> lock(b.mu);
  b.counters[name] += delta;
}

void gauge_set(const char* name, double value) {
  if (!enabled()) return;
  ThreadBuf& b = thread_buf();
  const std::uint64_t seq = ++g_gauge_seq;
  std::lock_guard<std::mutex> lock(b.mu);
  GaugeValue& g = b.gauges[name];
  if (seq >= g.seq) g = {value, seq};
}

Json metrics_json() {
  std::map<std::string, SpanStats> spans;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeValue> gauges;
  for (const auto& buf : snapshot_bufs()) {
    std::lock_guard<std::mutex> lock(buf->mu);
    for (const SpanEvent& e : buf->spans) {
      SpanStats& s = spans[e.name];
      ++s.count;
      s.total_ns += e.dur_ns;
      s.min_ns = std::min(s.min_ns, e.dur_ns);
      s.max_ns = std::max(s.max_ns, e.dur_ns);
    }
    for (const auto& [name, v] : buf->counters) counters[name] += v;
    for (const auto& [name, g] : buf->gauges) {
      GaugeValue& dst = gauges[name];
      if (g.seq >= dst.seq) dst = g;
    }
  }

  Json doc = Json::object();
  doc["schema"] = kMetricsSchema;
  Json jspans = Json::object();
  for (const auto& [name, s] : spans) {
    Json j = Json::object();
    j["count"] = static_cast<std::int64_t>(s.count);
    j["total_ns"] = static_cast<std::int64_t>(s.total_ns);
    j["min_ns"] = static_cast<std::int64_t>(s.min_ns);
    j["max_ns"] = static_cast<std::int64_t>(s.max_ns);
    jspans[name] = std::move(j);
  }
  doc["spans"] = std::move(jspans);
  Json jcounters = Json::object();
  for (const auto& [name, v] : counters)
    jcounters[name] = static_cast<std::int64_t>(v);
  doc["counters"] = std::move(jcounters);
  Json jgauges = Json::object();
  for (const auto& [name, g] : gauges) jgauges[name] = g.value;
  doc["gauges"] = std::move(jgauges);

  doc["derived"] = Json::object();
  return doc;
}

Json trace_json() {
  // Events carry the registration index of their buffer as the tid; the
  // export sorts by (timestamp, tid, name) so equal-time events still
  // serialize in a stable order.
  struct Ev {
    SpanEvent e;
    int tid;
  };
  std::vector<Ev> events;
  const auto bufs = snapshot_bufs();
  for (std::size_t t = 0; t < bufs.size(); ++t) {
    std::lock_guard<std::mutex> lock(bufs[t]->mu);
    for (const SpanEvent& e : bufs[t]->spans)
      events.push_back({e, static_cast<int>(t)});
  }
  std::sort(events.begin(), events.end(), [](const Ev& a, const Ev& b) {
    if (a.e.start_ns != b.e.start_ns) return a.e.start_ns < b.e.start_ns;
    if (a.tid != b.tid) return a.tid < b.tid;
    return std::string_view(a.e.name) < std::string_view(b.e.name);
  });

  Json doc = Json::object();
  Json list = Json::array();
  for (const Ev& ev : events) {
    Json j = Json::object();
    j["name"] = ev.e.name;
    j["cat"] = "gemmtune";
    j["ph"] = "X";
    j["ts"] = static_cast<double>(ev.e.start_ns) / 1e3;  // microseconds
    j["dur"] = static_cast<double>(ev.e.dur_ns) / 1e3;
    j["pid"] = 1;
    j["tid"] = ev.tid;
    Json args = Json::object();
    args["depth"] = ev.e.depth;
    j["args"] = std::move(args);
    list.push_back(std::move(j));
  }
  doc["traceEvents"] = std::move(list);
  doc["displayTimeUnit"] = "ms";
  return doc;
}

namespace {

void write_json_file(const std::string& path, const Json& doc) {
  std::ofstream f(path);
  check(f.good(), "trace: cannot open " + path + " for writing");
  f << doc.dump(2) << "\n";
  f.flush();
  check(f.good(), "trace: failed writing " + path);
}

}  // namespace

void write_metrics_file(const std::string& path) {
  write_json_file(path, metrics_json());
}

void write_trace_file(const std::string& path) {
  write_json_file(path, trace_json());
}

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& buf : r.bufs) {
    std::lock_guard<std::mutex> bl(buf->mu);
    buf->spans.clear();
    buf->counters.clear();
    buf->gauges.clear();
  }
  // Keep only buffers still owned by a live thread (use_count > 1): dead
  // threads' buffers hold no data after the clear above.
  std::erase_if(r.bufs,
                [](const std::shared_ptr<ThreadBuf>& b) {
                  return b.use_count() == 1;
                });
}

}  // namespace gemmtune::trace
