// Structured observability layer: scoped spans, named counters and gauges,
// exported as Chrome trace-event JSON plus a flat metrics JSON.
//
// Design points:
//  * Off by default and cheap when off: every record call starts with one
//    relaxed atomic load; disabled instrumentation costs a test-and-branch
//    (the parallel suite budget is <5% overhead with tracing disabled).
//  * Thread-aware: each thread records into its own buffer (one uncontended
//    mutex per buffer guards against a concurrent export), so worker
//    threads never contend with each other on the hot path.
//  * Deterministic merge: the aggregates in the metrics JSON are
//    independent of thread count and scheduling, following the same
//    ordering discipline as the thread pool's chunk merge — counters merge
//    by field-wise sum, span statistics (count/total/min/max per name) are
//    order-independent reductions, and gauges resolve by a global write
//    sequence (last write wins). Only raw timeline timestamps in the
//    Chrome trace vary run to run.
//  * Exported through common/json, so both files are valid documents of
//    the schemas below and round-trip through Json::parse.
//
// Metrics JSON schema ("gemmtune-metrics-v1"):
//   { "schema": "gemmtune-metrics-v1",
//     "spans":    { name: {count, total_ns, min_ns, max_ns} },
//     "counters": { name: integer },
//     "gauges":   { name: number },
//     "derived":  {} }
//   "derived" holds no rates at present; it stays so consumers of the
//   schema find every key.
//
// Trace JSON schema: the Chrome trace-event format (load in
// chrome://tracing or Perfetto): {"traceEvents": [{name, cat, ph:"X",
// ts, dur, pid, tid, args:{depth}}], "displayTimeUnit": "ms"}.
#pragma once

#include <cstdint>
#include <string>

#include "common/json.hpp"

namespace gemmtune::trace {

/// Whether instrumentation records anything (process-wide, off by default).
bool enabled();
void set_enabled(bool on);

/// RAII scoped span: measures wall time from construction to destruction on
/// the calling thread and records it under `name`. Nesting is tracked with
/// a per-thread depth. `name` must outlive the span (use string literals).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t start_ns_ = 0;
  bool armed_ = false;
};

/// Adds `delta` to the named counter on the calling thread's buffer.
/// Merged totals are the sum over all threads (order-independent).
void counter_add(const char* name, std::uint64_t delta);

/// Sets the named gauge. Across threads the merged value is the most
/// recent write in the global sequence order (last write wins).
void gauge_set(const char* name, double value);

/// Aggregated metrics of everything recorded since the last reset().
/// Deterministic for a deterministic program at any thread count.
Json metrics_json();

/// Chrome trace-event document of every recorded span, sorted by
/// (timestamp, thread, name) for a stable event order.
Json trace_json();

/// Writes metrics_json() / trace_json() to `path` (pretty-printed).
/// Throws gemmtune::Error when the file cannot be written.
void write_metrics_file(const std::string& path);
void write_trace_file(const std::string& path);

/// Discards all recorded spans, counters and gauges (keeps the enabled
/// flag). Buffers of exited threads are dropped; live threads keep
/// recording into their existing buffers.
void reset();

}  // namespace gemmtune::trace
