// Span-based request tracing: every served request gets a trace id, the
// layers it crosses open nested spans (monotonic-clock timed), completed
// spans land in a bounded ring buffer, and requests slower than a
// configurable threshold are captured whole — span tree included — for
// later retrieval over the wire (kTraces / TRACES).
//
// Propagation. The active trace travels in a thread_local TraceContext:
// the server worker installs a RequestTrace around WireHandler::Handle,
// every ScopedSpan below it on that thread parents itself automatically,
// and shard::ForwardEnvelope stamps the context into the kForwarded
// envelope so the shard-side worker joins the *router's* trace. Because the
// in-tree fleet runs shards and router in one process, one Tracer sees both
// tiers and a single captured trace covers wire decode → route → shard
// execute (per-stage children) → reply. The scope that *originated* a trace
// (trace id was not propagated to it) owns completion and slow capture.
//
// Cost. A span on a thread with no active trace is two thread_local reads —
// no clock, no allocation, no lock. Active spans take one steady_clock read
// at each end and one short mutex hold to push the completed record; spans
// are per-request/per-stage (tens per request), never per-row. Compiling
// with -DVISCLEAN_OBS_OFF makes ScopedSpan/RequestTrace empty types.
//
// Determinism. Spans observe timing; nothing reads them back into the
// engine, so instrumented runs stay bit-identical to uninstrumented ones
// (the differential suites run with tracing compiled in).
#ifndef VISCLEAN_OBS_TRACE_H_
#define VISCLEAN_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace visclean {
namespace obs {

/// Nanoseconds on the process-wide monotonic clock (std::chrono::steady).
uint64_t MonotonicNs();

/// \brief One completed span.
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  ///< 0 = root of its trace
  uint64_t start_ns = 0;   ///< MonotonicNs()
  uint64_t end_ns = 0;
  std::string name;
};

/// \brief A slow request captured whole: the root span's duration plus
/// every span of the trace present in the ring at completion time.
struct CapturedTrace {
  uint64_t trace_id = 0;
  uint64_t duration_ns = 0;
  std::string root_name;
  std::vector<SpanRecord> spans;  ///< unordered; see AssembleTraceTree
};

struct TracerOptions {
  /// Completed spans kept (ring, oldest overwritten). Sized for the spans
  /// of a few hundred in-flight requests.
  size_t ring_spans = 4096;
  /// Captured slow traces kept (ring, oldest dropped).
  size_t max_captured = 16;
  /// Root spans at least this long are captured with their span tree.
  /// 0 captures every request; the default only keeps genuinely slow ones.
  uint64_t slow_threshold_ns = 100'000'000;  // 100 ms
};

/// \brief Bounded span ring + slow-trace capture. Thread-safe.
class Tracer {
 public:
  using Options = TracerOptions;

  explicit Tracer(Options options = Options());
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide tracer. One instance on purpose: a trace's spans are
  /// recorded from every tier the request crosses in this process.
  static Tracer& Default();

  uint64_t NewId();  ///< fresh nonzero trace/span id

  /// Appends a completed span to the ring.
  void Record(const SpanRecord& span);

  /// Completes a trace at its originator: records `root` and, when its
  /// duration meets the slow threshold, captures the trace's spans.
  void Complete(const SpanRecord& root);

  std::vector<CapturedTrace> Captured() const;

  void SetSlowThresholdNs(uint64_t ns) {
    slow_threshold_ns_.store(ns, std::memory_order_relaxed);
  }
  uint64_t slow_threshold_ns() const {
    return slow_threshold_ns_.load(std::memory_order_relaxed);
  }

  /// Drops all ring spans and captured traces (tests, bench phases).
  void Clear();

 private:
  const size_t ring_spans_;
  const size_t max_captured_;
  std::atomic<uint64_t> slow_threshold_ns_;
  std::atomic<uint64_t> next_id_{1};

  mutable std::mutex mu_;
  std::vector<SpanRecord> ring_;  ///< size() < ring_spans_: not yet wrapped
  size_t ring_next_ = 0;
  std::deque<CapturedTrace> captured_;
};

/// \brief The calling thread's active trace (0 = none). Installed by
/// RequestTrace, consumed by ScopedSpan and shard::ForwardEnvelope.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;   ///< innermost open span: parent for new spans
  Tracer* tracer = nullptr;
};

TraceContext& CurrentTrace();

#ifndef VISCLEAN_OBS_OFF

/// \brief RAII root scope for one request on the current thread.
///
/// With trace_id == 0 a fresh trace begins and this scope owns completion
/// (slow capture at destruction). A nonzero trace_id joins a propagated
/// trace — the span is recorded but completion stays with the originator.
class RequestTrace {
 public:
  RequestTrace(Tracer& tracer, std::string_view name, uint64_t trace_id = 0,
               uint64_t parent_span = 0);
  ~RequestTrace();
  RequestTrace(const RequestTrace&) = delete;
  RequestTrace& operator=(const RequestTrace&) = delete;

  uint64_t trace_id() const { return root_.trace_id; }
  uint64_t span_id() const { return root_.span_id; }

  /// Attaches a child span with explicit timestamps — for work measured
  /// before this scope existed (frame decode on the IO thread, queue wait).
  void RecordChild(std::string_view name, uint64_t start_ns, uint64_t end_ns);

 private:
  Tracer& tracer_;
  bool owns_;
  SpanRecord root_;
  TraceContext saved_;
};

/// \brief RAII child span under the thread's active trace. Free when no
/// trace is active.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name) {
    TraceContext& ctx = CurrentTrace();
    if (ctx.trace_id == 0 || ctx.tracer == nullptr) return;
    ctx_ = &ctx;
    rec_.trace_id = ctx.trace_id;
    rec_.span_id = ctx.tracer->NewId();
    rec_.parent_id = ctx.span_id;
    rec_.name.assign(name);
    saved_parent_ = ctx.span_id;
    ctx.span_id = rec_.span_id;
    rec_.start_ns = MonotonicNs();
  }
  ~ScopedSpan() {
    if (ctx_ == nullptr) return;
    rec_.end_ns = MonotonicNs();
    ctx_->span_id = saved_parent_;
    ctx_->tracer->Record(rec_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceContext* ctx_ = nullptr;
  uint64_t saved_parent_ = 0;
  SpanRecord rec_;
};

/// Records an already-timed child span under the thread's active trace.
void RecordSpan(std::string_view name, uint64_t start_ns, uint64_t end_ns);

#else  // VISCLEAN_OBS_OFF: empty scopes, call sites unchanged

class RequestTrace {
 public:
  RequestTrace(Tracer&, std::string_view, uint64_t = 0, uint64_t = 0) {}
  uint64_t trace_id() const { return 0; }
  uint64_t span_id() const { return 0; }
  void RecordChild(std::string_view, uint64_t, uint64_t) {}
};

class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view) {}
};

inline void RecordSpan(std::string_view, uint64_t, uint64_t) {}

#endif  // VISCLEAN_OBS_OFF

}  // namespace obs
}  // namespace visclean

#endif  // VISCLEAN_OBS_TRACE_H_
