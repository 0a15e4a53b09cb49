// Causal tracing with sim-time timestamps (the observability substrate for
// the paper's timeline arguments).
//
// The paper's availability claims are timeline claims — the 25 s worst-case
// fail-over of Section 9.7 decomposes into bind-retry (10 s) + NS->RAS poll
// (10 s) + RAS->RAS poll (5 s) — and aggregate counters cannot show *which*
// mechanism consumed which slice of a recovery. This module records spans and
// instant events, stamped with virtual time and node/process identity, into a
// bounded ring buffer shared by the whole simulated cluster:
//
//   - TraceContext is the (trace id, span id, parent id) triple that flows
//     through the wire format (wire::Message) and the RPC runtime, so a trace
//     started at a settop call is causally linked through name-service
//     resolution, rebind attempts, RAS polls and service-controller restarts.
//   - Tracer is the per-process recording handle (one per sim::Process); it
//     carries the process identity and the executor clock. A null buffer
//     disables recording with no other behavior change.
//   - TraceBuffer is the bounded ring; overflow evicts the oldest events and
//     counts them in dropped().
//
// Exporters: ChromeTraceJson() writes the buffer as Chrome trace-event JSON
// (loadable in chrome://tracing or Perfetto); FailoverTimeline reconstructs a
// kill-to-recovery interval into the paper's component delays, which
// bench_failover prints and chaos_test asserts against.

#ifndef SRC_COMMON_TRACE_H_
#define SRC_COMMON_TRACE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/executor.h"
#include "src/common/time.h"

namespace itv::trace {

// The causal triple propagated across process boundaries. trace_id groups
// every span of one logical operation; span_id identifies this hop;
// parent_span_id links to the hop that caused it. trace_id 0 = no trace.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;

  bool valid() const { return trace_id != 0; }

  friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

enum class EventKind : uint8_t {
  kSpan = 0,     // An interval: begin .. begin + duration.
  kInstant = 1,  // A point marker.
};

struct TraceEvent {
  EventKind kind = EventKind::kInstant;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  Time begin;         // Span start, or the instant itself.
  Duration duration;  // Spans only.
  std::string name;   // Span naming convention: "layer.what" ("ras.poll").
  std::string detail; // Site-specific payload ("svc/target", "host=...").
  // Recording identity (who observed this, not who caused it).
  std::string node;
  std::string process;
  uint64_t pid = 0;
};

// Well-known event names consumed by FailoverTimeline (see DESIGN.md,
// "Observability"). Emitters and the analyzer must agree on these.
inline constexpr std::string_view kEventPeerDead = "ras.peer_dead";
inline constexpr std::string_view kEventAuditUnbind = "ns.audit.unbind";
inline constexpr std::string_view kEventBindPrimary = "bind.primary";
// Service-lifecycle role changes (svc::ServiceLifecycle): promotion fires
// after the service's RecoverState hook completes, so rebound -> promoted
// measures the recovery component of a fail-over.
inline constexpr std::string_view kEventRolePromote = "role.promote";
inline constexpr std::string_view kEventRoleDemote = "role.demote";

// Bounded ring of trace events plus the cluster-wide span id allocator.
// Single-threaded, like every other OCS component.
class TraceBuffer {
 public:
  static constexpr size_t kDefaultCapacity = 16384;

  explicit TraceBuffer(size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  size_t capacity() const { return capacity_; }
  // Re-sizes the ring; recorded events and the drop count are discarded.
  void set_capacity(size_t capacity) {
    capacity_ = capacity;
    Clear();
  }

  size_t size() const { return ring_.size(); }
  // Total events ever pushed / events evicted by overflow.
  uint64_t recorded() const { return recorded_; }
  uint64_t dropped() const {
    return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
  }

  // Unique-id source for trace and span ids (deterministic across runs).
  uint64_t NextId() { return ++last_id_; }

  void Push(TraceEvent event) {
    ++recorded_;
    if (capacity_ == 0) {
      return;
    }
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(event));
    } else {
      ring_[next_overwrite_] = std::move(event);
      next_overwrite_ = (next_overwrite_ + 1) % capacity_;
    }
  }

  void Clear() {
    ring_.clear();
    next_overwrite_ = 0;
    recorded_ = 0;
  }

  // Events in recording order (chronological: sim time is monotonic).
  std::vector<TraceEvent> Snapshot() const {
    std::vector<TraceEvent> out;
    out.reserve(ring_.size());
    for (size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_overwrite_ + i) % ring_.size()]);
    }
    return out;
  }

 private:
  size_t capacity_;
  std::vector<TraceEvent> ring_;
  size_t next_overwrite_ = 0;  // Valid once the ring is full.
  uint64_t recorded_ = 0;
  uint64_t last_id_ = 0;
};

// Per-process recording handle: identity + clock + destination buffer. All
// operations are no-ops (and contexts stay invalid, so nothing propagates)
// when constructed with a null buffer.
class Tracer {
 public:
  Tracer(TraceBuffer* buffer, Executor* clock, std::string node,
         std::string process, uint64_t pid)
      : buffer_(buffer),
        clock_(clock),
        node_(std::move(node)),
        process_(std::move(process)),
        pid_(pid) {}

  bool enabled() const { return buffer_ != nullptr; }
  Time now() const { return clock_->Now(); }
  TraceBuffer* buffer() const { return buffer_; }

  // Starts a fresh trace (new root context).
  TraceContext StartTrace() {
    if (!enabled()) {
      return {};
    }
    TraceContext ctx;
    ctx.trace_id = buffer_->NextId();
    ctx.span_id = buffer_->NextId();
    return ctx;
  }

  // A child context under `parent` (same trace, new span). Starts a fresh
  // trace when the parent is invalid.
  TraceContext Child(const TraceContext& parent) {
    if (!enabled()) {
      return {};
    }
    if (!parent.valid()) {
      return StartTrace();
    }
    TraceContext ctx;
    ctx.trace_id = parent.trace_id;
    ctx.span_id = buffer_->NextId();
    ctx.parent_span_id = parent.span_id;
    return ctx;
  }

  // The context of the operation currently on the stack (installed by
  // ScopedContext); invalid when no traced operation is running. The RPC
  // runtime reads this to stamp outgoing requests.
  const TraceContext& current() const { return current_; }

  // Records the interval begin..now as a completed span.
  void Span(const TraceContext& ctx, std::string_view name, Time begin,
            std::string detail = {}) {
    if (enabled()) {
      SpanAt(ctx, name, begin, now(), std::move(detail));
    }
  }

  void SpanAt(const TraceContext& ctx, std::string_view name, Time begin,
              Time end, std::string detail = {}) {
    if (!enabled() || !ctx.valid()) {
      return;
    }
    TraceEvent e = Base(ctx, name, std::move(detail));
    e.kind = EventKind::kSpan;
    e.begin = begin;
    e.duration = end - begin;
    buffer_->Push(std::move(e));
  }

  void Instant(const TraceContext& ctx, std::string_view name,
               std::string detail = {}) {
    if (!enabled() || !ctx.valid()) {
      return;
    }
    TraceEvent e = Base(ctx, name, std::move(detail));
    e.kind = EventKind::kInstant;
    e.begin = now();
    buffer_->Push(std::move(e));
  }

 private:
  friend class ScopedContext;

  TraceEvent Base(const TraceContext& ctx, std::string_view name,
                  std::string detail) {
    TraceEvent e;
    e.trace_id = ctx.trace_id;
    e.span_id = ctx.span_id;
    e.parent_span_id = ctx.parent_span_id;
    e.name = std::string(name);
    e.detail = std::move(detail);
    e.node = node_;
    e.process = process_;
    e.pid = pid_;
    return e;
  }

  TraceBuffer* buffer_;
  Executor* clock_;
  std::string node_;
  std::string process_;
  uint64_t pid_;
  TraceContext current_;
};

// Installs `ctx` as the tracer's current context for the enclosing scope
// (restores the previous one on exit). Null tracer is a no-op, so call sites
// need no guards.
class ScopedContext {
 public:
  ScopedContext(Tracer* tracer, const TraceContext& ctx) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      prev_ = tracer_->current_;
      tracer_->current_ = ctx;
    }
  }
  ~ScopedContext() {
    if (tracer_ != nullptr) {
      tracer_->current_ = prev_;
    }
  }

  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  Tracer* tracer_;
  TraceContext prev_;
};

// --- Exporters ---------------------------------------------------------------

// Serializes the buffer as Chrome trace-event JSON ({"traceEvents": [...]}),
// loadable in chrome://tracing and Perfetto. Nodes map to trace "processes",
// sim processes to trace "threads"; span args carry trace/span/parent ids and
// the detail payload.
std::string ChromeTraceJson(const TraceBuffer& buffer);

// Minimal schema check for an emitted trace document: syntactically valid
// JSON whose top-level object has a "traceEvents" array where every event
// carries name/ph/ts/pid/tid. Used by tests and the CI trace artifact step.
bool ValidateChromeTrace(const std::string& json, std::string* error = nullptr);

// --- Fail-over timeline analysis ---------------------------------------------

// Reconstructs one primary/backup fail-over (paper Section 9.7) from the
// event stream. The causal chain after a primary's server dies at kill_time:
//
//   kill --(RAS peer poll)--> ras.peer_dead      [detect_delay <= ras poll]
//        --(NS audit poll)--> ns.audit.unbind    [unbind_delay <= ns audit]
//        --(backup bind retry)--> bind.primary   [rebind_delay <= bind retry]
//
// `path` (optional) restricts the unbind/bind markers to events whose detail
// mentions that service path. client_ok_at is filled by the caller (when its
// own rebound call completed) for the end-to-end view.
struct FailoverTimeline {
  Time kill_time;
  std::optional<Time> detected_at;
  std::optional<Time> unbound_at;
  std::optional<Time> rebound_at;
  // Lifecycle services only: when the promoted replica finished RecoverState
  // (role.promote). Absent for an external-role lifecycle, which binds
  // nothing.
  std::optional<Time> promoted_at;
  std::optional<Time> client_ok_at;

  static FailoverTimeline Reconstruct(const std::vector<TraceEvent>& events,
                                      Time kill_time,
                                      std::string_view path = {});

  // All three reconstruction markers were found, in causal order.
  bool complete() const {
    return detected_at.has_value() && unbound_at.has_value() &&
           rebound_at.has_value();
  }

  // Per-phase delays; zero while the phase's marker is missing.
  Duration detect_delay() const {
    return detected_at ? *detected_at - kill_time : Duration();
  }
  Duration unbind_delay() const {
    return (detected_at && unbound_at) ? *unbound_at - *detected_at
                                       : Duration();
  }
  Duration rebind_delay() const {
    return (unbound_at && rebound_at) ? *rebound_at - *unbound_at : Duration();
  }
  // Winning the binding to serving as primary: the RecoverState component.
  Duration recover_delay() const {
    return (rebound_at && promoted_at) ? *promoted_at - *rebound_at
                                       : Duration();
  }
  // Kill to the backup becoming primary (the paper's fail-over interval).
  Duration total() const {
    return rebound_at ? *rebound_at - kill_time : Duration();
  }

  // Human-readable decomposition (one phase per line).
  std::string Report() const;
};

}  // namespace itv::trace

#endif  // SRC_COMMON_TRACE_H_
