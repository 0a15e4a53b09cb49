// ObjectRuntime: the per-process object-exchange runtime (the paper's "OCS
// runtime", Section 3.2). One instance lives in every server process and
// every settop process.
//
// Server side: a process creates servant objects (Skeleton subclasses,
// normally emitted by the stub pattern in idl/README.md), Export()s them to
// obtain object references, and binds those into the name service.
//
// Client side: typed proxies call Invoke(), which marshals a request, sends
// it through the Transport, and completes a Future with the reply payload.
// A NACK (dead/restarted implementor) completes with UNAVAILABLE — the signal
// for the binding table to re-resolve (paper Section 8.2). Lost messages
// surface as DEADLINE_EXCEEDED via per-call timers.

#ifndef SRC_RPC_RUNTIME_H_
#define SRC_RPC_RUNTIME_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/executor.h"
#include "src/common/future.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/rpc/security.h"
#include "src/rpc/transport.h"
#include "src/wire/message.h"
#include "src/wire/object_ref.h"

namespace itv::rpc {

// Per-call context handed to servants: who called, and from where. The
// paper's services use this to decide what rights to grant the caller and
// (for the neighborhood selector) to learn the caller's IP.
struct CallContext {
  CallerInfo caller;
  wire::Endpoint caller_endpoint;
  // Server-side span context for this call (invalid when the request was
  // untraced). Servants that do asynchronous downstream work propagate it
  // explicitly; synchronous work inherits it via the runtime's ScopedContext.
  trace::TraceContext trace;
};

// Completion for a servant method: status + marshalled reply payload.
using ReplyFn = std::function<void(Status, wire::Bytes)>;

// A servant. Hand-written skeletons unmarshal args, invoke the
// implementation, and marshal results (see src/rpc/stub_helpers.h).
class Skeleton {
 public:
  virtual ~Skeleton() = default;
  virtual std::string_view interface_name() const = 0;
  virtual void Dispatch(uint32_t method_id, const wire::Bytes& args,
                        const CallContext& ctx, ReplyFn reply) = 0;
};

struct CallOptions {
  Duration timeout = Duration::Seconds(2.0);
};

class ObjectRuntime {
 public:
  // `incarnation` is the paper's reference timestamp: unique per process
  // start (the simulator uses start-time nanos; real mode uses wall nanos).
  // `policy` may be null (anonymous, unsigned calls). `metrics` may be null.
  ObjectRuntime(Executor& executor, Transport& transport, uint64_t incarnation,
                SecurityPolicy* policy = nullptr, Metrics* metrics = nullptr);
  ~ObjectRuntime();

  ObjectRuntime(const ObjectRuntime&) = delete;
  ObjectRuntime& operator=(const ObjectRuntime&) = delete;

  // --- Server side ---------------------------------------------------------

  // Makes `servant` invocable and returns its reference. The runtime does not
  // own the servant; it must outlive the export (or be Unexport()ed).
  wire::ObjectRef Export(Skeleton* servant);

  // Exports at a fixed object id (well-known objects reachable through
  // bootstrap references, e.g. the name service root context). Fatal if the
  // id is taken.
  wire::ObjectRef ExportAt(Skeleton* servant, uint64_t object_id);

  // Invalidates the object id; subsequent requests for it are NACKed.
  void Unexport(const wire::ObjectRef& ref);

  size_t exported_count() const { return servants_.size(); }

  // --- Client side ---------------------------------------------------------

  // Invokes method `method_id` on `ref` with marshalled `args`. The future
  // completes with the reply payload, or with the error status.
  Future<wire::Bytes> Invoke(const wire::ObjectRef& ref, uint32_t method_id,
                             wire::Bytes args, const CallOptions& options = {});

  uint64_t incarnation() const { return incarnation_; }
  wire::Endpoint local_endpoint() const { return transport_.local_endpoint(); }
  Executor& executor() { return executor_; }
  Metrics* metrics() { return metrics_; }
  SecurityPolicy* security_policy() { return policy_; }

  // Swap the security policy once the auth service is reachable (bootstrap
  // order: SSC starts services before tickets exist).
  void set_security_policy(SecurityPolicy* policy) { policy_ = policy; }

  // Observers notified when a call to `target` fails in a way that suggests
  // the reference is stale: a NACK (`definitely_dead` — the implementor is
  // gone or restarted, paper Section 3.2.1) or a timeout (`!definitely_dead`
  // — crash/partition suspicion). The binding table subscribes to drop
  // entries pointing at the dead process, so the next call goes back to the
  // name service instead of replaying the stale binding. Add returns a handle
  // for Remove; an observer must be removed before it is destroyed.
  using StaleTargetObserver =
      std::function<void(const wire::ObjectRef& target, bool definitely_dead)>;
  uint64_t AddStaleTargetObserver(StaleTargetObserver observer) {
    stale_target_observers_.emplace(next_observer_id_, std::move(observer));
    return next_observer_id_++;
  }
  void RemoveStaleTargetObserver(uint64_t id) {
    stale_target_observers_.erase(id);
  }

  // Tracer for causal spans (may be null / unset: tracing off). When set,
  // Invoke() stamps outgoing requests with a child of the tracer's current
  // context, and HandleRequest() runs servant dispatch under the propagated
  // context so a trace flows settop -> NS -> RAS -> SSC across processes.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }
  trace::Tracer* tracer() { return tracer_; }

 private:
  struct PendingCall {
    Promise<wire::Bytes> promise;
    TimerId timer = kInvalidTimerId;
    uint64_t ticket_id = 0;  // For reply verification.
    // Client-side span (only when the call was issued under a traced
    // context): recorded when the reply/NACK/timeout resolves the call.
    trace::TraceContext trace;
    Time started;
    std::string trace_detail;
    // Where the request went; lets NACK/timeout handling tell stale-target
    // observers which reference failed.
    wire::ObjectRef target;
  };

  void OnMessage(wire::Message msg);
  void HandleRequest(wire::Message msg);
  void HandleReply(wire::Message msg);
  void HandleNack(const wire::Message& msg);
  void SendNack(const wire::Message& request);
  void FailCall(uint64_t call_id, Status status);
  void FinishCallSpan(PendingCall& call, StatusCode status);
  void NotifyStaleTarget(const wire::ObjectRef& target, bool definitely_dead);

  static void Bump(Metrics::Counter* counter) {
    if (counter != nullptr) {
      ++*counter;
    }
  }

  Executor& executor_;
  Transport& transport_;
  const uint64_t incarnation_;
  SecurityPolicy* policy_;
  Metrics* metrics_;
  trace::Tracer* tracer_ = nullptr;

  // Pre-interned hot-path counters: one lookup at construction, a plain
  // increment per message (null when metrics_ is null).
  Metrics::Counter* c_request_sent_ = nullptr;
  Metrics::Counter* c_request_recv_ = nullptr;
  Metrics::Counter* c_reply_sent_ = nullptr;
  Metrics::Counter* c_reply_recv_ = nullptr;
  Metrics::Counter* c_nack_sent_ = nullptr;
  Metrics::Counter* c_nack_recv_ = nullptr;
  Metrics::Counter* c_timeout_ = nullptr;

  uint64_t next_object_id_ = 1;
  uint64_t next_call_id_ = 1;
  std::map<uint64_t, Skeleton*> servants_;
  std::map<uint64_t, PendingCall> pending_;
  uint64_t next_observer_id_ = 1;
  std::map<uint64_t, StaleTargetObserver> stale_target_observers_;
};

}  // namespace itv::rpc

#endif  // SRC_RPC_RUNTIME_H_
