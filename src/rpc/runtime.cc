#include "src/rpc/runtime.h"

#include <utility>

#include "src/common/logging.h"
#include "src/common/strings.h"

namespace itv::rpc {

ObjectRuntime::ObjectRuntime(Executor& executor, Transport& transport,
                             uint64_t incarnation, SecurityPolicy* policy,
                             Metrics* metrics)
    : executor_(executor),
      transport_(transport),
      incarnation_(incarnation),
      policy_(policy),
      metrics_(metrics) {
  if (metrics_ != nullptr) {
    c_request_sent_ = &metrics_->Intern("rpc.request.sent");
    c_request_recv_ = &metrics_->Intern("rpc.request.recv");
    c_reply_sent_ = &metrics_->Intern("rpc.reply.sent");
    c_reply_recv_ = &metrics_->Intern("rpc.reply.recv");
    c_nack_sent_ = &metrics_->Intern("rpc.nack.sent");
    c_nack_recv_ = &metrics_->Intern("rpc.nack.recv");
    c_timeout_ = &metrics_->Intern("rpc.timeout");
  }
  transport_.SetReceiver([this](wire::Message msg) { OnMessage(std::move(msg)); });
}

ObjectRuntime::~ObjectRuntime() {
  transport_.SetReceiver(nullptr);
  for (auto& [id, call] : pending_) {
    if (call.timer != kInvalidTimerId) {
      executor_.Cancel(call.timer);
    }
    // Promises are dropped unset: the whole process is being torn down, so
    // running continuations of dying code would be worse than silence.
  }
}

wire::ObjectRef ObjectRuntime::Export(Skeleton* servant) {
  return ExportAt(servant, next_object_id_++);
}

wire::ObjectRef ObjectRuntime::ExportAt(Skeleton* servant, uint64_t object_id) {
  ITV_CHECK(servants_.find(object_id) == servants_.end())
      << "object id " << object_id << " already exported";
  if (object_id >= next_object_id_) {
    next_object_id_ = object_id + 1;
  }
  servants_[object_id] = servant;
  wire::ObjectRef ref;
  ref.endpoint = transport_.local_endpoint();
  ref.incarnation = incarnation_;
  ref.type_id = wire::TypeIdFromName(servant->interface_name());
  ref.object_id = object_id;
  return ref;
}

void ObjectRuntime::Unexport(const wire::ObjectRef& ref) {
  servants_.erase(ref.object_id);
}

Future<wire::Bytes> ObjectRuntime::Invoke(const wire::ObjectRef& ref,
                                          uint32_t method_id, wire::Bytes args,
                                          const CallOptions& options) {
  if (ref.is_null()) {
    return Future<wire::Bytes>::Ready(
        InvalidArgumentError("invoke on null object reference"));
  }

  wire::Message msg;
  msg.kind = wire::MsgKind::kRequest;
  msg.call_id = next_call_id_++;
  msg.object_id = ref.object_id;
  msg.type_id = ref.type_id;
  msg.method_id = method_id;
  msg.target_incarnation = ref.incarnation;
  msg.payload = std::move(args);

  // Propagate the caller's trace: the request carries a child span of
  // whatever traced operation is on the stack; untraced calls stay untraced
  // (no spans, no wire ids), keeping data-plane chatter out of the buffer.
  trace::TraceContext call_trace;
  if (tracer_ != nullptr && tracer_->current().valid()) {
    call_trace = tracer_->Child(tracer_->current());
    msg.trace_id = call_trace.trace_id;
    msg.span_id = call_trace.span_id;
  }

  if (policy_ != nullptr) {
    Status s = policy_->ProtectRequest(ref.endpoint, &msg);
    if (!s.ok()) {
      return Future<wire::Bytes>::Ready(std::move(s));
    }
  }

  PendingCall call;
  Future<wire::Bytes> future = call.promise.future();
  call.ticket_id = msg.auth.ticket_id;
  if (call_trace.valid()) {
    call.trace = call_trace;
    call.started = tracer_->now();
    call.trace_detail =
        StrFormat("obj=%llu m=%u to=%s",
                  static_cast<unsigned long long>(ref.object_id), method_id,
                  ref.endpoint.ToString().c_str());
  }
  call.target = ref;
  uint64_t call_id = msg.call_id;
  if (!options.timeout.is_infinite()) {
    call.timer = executor_.ScheduleAfter(options.timeout, [this, call_id, ref] {
      Bump(c_timeout_);
      NotifyStaleTarget(ref, /*definitely_dead=*/false);
      FailCall(call_id,
               DeadlineExceededError("rpc timeout to " + ref.endpoint.ToString()));
    });
  }
  pending_.emplace(call_id, std::move(call));

  Bump(c_request_sent_);
  transport_.Send(ref.endpoint, std::move(msg));
  return future;
}

void ObjectRuntime::OnMessage(wire::Message msg) {
  switch (msg.kind) {
    case wire::MsgKind::kRequest:
      HandleRequest(std::move(msg));
      break;
    case wire::MsgKind::kReply:
      HandleReply(std::move(msg));
      break;
    case wire::MsgKind::kNack:
      HandleNack(msg);
      break;
  }
}

void ObjectRuntime::HandleRequest(wire::Message msg) {
  Bump(c_request_recv_);

  // Stale reference: the implementing process has died and this incarnation
  // took its place (paper Section 3.2.1: the timestamp "prevents use of this
  // reference after the implementing process dies"). Incarnation 0 marks a
  // *bootstrap* reference constructed from a well-known address (paper: "with
  // a few exceptions, notably the name service, object references are only
  // good as long as the implementor is alive" — name service references are
  // the exception and survive restarts).
  if (msg.target_incarnation != 0 && msg.target_incarnation != incarnation_) {
    SendNack(msg);
    return;
  }
  auto it = servants_.find(msg.object_id);
  if (it == servants_.end()) {
    SendNack(msg);
    return;
  }
  Skeleton* servant = it->second;
  if (msg.type_id != wire::TypeIdFromName(servant->interface_name())) {
    wire::Message reply;
    reply.kind = wire::MsgKind::kReply;
    reply.call_id = msg.call_id;
    reply.status = StatusCode::kInvalidArgument;
    reply.status_message = "interface type mismatch";
    Bump(c_reply_sent_);
    transport_.Send(msg.source, std::move(reply));
    return;
  }

  CallContext ctx;
  ctx.caller_endpoint = msg.source;
  if (policy_ != nullptr) {
    Result<CallerInfo> admitted = policy_->AdmitRequest(&msg);
    if (!admitted.ok()) {
      wire::Message reply;
      reply.kind = wire::MsgKind::kReply;
      reply.call_id = msg.call_id;
      reply.status = StatusCode::kPermissionDenied;
      reply.status_message = admitted.status().message();
      Bump(c_reply_sent_);
      transport_.Send(msg.source, std::move(reply));
      return;
    }
    ctx.caller = *admitted;
  }

  // Join the caller's trace: this dispatch becomes a child span of the wire
  // context, recorded when the servant replies (handling may be async).
  Time dispatch_begin;
  if (tracer_ != nullptr && msg.trace_id != 0) {
    trace::TraceContext wire_ctx;
    wire_ctx.trace_id = msg.trace_id;
    wire_ctx.span_id = msg.span_id;
    ctx.trace = tracer_->Child(wire_ctx);
    dispatch_begin = tracer_->now();
  }

  // Capture what the reply needs; the servant may complete asynchronously.
  wire::Endpoint reply_to = msg.source;
  uint64_t call_id = msg.call_id;
  uint64_t ticket_id = msg.auth.ticket_id;
  trace::TraceContext server_trace = ctx.trace;
  std::string span_detail;
  if (server_trace.valid()) {
    span_detail = StrFormat("%s#%u", std::string(servant->interface_name()).c_str(),
                            msg.method_id);
  }
  ReplyFn reply_fn = [this, reply_to, call_id, ticket_id, server_trace,
                      dispatch_begin, span_detail](Status status,
                                                   wire::Bytes payload) {
    if (tracer_ != nullptr && server_trace.valid()) {
      std::string detail = span_detail;
      if (!status.ok()) {
        detail += " status=";
        detail += StatusCodeName(status.code());
      }
      tracer_->Span(server_trace, "rpc.server", dispatch_begin,
                    std::move(detail));
    }
    wire::Message reply;
    reply.kind = wire::MsgKind::kReply;
    reply.call_id = call_id;
    reply.status = status.code();
    reply.status_message = status.message();
    reply.payload = std::move(payload);
    if (policy_ != nullptr) {
      Status s = policy_->ProtectReply(ticket_id, &reply);
      if (!s.ok()) {
        reply.status = StatusCode::kInternal;
        reply.status_message = "reply protection failed: " + s.message();
        reply.payload.clear();
      }
    }
    Bump(c_reply_sent_);
    transport_.Send(reply_to, std::move(reply));
  };

  // Synchronous servant work (including nested Invokes) runs under this
  // call's context, so downstream requests are stamped as its children.
  trace::ScopedContext scoped(tracer_, ctx.trace);
  servant->Dispatch(msg.method_id, msg.payload, ctx, std::move(reply_fn));
}

void ObjectRuntime::HandleReply(wire::Message msg) {
  Bump(c_reply_recv_);
  auto it = pending_.find(msg.call_id);
  if (it == pending_.end()) {
    return;  // Late reply after timeout; drop.
  }
  PendingCall call = std::move(it->second);
  pending_.erase(it);
  if (call.timer != kInvalidTimerId) {
    executor_.Cancel(call.timer);
  }
  if (policy_ != nullptr) {
    Status s = policy_->CheckReply(call.ticket_id, &msg);
    if (!s.ok()) {
      FinishCallSpan(call, StatusCode::kInternal);
      call.promise.Set(InternalError("reply verification failed: " + s.message()));
      return;
    }
  }
  FinishCallSpan(call, msg.status);
  if (msg.status != StatusCode::kOk) {
    call.promise.Set(Status(msg.status, msg.status_message));
    return;
  }
  call.promise.Set(std::move(msg.payload));
}

void ObjectRuntime::HandleNack(const wire::Message& msg) {
  Bump(c_nack_recv_);
  auto it = pending_.find(msg.call_id);
  if (it != pending_.end() && !it->second.target.is_null()) {
    // A NACK is definitive: the implementor died or was restarted with a new
    // incarnation, so any cached binding to this reference is stale.
    NotifyStaleTarget(it->second.target, /*definitely_dead=*/true);
  }
  FailCall(msg.call_id, UnavailableError("object implementor is gone (" +
                                         msg.source.ToString() + ")"));
}

void ObjectRuntime::SendNack(const wire::Message& request) {
  wire::Message nack;
  nack.kind = wire::MsgKind::kNack;
  nack.call_id = request.call_id;
  Bump(c_nack_sent_);
  transport_.Send(request.source, std::move(nack));
}

void ObjectRuntime::FailCall(uint64_t call_id, Status status) {
  auto it = pending_.find(call_id);
  if (it == pending_.end()) {
    return;
  }
  PendingCall call = std::move(it->second);
  pending_.erase(it);
  if (call.timer != kInvalidTimerId) {
    executor_.Cancel(call.timer);
  }
  FinishCallSpan(call, status.code());
  call.promise.Set(std::move(status));
}

void ObjectRuntime::NotifyStaleTarget(const wire::ObjectRef& target,
                                      bool definitely_dead) {
  for (const auto& [id, observer] : stale_target_observers_) {
    observer(target, definitely_dead);
  }
}

// Records the client-side span for a resolved call (reply, NACK, or timeout).
void ObjectRuntime::FinishCallSpan(PendingCall& call, StatusCode status) {
  if (tracer_ == nullptr || !call.trace.valid()) {
    return;
  }
  std::string detail = std::move(call.trace_detail);
  if (status != StatusCode::kOk) {
    detail += " status=";
    detail += StatusCodeName(status);
  }
  tracer_->Span(call.trace, "rpc.call", call.started, std::move(detail));
}

}  // namespace itv::rpc
