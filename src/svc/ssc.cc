#include "src/svc/ssc.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/common/trace.h"

namespace itv::svc {

SscService::SscService(sim::Process& self, ServiceLauncher& launcher,
                       Options options)
    : self_(self), launcher_(launcher), options_(options) {}

Status SscService::Start(const std::string& name) {
  Managed& service = services_[name];
  service.name = name;
  service.want_running = true;
  if (service.running) {
    return OkStatus();
  }
  return DoLaunch(service);
}

Status SscService::DoLaunch(Managed& service) {
  Result<uint64_t> pid = launcher_.Launch(service.name);
  if (!pid.ok()) {
    ITV_LOG(Error) << "ssc@" << self_.node().name() << ": cannot launch "
                   << service.name << ": " << pid.status();
    return pid.status();
  }
  service.pid = *pid;
  service.running = true;
  sim::Process* child = self_.node().FindProcess(*pid);
  ITV_CHECK(child != nullptr);
  std::string name = service.name;
  // wait(2) analog: be told when the child exits, however it exits.
  self_.WatchExitOf(*child, [this, name](uint64_t pid, sim::ExitReason) {
    OnServiceExit(name, pid);
  });
  ITV_LOG(Info) << "ssc@" << self_.node().name() << ": started " << name
                << " (pid " << *pid << ")";
  return OkStatus();
}

Status SscService::Stop(const std::string& name) {
  auto it = services_.find(name);
  if (it == services_.end()) {
    return NotFoundError("no such service: " + name);
  }
  it->second.want_running = false;
  if (it->second.running) {
    self_.node().Kill(it->second.pid);
    // OnServiceExit performs the bookkeeping (and will not restart).
  }
  return OkStatus();
}

void SscService::OnServiceExit(const std::string& name, uint64_t pid) {
  // Dead process => its registered objects are dead: tell the auditors
  // (paper Section 6.1: "when a process is stopped or crashes, the callback
  // is invoked with the list of objects associated with that process").
  auto objects = objects_by_pid_.find(pid);
  if (objects != objects_by_pid_.end()) {
    FireDead(objects->second);
    objects_by_pid_.erase(objects);
  }

  auto it = services_.find(name);
  if (it == services_.end() || it->second.pid != pid) {
    return;
  }
  Managed& service = it->second;
  service.running = false;
  service.pid = 0;
  if (!service.want_running) {
    return;
  }
  // Automatic restart after failure (Section 8.1).
  ++service.restarts;
  // Root a trace at the exit so the restart delay is visible as the
  // ssc.restart span (exit -> relaunch) in fail-over timelines.
  trace::Tracer* tracer = self_.runtime().tracer();
  trace::TraceContext restart_ctx;
  Time exit_time;
  if (tracer != nullptr) {
    restart_ctx = tracer->StartTrace();
    exit_time = tracer->now();
    tracer->Instant(restart_ctx, "ssc.service_exit",
                    name + " pid=" + std::to_string(pid));
  }
  ITV_LOG(Info) << "ssc@" << self_.node().name() << ": restarting " << name
                << " (restart #" << service.restarts << ")";
  self_.executor().ScheduleAfter(options_.restart_delay, [this, name,
                                                          restart_ctx,
                                                          exit_time] {
    auto iter = services_.find(name);
    if (iter == services_.end() || !iter->second.want_running ||
        iter->second.running) {
      return;
    }
    if (!DoLaunch(iter->second).ok()) {
      // Launch failure: retry on the same cadence.
      OnServiceExit(name, 0);
      return;
    }
    trace::Tracer* tracer = self_.runtime().tracer();
    if (tracer != nullptr) {
      tracer->Span(restart_ctx, "ssc.restart", exit_time, name);
    }
  });
}

void SscService::HandleNotifyReady(uint64_t pid,
                                   std::vector<wire::ObjectRef> objects) {
  FireReady(objects);
  bool first_registration = objects_by_pid_.find(pid) == objects_by_pid_.end();
  auto& list = objects_by_pid_[pid];
  for (const wire::ObjectRef& object : objects) {
    // A lifecycle sends its announcement again when the reply is lost.
    if (std::find(list.begin(), list.end(), object) == list.end()) {
      list.push_back(object);
    }
  }

  if (!first_registration) {
    return;
  }
  // SSC-launched services are already exit-watched (DoLaunch). A process the
  // SSC did not launch still gets death-tracking for its objects, so the
  // audit chain covers it.
  for (const auto& [name, service] : services_) {
    if (service.pid == pid) {
      return;
    }
  }
  sim::Process* process = self_.node().FindProcess(pid);
  if (process == nullptr) {
    // Already gone: its objects are dead on arrival.
    FireDead(list);
    objects_by_pid_.erase(pid);
    return;
  }
  self_.WatchExitOf(*process, [this](uint64_t dead_pid, sim::ExitReason) {
    auto it = objects_by_pid_.find(dead_pid);
    if (it != objects_by_pid_.end()) {
      FireDead(it->second);
      objects_by_pid_.erase(it);
    }
  });
}

std::vector<wire::ObjectRef> SscService::AllLiveObjects() const {
  std::vector<wire::ObjectRef> all;
  for (const auto& [pid, objects] : objects_by_pid_) {
    all.insert(all.end(), objects.begin(), objects.end());
  }
  return all;
}

void SscService::FireReady(const std::vector<wire::ObjectRef>& objects) {
  if (objects.empty()) {
    return;
  }
  for (const wire::ObjectRef& callback : callbacks_) {
    ras::ObjectStatusCallbackProxy proxy(self_.runtime(), callback);
    proxy.ObjectsReady(objects).OnReady([](const Result<void>&) {});
  }
}

void SscService::FireDead(const std::vector<wire::ObjectRef>& objects) {
  if (objects.empty()) {
    return;
  }
  for (const wire::ObjectRef& callback : callbacks_) {
    ras::ObjectStatusCallbackProxy proxy(self_.runtime(), callback);
    proxy.ObjectsDead(objects).OnReady([](const Result<void>&) {});
  }
}

std::vector<ServiceRecord> SscService::List() const {
  std::vector<ServiceRecord> out;
  for (const auto& [name, service] : services_) {
    ServiceRecord record;
    record.name = name;
    record.running = service.running;
    record.pid = service.pid;
    record.restarts = service.restarts;
    out.push_back(std::move(record));
  }
  return out;
}

uint32_t SscService::restarts_of(const std::string& name) const {
  auto it = services_.find(name);
  return it == services_.end() ? 0 : it->second.restarts;
}

void SscService::Dispatch(uint32_t method_id, const wire::Bytes& args,
                          const rpc::CallContext& ctx, rpc::ReplyFn reply) {
  switch (method_id) {
    case kSscMethodStartService: {
      std::string name;
      if (!rpc::DecodeArgs(args, &name)) {
        return rpc::ReplyBadArgs(reply);
      }
      Status s = Start(name);
      return s.ok() ? rpc::ReplyOk(reply) : rpc::ReplyError(reply, s);
    }
    case kSscMethodStopService: {
      std::string name;
      if (!rpc::DecodeArgs(args, &name)) {
        return rpc::ReplyBadArgs(reply);
      }
      Status s = Stop(name);
      return s.ok() ? rpc::ReplyOk(reply) : rpc::ReplyError(reply, s);
    }
    case kSscMethodListServices:
      return rpc::ReplyWith(reply, List());
    case kSscMethodNotifyReady: {
      uint64_t pid = 0;
      std::vector<wire::ObjectRef> objects;
      if (!rpc::DecodeArgs(args, &pid, &objects)) {
        return rpc::ReplyBadArgs(reply);
      }
      HandleNotifyReady(pid, std::move(objects));
      return rpc::ReplyOk(reply);
    }
    case kSscMethodRegisterCallback: {
      wire::ObjectRef callback;
      if (!rpc::DecodeArgs(args, &callback)) {
        return rpc::ReplyBadArgs(reply);
      }
      callbacks_.push_back(callback);
      // "The SSC invokes the callback with the list of all active service
      // objects at the time of registration."
      ras::ObjectStatusCallbackProxy proxy(self_.runtime(), callback);
      std::vector<wire::ObjectRef> live = AllLiveObjects();
      if (!live.empty()) {
        proxy.ObjectsReady(live).OnReady([](const Result<void>&) {});
      }
      return rpc::ReplyOk(reply);
    }
    case kSscMethodPing:
      return rpc::ReplyOk(reply);
    case kSscMethodListObjects:
      return rpc::ReplyWith(reply, AllLiveObjects());
    default:
      return rpc::ReplyBadMethod(reply, method_id);
  }
}

}  // namespace itv::svc
