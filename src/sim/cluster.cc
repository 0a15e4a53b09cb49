#include "src/sim/cluster.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/strings.h"

namespace itv::sim {

// --- Network -----------------------------------------------------------------

Duration Network::LatencyBetween(uint32_t a, uint32_t b) const {
  if (IsSettopHost(a) || IsSettopHost(b)) {
    return options_.server_settop_latency;
  }
  return options_.server_server_latency;
}

bool Network::IsBlocked(uint32_t a, uint32_t b) const {
  if (isolated_.count(a) > 0 || isolated_.count(b) > 0) {
    return true;
  }
  return partitions_.count(LinkKey(a, b)) > 0;
}

void Network::Partition(uint32_t a, uint32_t b, bool blocked) {
  if (blocked) {
    partitions_.insert(LinkKey(a, b));
  } else {
    partitions_.erase(LinkKey(a, b));
  }
}

void Network::Isolate(uint32_t host, bool isolated) {
  if (isolated) {
    isolated_.insert(host);
  } else {
    isolated_.erase(host);
  }
}

void Network::HealAllPartitions() {
  partitions_.clear();
  isolated_.clear();
}

void Network::SeedFaultRng(uint64_t seed) { fault_rng_ = Rng(seed); }

void Network::SetFaultInjection(const NetworkFaultOptions& faults) {
  faults_ = faults;
  if (!faults_.any()) {
    link_front_.clear();
  }
}

void Network::ClearFaultInjection() {
  faults_ = NetworkFaultOptions{};
  link_front_.clear();
}

void Network::Route(wire::Endpoint src, wire::Endpoint dst, wire::Message msg) {
  msg.source = src;
  if (c_msg_total_ == nullptr) {
    Metrics& metrics = cluster_.metrics();
    c_msg_total_ = &metrics.Intern("net.msg.total");
    c_bytes_total_ = &metrics.Intern("net.bytes.total");
    c_msg_server_settop_ = &metrics.Intern("net.msg.server_settop");
    c_msg_server_server_ = &metrics.Intern("net.msg.server_server");
    c_msg_dropped_ = &metrics.Intern("net.msg.dropped");
    c_msg_fault_dropped_ = &metrics.Intern("net.msg.fault_dropped");
    c_msg_delayed_ = &metrics.Intern("net.msg.delayed");
    c_msg_reordered_ = &metrics.Intern("net.msg.reordered");
  }
  ++*c_msg_total_;
  *c_bytes_total_ += msg.payload.size() + 64;
  if (IsSettopHost(src.host) || IsSettopHost(dst.host)) {
    ++*c_msg_server_settop_;
  } else {
    ++*c_msg_server_server_;
  }
  if (tap_) {
    tap_(src, dst, msg);
  }
  if (IsBlocked(src.host, dst.host)) {
    ++*c_msg_dropped_;
    return;
  }

  Time arrival = cluster_.scheduler().Now() + LatencyBetween(src.host, dst.host);
  if (faults_.any()) {
    if (faults_.drop_rate > 0 && fault_rng_.Bernoulli(faults_.drop_rate)) {
      ++*c_msg_dropped_;
      ++*c_msg_fault_dropped_;
      return;
    }
    auto sample = [this](Duration lo, Duration hi) {
      if (hi <= lo) {
        return lo;
      }
      return Duration::Nanos(fault_rng_.Range(lo.nanos(), hi.nanos()));
    };
    Time& front = link_front_[{src.host, dst.host}];
    if (faults_.reorder_rate > 0 && fault_rng_.Bernoulli(faults_.reorder_rate)) {
      // Held: extra hold time, exempt from the FIFO clamp and not advancing
      // the link front, so later sends on this link overtake it.
      arrival = arrival + sample(faults_.reorder_hold_min,
                                 faults_.reorder_hold_max);
      ++*c_msg_reordered_;
    } else {
      if (faults_.delay_rate > 0 && fault_rng_.Bernoulli(faults_.delay_rate)) {
        arrival = arrival + sample(faults_.delay_min, faults_.delay_max);
        ++*c_msg_delayed_;
      }
      if (arrival < front) {
        arrival = front;  // Delays stretch a link but never reorder it.
      }
      front = arrival;
    }
  }
  cluster_.scheduler().ScheduleAt(
      arrival, [this, src, dst, msg = std::move(msg)]() mutable {
        Node* node = cluster_.FindNode(dst.host);
        if (node == nullptr || !node->alive() || IsBlocked(src.host, dst.host)) {
          ++*c_msg_dropped_;
          return;
        }
        SimTransport* transport = node->TransportAt(dst.port);
        if (transport == nullptr || !transport->has_receiver()) {
          // Connection-refused: the process is gone. Requests get a NACK so
          // callers learn immediately that the reference is dead (paper
          // Section 3.2.1); stray replies are dropped.
          if (msg.kind == wire::MsgKind::kRequest) {
            wire::Message nack;
            nack.kind = wire::MsgKind::kNack;
            nack.call_id = msg.call_id;
            Route(dst, src, std::move(nack));
          }
          return;
        }
        transport->Deliver(std::move(msg));
      });
}

// --- SimTransport ------------------------------------------------------------

void SimTransport::Send(const wire::Endpoint& dst, wire::Message msg) {
  cluster_.network().Route(local_, dst, std::move(msg));
}

// --- Process -----------------------------------------------------------------

Process::Process(Cluster& cluster, Node& node, std::string name, uint64_t pid,
                 uint16_t port)
    : cluster_(cluster),
      node_(node),
      name_(std::move(name)),
      pid_(pid),
      port_(port),
      incarnation_(cluster.NextIncarnation()),
      log_identity_(node.name() + "/" + name_),
      executor_(cluster.scheduler()),
      tracer_(&cluster.trace_buffer(), &executor_, node.name(), name_, pid),
      transport_(std::make_unique<SimTransport>(cluster,
                                                wire::Endpoint{node.host(), port})),
      default_policy_(log_identity_),
      runtime_(std::make_unique<rpc::ObjectRuntime>(executor_, *transport_,
                                                    incarnation_,
                                                    &default_policy_,
                                                    &cluster.metrics())) {
  executor_.set_identity(&log_identity_);
  transport_->set_identity(&log_identity_);
  runtime_->set_tracer(&tracer_);
}

Process::~Process() = default;

uint32_t Process::host() const { return node_.host(); }

void Process::WatchExitOf(Process& target,
                          std::function<void(uint64_t, ExitReason)> fn) {
  target.exit_watchers_.push_back(ExitWatcher{pid_, std::move(fn)});
}

void Process::Exit() { node_.Kill(pid_, ExitReason::kExited); }

void Process::DoKill(ExitReason reason) {
  if (!alive_) {
    return;
  }
  alive_ = false;

  // 1. No more timers fire into this process's objects.
  executor_.CancelAll();
  // 2. No more messages are delivered; in-flight requests will be NACKed.
  node_.ports_.erase(port_);
  transport_->SetReceiver(nullptr);
  // 3. Destroy service objects, newest first (they may reference older ones).
  while (!owned_.empty()) {
    owned_.pop_back();
  }
  // 4. Tear down the ORB.
  runtime_.reset();
  // 5. Notify local watchers (the SSC's wait()); deferred so it never runs in
  //    the middle of this teardown.
  for (ExitWatcher& watcher : exit_watchers_) {
    cluster_.scheduler().Post(
        [&cluster = cluster_, watcher_pid = watcher.watcher_pid, pid = pid_,
         reason, fn = std::move(watcher.fn)] {
          Process* watcher_proc = cluster.FindProcessGlobal(watcher_pid);
          if (watcher_proc != nullptr && watcher_proc->alive()) {
            fn(pid, reason);
          }
        });
  }
  exit_watchers_.clear();
}

// --- Node --------------------------------------------------------------------

Process& Node::Spawn(const std::string& name, uint16_t port) {
  ITV_CHECK(alive_) << "spawn on crashed node " << name_;
  if (port == 0) {
    port = next_ephemeral_port_++;
  }
  ITV_CHECK(ports_.find(port) == ports_.end())
      << "port " << port << " already bound on " << name_;
  uint64_t pid = cluster_.NextPid();
  auto process = std::make_unique<Process>(cluster_, *this, name, pid, port);
  Process* raw = process.get();
  ports_[port] = raw->transport_.get();
  processes_[pid] = std::move(process);
  cluster_.RegisterProcess(raw);
  return *raw;
}

void Node::Kill(uint64_t pid, ExitReason reason) {
  auto it = processes_.find(pid);
  if (it == processes_.end() || it->second->kill_pending_) {
    return;
  }
  it->second->kill_pending_ = true;
  // Defer actual teardown so a process can never be destroyed while its own
  // code is on the stack.
  cluster_.scheduler().Post([this, pid, reason] {
    auto iter = processes_.find(pid);
    if (iter == processes_.end()) {
      return;
    }
    iter->second->DoKill(reason);
    cluster_.UnregisterProcess(pid);
    processes_.erase(iter);
  });
}

void Node::Crash() {
  if (!alive_) {
    return;
  }
  alive_ = false;  // Immediately: messages in flight are dropped, not NACKed.
  for (auto& [pid, process] : processes_) {
    if (!process->kill_pending_) {
      process->kill_pending_ = true;
      cluster_.scheduler().Post([this, pid = pid] {
        auto iter = processes_.find(pid);
        if (iter == processes_.end()) {
          return;
        }
        iter->second->DoKill(ExitReason::kNodeCrash);
        cluster_.UnregisterProcess(pid);
        processes_.erase(iter);
      });
    }
  }
}

void Node::Restart() {
  ITV_CHECK(processes_.empty() || !alive_)
      << "restart of a node that is still up";
  alive_ = true;
}

Process* Node::FindProcess(uint64_t pid) {
  auto it = processes_.find(pid);
  return it == processes_.end() ? nullptr : it->second.get();
}

Process* Node::FindProcessByName(const std::string& name) {
  for (auto& [pid, process] : processes_) {
    if (process->name() == name && process->alive()) {
      return process.get();
    }
  }
  return nullptr;
}

Process* Node::ProcessAtPort(uint16_t port) {
  for (auto& [pid, process] : processes_) {
    if (process->port() == port && process->alive()) {
      return process.get();
    }
  }
  return nullptr;
}

void Node::ForEachProcess(const std::function<void(Process&)>& fn) {
  for (auto& [pid, process] : processes_) {
    fn(*process);
  }
}

SimTransport* Node::TransportAt(uint16_t port) {
  auto it = ports_.find(port);
  return it == ports_.end() ? nullptr : it->second;
}

// --- Cluster -----------------------------------------------------------------

Cluster::Cluster(NetworkOptions network_options)
    : network_(*this, network_options) {
  SetLogTimeSource([this] { return scheduler_.Now(); });
}

Cluster::~Cluster() { SetLogTimeSource(nullptr); }

Node& Cluster::AddServer(const std::string& name) {
  uint32_t host = MakeServerHost(next_server_index_++);
  auto node = std::make_unique<Node>(*this, NodeKind::kServer, name, host);
  Node* raw = node.get();
  nodes_[host] = std::move(node);
  servers_.push_back(raw);
  return *raw;
}

Node& Cluster::AddSettop(uint8_t neighborhood) {
  uint16_t index = ++next_settop_index_[neighborhood];
  uint32_t host = MakeSettopHost(neighborhood, index);
  std::string name = StrFormat("settop-%u-%u", neighborhood, index);
  auto node = std::make_unique<Node>(*this, NodeKind::kSettop, name, host);
  Node* raw = node.get();
  nodes_[host] = std::move(node);
  settops_.push_back(raw);
  return *raw;
}

Node* Cluster::FindNode(uint32_t host) {
  auto it = nodes_.find(host);
  return it == nodes_.end() ? nullptr : it->second.get();
}

Process* Cluster::FindProcessGlobal(uint64_t pid) {
  auto it = process_index_.find(pid);
  return it == process_index_.end() ? nullptr : it->second;
}

Process* Cluster::ProcessAtEndpoint(const wire::Endpoint& endpoint) {
  Node* node = FindNode(endpoint.host);
  if (node == nullptr || !node->alive()) {
    return nullptr;
  }
  return node->ProcessAtPort(endpoint.port);
}

void Cluster::ForEachProcess(const std::function<void(Process&)>& fn) {
  for (auto& [host, node] : nodes_) {
    node->ForEachProcess(fn);
  }
}

void Cluster::RegisterProcess(Process* p) { process_index_[p->pid()] = p; }
void Cluster::UnregisterProcess(uint64_t pid) { process_index_.erase(pid); }

}  // namespace itv::sim
