// Simulated ITV cluster: server nodes and settop nodes running single-threaded
// processes, connected by a latency-modelled network (paper Figure 1: SGI
// Challenge servers on FDDI, settops on ATM).
//
// This is the substitution for the Orlando hardware (see DESIGN.md). Every
// OCS mechanism runs unmodified on top of it: processes host an
// rpc::ObjectRuntime over a SimTransport, timers run on the shared virtual
// clock, and failures are injected by killing processes or crashing nodes.
//
// Failure semantics (what the RPC layer observes):
//   - Message to a dead/missing port on a live node -> NACK -> UNAVAILABLE.
//   - Message to a stale incarnation -> NACK (from the runtime) -> UNAVAILABLE.
//   - Message to a crashed node or across a partition -> silently dropped ->
//     DEADLINE_EXCEEDED via the caller's RPC timer.

#ifndef SRC_SIM_CLUSTER_H_
#define SRC_SIM_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/address.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/rand.h"
#include "src/common/trace.h"
#include "src/rpc/runtime.h"
#include "src/rpc/security.h"
#include "src/rpc/transport.h"
#include "src/sim/scheduler.h"

namespace itv::sim {

class Cluster;
class Node;
class Process;

// Addressing helpers (MakeServerHost, MakeSettopHost, NeighborhoodOfHost, ...)
// live in src/common/address.h and are re-exported here for convenience.
using itv::IsServerHost;
using itv::IsSettopHost;
using itv::MakeServerHost;
using itv::MakeSettopHost;
using itv::NeighborhoodOfHost;

enum class NodeKind { kServer, kSettop };
enum class ExitReason { kExited, kKilled, kNodeCrash };

// --- Network -----------------------------------------------------------------

struct NetworkOptions {
  Duration server_server_latency = Duration::Micros(500);  // FDDI.
  Duration server_settop_latency = Duration::Millis(2);    // ATM.
};

// Probabilistic message-fault injection (chaos fuzzing). All sampling comes
// from the network's dedicated PRNG, seeded explicitly, so a fault schedule
// replays identically from its seed.
//
// Semantics:
//   - drop_rate:    the message vanishes (callers see timeouts).
//   - delay_rate:   extra latency in [delay_min, delay_max]; delayed messages
//                   are clamped behind the link's latest scheduled arrival, so
//                   a delay burst stretches a link but never reorders it.
//   - reorder_rate: the message is *held* for [reorder_hold_min, _max] and
//                   exempted from the FIFO clamp, so later sends on the same
//                   link overtake it — genuine reordering, injected on purpose
//                   rather than as an accident of random delays.
struct NetworkFaultOptions {
  double drop_rate = 0.0;
  double delay_rate = 0.0;
  Duration delay_min = Duration::Millis(2);
  Duration delay_max = Duration::Millis(20);
  double reorder_rate = 0.0;
  Duration reorder_hold_min = Duration::Millis(1);
  Duration reorder_hold_max = Duration::Millis(10);

  bool any() const {
    return drop_rate > 0 || delay_rate > 0 || reorder_rate > 0;
  }
};

class Network {
 public:
  Network(Cluster& cluster, NetworkOptions options)
      : cluster_(cluster), options_(options) {}

  // Sends `msg` from `src` toward `dst` (fills msg.source). May drop (dead
  // destination node, partition) or generate a NACK (no listener on port).
  void Route(wire::Endpoint src, wire::Endpoint dst, wire::Message msg);

  // Bidirectionally blocks traffic between two hosts. Symmetric by
  // construction: the pair is canonicalized through LinkKey, so
  // Partition(a, b, ...) and Partition(b, a, ...) address the same link and a
  // fuzz schedule can never half-heal a partition it installed.
  void Partition(uint32_t a, uint32_t b, bool blocked);
  // Blocks all traffic to/from a host.
  void Isolate(uint32_t host, bool isolated);
  bool IsBlocked(uint32_t a, uint32_t b) const;
  // Drops every partition and isolation at once (chaos teardown).
  void HealAllPartitions();
  size_t partition_count() const { return partitions_.size(); }
  size_t isolated_count() const { return isolated_.size(); }

  // --- Fault injection (chaos fuzzing) ---------------------------------------
  // Seeds the injection PRNG; call once before the first SetFaultInjection so
  // runs are reproducible.
  void SeedFaultRng(uint64_t seed);
  void SetFaultInjection(const NetworkFaultOptions& faults);
  void ClearFaultInjection();
  const NetworkFaultOptions& fault_injection() const { return faults_; }

  // Observability hook for tests (called for every routed message, before
  // drop/partition filtering).
  using Tap = std::function<void(const wire::Endpoint& src,
                                 const wire::Endpoint& dst,
                                 const wire::Message& msg)>;
  void SetTap(Tap tap) { tap_ = std::move(tap); }

 private:
  Duration LatencyBetween(uint32_t a, uint32_t b) const;

  // Canonical (unordered) key for a host pair: every partition insert, erase
  // and lookup goes through this, which is what makes partitions symmetric.
  static std::pair<uint32_t, uint32_t> LinkKey(uint32_t a, uint32_t b) {
    return a < b ? std::pair{a, b} : std::pair{b, a};
  }

  Cluster& cluster_;
  NetworkOptions options_;
  std::set<std::pair<uint32_t, uint32_t>> partitions_;
  std::unordered_set<uint32_t> isolated_;
  Tap tap_;

  // Fault injection state. link_front_ tracks the latest scheduled arrival
  // per directed link while faults are active (the FIFO clamp for delays).
  NetworkFaultOptions faults_;
  Rng fault_rng_;
  std::map<std::pair<uint32_t, uint32_t>, Time> link_front_;

  // Hot-path counters, interned on first Route() (the cluster metrics
  // object outlives the network).
  Metrics::Counter* c_msg_total_ = nullptr;
  Metrics::Counter* c_bytes_total_ = nullptr;
  Metrics::Counter* c_msg_server_settop_ = nullptr;
  Metrics::Counter* c_msg_server_server_ = nullptr;
  Metrics::Counter* c_msg_dropped_ = nullptr;
  Metrics::Counter* c_msg_fault_dropped_ = nullptr;
  Metrics::Counter* c_msg_delayed_ = nullptr;
  Metrics::Counter* c_msg_reordered_ = nullptr;
};

// --- Transport ---------------------------------------------------------------

class SimTransport : public rpc::Transport {
 public:
  SimTransport(Cluster& cluster, wire::Endpoint local)
      : cluster_(cluster), local_(local) {}

  void Send(const wire::Endpoint& dst, wire::Message msg) override;
  void SetReceiver(Receiver receiver) override { receiver_ = std::move(receiver); }
  wire::Endpoint local_endpoint() const override { return local_; }

  bool has_receiver() const { return receiver_ != nullptr; }
  void Deliver(wire::Message msg) {
    if (receiver_) {
      // Delivery runs receiving-process code, so log lines it emits carry
      // that process's identity (the executor installs the same identity
      // around timer callbacks).
      ScopedLogIdentity scoped(identity_);
      receiver_(std::move(msg));
    }
  }

  void set_identity(const std::string* identity) { identity_ = identity; }

 private:
  Cluster& cluster_;
  wire::Endpoint local_;
  Receiver receiver_;
  const std::string* identity_ = nullptr;
};

// --- Per-process executor ----------------------------------------------------
// Wraps the cluster scheduler and remembers outstanding timers so a process
// kill cancels everything the process had scheduled (no zombie callbacks into
// destroyed service objects).

class ProcessExecutor : public Executor {
 public:
  explicit ProcessExecutor(Scheduler& scheduler) : scheduler_(scheduler) {}

  Time Now() const override { return scheduler_.Now(); }

  TimerId ScheduleAt(Time when, UniqueFn fn) override {
    auto id_slot = std::make_shared<TimerId>(kInvalidTimerId);
    TimerId id = scheduler_.ScheduleAt(
        when, [this, id_slot, fn = std::move(fn)]() mutable {
          live_.erase(*id_slot);
          ScopedLogIdentity scoped(identity_);
          fn();
        });
    *id_slot = id;
    live_.insert(id);
    return id;
  }

  // Identity stamped onto log lines emitted from this process's callbacks.
  void set_identity(const std::string* identity) { identity_ = identity; }

  bool Cancel(TimerId id) override {
    live_.erase(id);
    return scheduler_.Cancel(id);
  }

  void CancelAll() {
    for (TimerId id : live_) {
      scheduler_.Cancel(id);
    }
    live_.clear();
  }

 private:
  Scheduler& scheduler_;
  std::unordered_set<TimerId> live_;
  const std::string* identity_ = nullptr;
};

// --- Process -----------------------------------------------------------------

class Process {
 public:
  Process(Cluster& cluster, Node& node, std::string name, uint64_t pid,
          uint16_t port);
  ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  uint64_t pid() const { return pid_; }
  const std::string& name() const { return name_; }
  Node& node() { return node_; }
  bool alive() const { return alive_; }
  uint64_t incarnation() const { return incarnation_; }
  uint16_t port() const { return port_; }
  wire::Endpoint endpoint() const { return {host(), port_}; }
  uint32_t host() const;

  Executor& executor() { return executor_; }
  rpc::ObjectRuntime& runtime() { return *runtime_; }
  rpc::Transport& transport() { return *transport_; }
  rpc::InsecurePolicy& default_policy() { return default_policy_; }
  trace::Tracer& tracer() { return tracer_; }
  // "node/process" — what log lines and spans are stamped with.
  const std::string& log_identity() const { return log_identity_; }

  // Constructs a service object owned by this process; destroyed (in reverse
  // construction order) when the process dies.
  template <typename T, typename... Args>
  T* Emplace(Args&&... args) {
    auto owned = std::make_shared<T>(std::forward<Args>(args)...);
    T* raw = owned.get();
    owned_.push_back(std::move(owned));
    return raw;
  }

  // wait()-style local notification: `fn` runs (if this watcher process is
  // still alive) when `target` exits. Models the SSC's child tracking.
  void WatchExitOf(Process& target,
                   std::function<void(uint64_t pid, ExitReason)> fn);

  // Self-terminate (deferred to the next scheduler turn).
  void Exit();

 private:
  friend class Node;
  friend class Cluster;

  struct ExitWatcher {
    uint64_t watcher_pid;
    std::function<void(uint64_t, ExitReason)> fn;
  };

  // Immediate teardown; only called from a dedicated scheduler event.
  void DoKill(ExitReason reason);

  Cluster& cluster_;
  Node& node_;
  std::string name_;
  uint64_t pid_;
  uint16_t port_;
  uint64_t incarnation_;
  std::string log_identity_;  // "node/process".
  bool alive_ = true;
  bool kill_pending_ = false;

  ProcessExecutor executor_;
  trace::Tracer tracer_;
  std::unique_ptr<SimTransport> transport_;
  rpc::InsecurePolicy default_policy_;
  std::unique_ptr<rpc::ObjectRuntime> runtime_;
  std::vector<std::shared_ptr<void>> owned_;  // Destroyed back-to-front.
  std::vector<ExitWatcher> exit_watchers_;
};

// --- Node --------------------------------------------------------------------

class Node {
 public:
  Node(Cluster& cluster, NodeKind kind, std::string name, uint32_t host)
      : cluster_(cluster), kind_(kind), name_(std::move(name)), host_(host) {}

  uint32_t host() const { return host_; }
  NodeKind kind() const { return kind_; }
  const std::string& name() const { return name_; }
  bool alive() const { return alive_; }

  // Starts a process; port 0 assigns an ephemeral port. Fatal if the port is
  // already bound on this node.
  Process& Spawn(const std::string& name, uint16_t port = 0);

  // Requests termination (takes effect on the next scheduler turn).
  void Kill(uint64_t pid, ExitReason reason = ExitReason::kKilled);

  // Machine failure: every process dies (reason kNodeCrash) and the node
  // stops responding — in-flight and future messages to it are dropped, so
  // callers see timeouts, not NACKs.
  void Crash();
  // Brings a crashed node back (with no processes; a service controller or
  // test re-spawns them).
  void Restart();

  Process* FindProcess(uint64_t pid);
  Process* FindProcessByName(const std::string& name);
  // The live process listening on `port` (nullptr if none).
  Process* ProcessAtPort(uint16_t port);
  size_t process_count() const { return processes_.size(); }
  // Visits every process on this node (invariant probes; do not kill/spawn
  // from inside the visitor).
  void ForEachProcess(const std::function<void(Process&)>& fn);

  SimTransport* TransportAt(uint16_t port);

 private:
  friend class Process;
  friend class Cluster;

  Cluster& cluster_;
  NodeKind kind_;
  std::string name_;
  uint32_t host_;
  bool alive_ = true;
  uint16_t next_ephemeral_port_ = 30000;
  std::map<uint64_t, std::unique_ptr<Process>> processes_;
  std::map<uint16_t, SimTransport*> ports_;
};

// --- Cluster -----------------------------------------------------------------

class Cluster {
 public:
  explicit Cluster(NetworkOptions network_options = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  Scheduler& scheduler() { return scheduler_; }
  Network& network() { return network_; }
  Metrics& metrics() { return metrics_; }
  // Cluster-wide span buffer (shared by every process's Tracer, like
  // metrics()). Capacity 0 disables recording.
  trace::TraceBuffer& trace_buffer() { return trace_buffer_; }
  Time Now() const { return scheduler_.Now(); }

  Node& AddServer(const std::string& name);
  Node& AddSettop(uint8_t neighborhood);

  Node* FindNode(uint32_t host);
  Process* FindProcessGlobal(uint64_t pid);
  // The live process serving `endpoint` (nullptr when the node is missing,
  // crashed, or nothing listens on the port) — the liveness oracle behind the
  // chaos invariants ("does this ObjectRef still point at anyone?").
  Process* ProcessAtEndpoint(const wire::Endpoint& endpoint);
  // Visits every live process in the cluster.
  void ForEachProcess(const std::function<void(Process&)>& fn);
  size_t live_process_count() const { return process_index_.size(); }
  const std::vector<Node*>& servers() const { return servers_; }
  const std::vector<Node*>& settops() const { return settops_; }

  void RunFor(Duration d) { scheduler_.RunFor(d); }
  void RunUntil(Time t) { scheduler_.RunUntil(t); }
  void RunUntilIdle() { scheduler_.RunUntilIdle(); }

  uint64_t NextIncarnation() { return ++incarnation_counter_; }
  uint64_t NextPid() { return ++pid_counter_; }

 private:
  friend class Process;
  friend class Node;

  void RegisterProcess(Process* p);
  void UnregisterProcess(uint64_t pid);

  Scheduler scheduler_;
  Metrics metrics_;
  trace::TraceBuffer trace_buffer_;
  Network network_;
  uint8_t next_server_index_ = 1;
  std::map<uint8_t, uint16_t> next_settop_index_;
  std::map<uint32_t, std::unique_ptr<Node>> nodes_;
  std::vector<Node*> servers_;
  std::vector<Node*> settops_;
  std::unordered_map<uint64_t, Process*> process_index_;
  uint64_t incarnation_counter_ = 0;
  uint64_t pid_counter_ = 0;
};

}  // namespace itv::sim

#endif  // SRC_SIM_CLUSTER_H_
