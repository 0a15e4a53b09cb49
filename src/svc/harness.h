// ClusterHarness: boots a complete simulated ITV cluster — the programmatic
// equivalent of the paper's start-up sequence (Section 6.3):
//
//   1. Each server's SSC is started (by "init" — the harness).
//   2. The SSC starts the basic services: name service replica, RAS,
//      database (first server), CSC replicas (first two servers).
//   3. Once a majority of name service replicas are active they elect a
//      master; base services bind their names.
//   4. The primary CSC reads the service configuration from the database and
//      directs each SSC to start the assigned services.
//
// Application services (MMS, MDS, RDS, Connection Manager, ...) plug in as
// *service types*: a named factory that populates a freshly spawned process,
// the simulator's analog of a service binary. Tests and benches register
// types, assign them to hosts, Boot(), and drive virtual time.

#ifndef SRC_SVC_HARNESS_H_
#define SRC_SVC_HARNESS_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/db/disk.h"
#include "src/db/store.h"
#include "src/naming/name_client.h"
#include "src/naming/name_server.h"
#include "src/ras/ras_service.h"
#include "src/sim/cluster.h"
#include "src/svc/csc.h"
#include "src/svc/lifecycle.h"
#include "src/svc/ssc.h"

namespace itv::svc {

class ClusterHarness;

// Handed to a service factory when its "binary" starts.
struct ServiceContext {
  ClusterHarness& harness;
  sim::Process& process;
  uint32_t ns_host;  // This server's name service replica.
  Metrics* metrics;

  naming::NameClient MakeNameClient() const {
    return naming::NameClient(process.runtime(), ns_host);
  }
  // Registers exported objects with the local SSC (required before binding
  // them into the name space, or auditing will consider them dead). Only for
  // objects no lifecycle binds: StartLifecycle announces its own `ref`.
  void NotifyReady(const std::vector<wire::ObjectRef>& objects) const;
  // Spawns a ServiceLifecycle in this process, starts it with `hooks`, and
  // registers it with the cluster-wide role registry (chaos invariants check
  // per-service single-primary through it). `options.retry_interval` is
  // overwritten with HarnessOptions::binder.retry_interval, so every service
  // elects on the deployment's retry cadence.
  ServiceLifecycle* StartLifecycle(
      const std::string& path, const wire::ObjectRef& ref,
      ServiceLifecycle::Hooks hooks = {},
      ServiceLifecycle::Options options = ServiceLifecycle::Options()) const;
};

using ServiceFactory = std::function<void(const ServiceContext&)>;

struct HarnessOptions {
  size_t server_count = 2;
  uint8_t neighborhood_count = 2;

  naming::NameServerOptions ns;  // peers/replica_id filled per server.
  ras::RasService::Options ras;
  CscService::Options csc;
  SscService::Options ssc;
  // Bind retry cadence of every lifecycle StartLifecycle starts. Faster than
  // the paper's 10 s so clusters boot quickly; fail-over experiments override
  // it to the paper's value explicitly.
  struct {
    Duration retry_interval = Duration::Seconds(2);
  } binder;

  sim::NetworkOptions network;
  Duration boot_run = Duration::Seconds(8);
  bool start_csc = true;
};

class ClusterHarness {
 public:
  explicit ClusterHarness(HarnessOptions options = {});
  ~ClusterHarness();

  ClusterHarness(const ClusterHarness&) = delete;
  ClusterHarness& operator=(const ClusterHarness&) = delete;

  sim::Cluster& cluster() { return cluster_; }
  Metrics& metrics() { return cluster_.metrics(); }
  const HarnessOptions& options() const { return options_; }

  // --- Configuration (before Boot) -------------------------------------------
  void RegisterServiceType(const std::string& name, ServiceFactory factory);
  // Service types that must listen on a fixed port (bootstrap references).
  void SetWellKnownPort(const std::string& name, uint16_t port) {
    well_known_ports_[name] = port;
  }
  // Desired placement, persisted in the database for the CSC.
  void AssignService(const std::string& service, uint32_t host);

  // --- Boot -------------------------------------------------------------------
  void Boot();
  bool booted() const { return booted_; }

  // --- Topology ---------------------------------------------------------------
  size_t server_count() const { return servers_.size(); }
  sim::Node& server(size_t index) { return *servers_[index]; }
  uint32_t HostOf(size_t index) const { return servers_[index]->host(); }
  // The server responsible for a (1-based) neighborhood.
  uint32_t ServerHostForNeighborhood(uint8_t neighborhood) const;
  sim::Node& AddSettop(uint8_t neighborhood);

  // --- Clients ----------------------------------------------------------------
  sim::Process& SpawnProcessOn(size_t server_index, const std::string& name);
  // NameClient bootstrapped against the right NS replica for the process's
  // node: its own server's, which dies with it, or for a settop the list
  // NsReplicasFor gives, the one a settop's boot broadcast carries.
  naming::NameClient ClientFor(sim::Process& process) const;
  // The name-service replicas a node reads from: its home replica (NsHostFor)
  // first, then every other server's in ring order. One list per home
  // replica, shared by every client built from it.
  std::shared_ptr<const std::vector<uint32_t>> NsReplicasFor(
      uint32_t node_host) const;

  // --- Internals shared with the launcher & tests ------------------------------
  db::MemoryDisk& DiskFor(uint32_t host);
  Status RunFactory(const std::string& name, sim::Process& process);
  uint32_t NsHostFor(uint32_t node_host) const;
  SscService* SscOn(size_t server_index);
  // Re-runs the init step after an SSC crash or a server restart.
  void StartSsc(size_t server_index);

  // --- Chaos probes -----------------------------------------------------------
  // The nsd/rasd factories record the servants they create so invariant
  // checkers can inspect live replicas directly (NS master uniqueness, RAS
  // reclamation). Entries whose process has since died are filtered out; a
  // restarted daemon re-registers and replaces its host's entry.
  std::vector<naming::NameServer*> LiveNameServers();
  std::vector<ras::RasService*> LiveRasServices();
  // Host of a live NS replica currently claiming mastership, or 0 if none.
  uint32_t NsMasterHost();

  // --- Service-role registry ---------------------------------------------------
  // Every lifecycle started through ServiceContext::StartLifecycle registers
  // here; entries are pruned when their process dies. LiveLifecycles groups
  // the survivors by service path, which is exactly the shape the generic
  // single-primary invariant needs (all live claimants of one name).
  void RegisterLifecycle(uint64_t pid, ServiceLifecycle* lifecycle);
  std::map<std::string, std::vector<ServiceLifecycle*>> LiveLifecycles();

 private:
  class NodeLauncher;

  void RegisterBaseServiceTypes();
  std::vector<wire::Endpoint> NsPeers() const;

  HarnessOptions options_;
  sim::Cluster cluster_;
  std::vector<sim::Node*> servers_;
  // NsReplicasFor's lists, by the home server's index.
  std::vector<std::shared_ptr<const std::vector<uint32_t>>> ns_rings_;
  std::map<std::string, ServiceFactory> factories_;
  std::map<std::string, uint16_t> well_known_ports_;
  std::map<uint32_t, std::unique_ptr<db::MemoryDisk>> disks_;
  std::map<uint32_t, std::unique_ptr<NodeLauncher>> launchers_;
  std::map<uint32_t, SscService*> sscs_;
  // host -> (pid, servant); pid gates liveness via the cluster process index.
  std::map<uint32_t, std::pair<uint64_t, naming::NameServer*>> ns_probes_;
  std::map<uint32_t, std::pair<uint64_t, ras::RasService*>> ras_probes_;
  // path -> pid -> lifecycle; liveness gated by the cluster process index.
  std::map<std::string, std::map<uint64_t, ServiceLifecycle*>> lifecycles_;
  bool booted_ = false;
};

}  // namespace itv::svc

#endif  // SRC_SVC_HARNESS_H_
