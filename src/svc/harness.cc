#include "src/svc/harness.h"

#include <utility>

#include "src/common/logging.h"
#include "src/db/database_service.h"
#include "src/naming/types.h"
#include "src/ras/audit_client.h"
#include "src/svc/settop_manager.h"

namespace itv::svc {

void ServiceContext::NotifyReady(
    const std::vector<wire::ObjectRef>& objects) const {
  SscProxy ssc(process.runtime(), SscRefAt(process.host()));
  ssc.NotifyReady(process.pid(), objects).OnReady([](const Result<void>&) {});
}

ServiceLifecycle* ServiceContext::StartLifecycle(
    const std::string& path, const wire::ObjectRef& ref,
    ServiceLifecycle::Hooks hooks, ServiceLifecycle::Options options) const {
  options.retry_interval = harness.options().binder.retry_interval;
  auto* lifecycle = process.Emplace<ServiceLifecycle>(
      process, harness.ClientFor(process), path, ref, options, metrics);
  // Register before Start so the single-primary invariant never misses a
  // claimant that wins its first bind attempt.
  harness.RegisterLifecycle(process.pid(), lifecycle);
  lifecycle->Start(std::move(hooks));
  return lifecycle;
}

// exec(2) analog: looks the service type up in the harness registry, spawns
// a process (well-known port if the type has one), runs the factory.
class ClusterHarness::NodeLauncher : public ServiceLauncher {
 public:
  NodeLauncher(ClusterHarness& harness, sim::Node& node)
      : harness_(harness), node_(node) {}

  Result<uint64_t> Launch(const std::string& name) override {
    auto factory = harness_.factories_.find(name);
    if (factory == harness_.factories_.end()) {
      return NotFoundError("unknown service type: " + name);
    }
    uint16_t port = 0;
    auto well_known = harness_.well_known_ports_.find(name);
    if (well_known != harness_.well_known_ports_.end()) {
      port = well_known->second;
    }
    sim::Process& process = node_.Spawn(name, port);
    Status s = harness_.RunFactory(name, process);
    if (!s.ok()) {
      return s;
    }
    return process.pid();
  }

 private:
  ClusterHarness& harness_;
  sim::Node& node_;
};

ClusterHarness::ClusterHarness(HarnessOptions options)
    : options_(std::move(options)), cluster_(options_.network) {
  ITV_CHECK(options_.server_count >= 1);
  for (size_t i = 0; i < options_.server_count; ++i) {
    sim::Node& node = cluster_.AddServer("server" + std::to_string(i + 1));
    servers_.push_back(&node);
    disks_[node.host()] = std::make_unique<db::MemoryDisk>();
    launchers_[node.host()] = std::make_unique<NodeLauncher>(*this, node);
  }
  for (size_t home = 0; home < servers_.size(); ++home) {
    std::vector<uint32_t> ring;
    for (size_t k = 0; k < servers_.size(); ++k) {
      ring.push_back(HostOf((home + k) % servers_.size()));
    }
    ns_rings_.push_back(
        std::make_shared<const std::vector<uint32_t>>(std::move(ring)));
  }
  well_known_ports_["nsd"] = naming::kNameServicePort;
  well_known_ports_["rasd"] = ras::kRasPort;
  well_known_ports_["dbd"] = db::kDatabasePort;
  RegisterBaseServiceTypes();

  // Cluster roster for the CSC.
  std::vector<uint32_t> roster;
  for (sim::Node* node : servers_) {
    roster.push_back(node->host());
  }
  db::Store installer(DiskFor(HostOf(0)));
  Status s = installer.Put(std::string(kClusterTable),
                           std::string(kClusterServersKey),
                           EncodeHostList(roster));
  ITV_CHECK(s.ok());
}

ClusterHarness::~ClusterHarness() = default;

db::MemoryDisk& ClusterHarness::DiskFor(uint32_t host) {
  auto it = disks_.find(host);
  ITV_CHECK(it != disks_.end()) << "no disk for host " << host;
  return *it->second;
}

void ClusterHarness::RegisterServiceType(const std::string& name,
                                         ServiceFactory factory) {
  factories_[name] = std::move(factory);
}

void ClusterHarness::AssignService(const std::string& service, uint32_t host) {
  ITV_CHECK(!booted_) << "post-boot placement changes go through the CSC";
  db::Store installer(DiskFor(HostOf(0)));
  std::vector<uint32_t> hosts;
  Result<std::string> existing =
      installer.Get(std::string(kServiceConfigTable), service);
  if (existing.ok()) {
    hosts = DecodeHostList(*existing);
  }
  hosts.push_back(host);
  Status s = installer.Put(std::string(kServiceConfigTable), service,
                           EncodeHostList(hosts));
  ITV_CHECK(s.ok());
}

uint32_t ClusterHarness::ServerHostForNeighborhood(uint8_t neighborhood) const {
  ITV_CHECK(neighborhood >= 1);
  size_t index = (neighborhood - 1) % servers_.size();
  return servers_[index]->host();
}

uint32_t ClusterHarness::NsHostFor(uint32_t node_host) const {
  if (IsSettopHost(node_host)) {
    return ServerHostForNeighborhood(NeighborhoodOfHost(node_host));
  }
  for (sim::Node* node : servers_) {
    if (node->host() == node_host) {
      return node_host;  // Servers use their local replica.
    }
  }
  return servers_[0]->host();
}

sim::Node& ClusterHarness::AddSettop(uint8_t neighborhood) {
  ITV_CHECK(neighborhood >= 1 && neighborhood <= options_.neighborhood_count);
  return cluster_.AddSettop(neighborhood);
}

sim::Process& ClusterHarness::SpawnProcessOn(size_t server_index,
                                             const std::string& name) {
  return servers_[server_index]->Spawn(name);
}

naming::NameClient ClusterHarness::ClientFor(sim::Process& process) const {
  if (IsSettopHost(process.host())) {
    return naming::NameClient(process.runtime(), NsReplicasFor(process.host()));
  }
  return naming::NameClient(process.runtime(), NsHostFor(process.host()));
}

std::shared_ptr<const std::vector<uint32_t>> ClusterHarness::NsReplicasFor(
    uint32_t node_host) const {
  uint32_t home = NsHostFor(node_host);
  for (size_t i = 0; i < servers_.size(); ++i) {
    if (HostOf(i) == home) {
      return ns_rings_[i];
    }
  }
  ITV_LOG(Fatal) << "no name-service replica on host " << home;
  return nullptr;
}

std::vector<wire::Endpoint> ClusterHarness::NsPeers() const {
  std::vector<wire::Endpoint> peers;
  for (sim::Node* node : servers_) {
    peers.push_back({node->host(), naming::kNameServicePort});
  }
  return peers;
}

Status ClusterHarness::RunFactory(const std::string& name,
                                  sim::Process& process) {
  auto it = factories_.find(name);
  if (it == factories_.end()) {
    return NotFoundError("unknown service type: " + name);
  }
  ServiceContext ctx{*this, process, NsHostFor(process.host()),
                     &cluster_.metrics()};
  it->second(ctx);
  return OkStatus();
}

SscService* ClusterHarness::SscOn(size_t server_index) {
  auto it = sscs_.find(HostOf(server_index));
  return it == sscs_.end() ? nullptr : it->second;
}

std::vector<naming::NameServer*> ClusterHarness::LiveNameServers() {
  std::vector<naming::NameServer*> out;
  for (auto& [host, probe] : ns_probes_) {
    sim::Process* process = cluster_.FindProcessGlobal(probe.first);
    if (process != nullptr && process->alive()) {
      out.push_back(probe.second);
    }
  }
  return out;
}

std::vector<ras::RasService*> ClusterHarness::LiveRasServices() {
  std::vector<ras::RasService*> out;
  for (auto& [host, probe] : ras_probes_) {
    sim::Process* process = cluster_.FindProcessGlobal(probe.first);
    if (process != nullptr && process->alive()) {
      out.push_back(probe.second);
    }
  }
  return out;
}

uint32_t ClusterHarness::NsMasterHost() {
  for (auto& [host, probe] : ns_probes_) {
    sim::Process* process = cluster_.FindProcessGlobal(probe.first);
    if (process != nullptr && process->alive() && probe.second->is_master()) {
      return host;
    }
  }
  return 0;
}

void ClusterHarness::RegisterLifecycle(uint64_t pid,
                                       ServiceLifecycle* lifecycle) {
  lifecycles_[lifecycle->path()][pid] = lifecycle;
}

std::map<std::string, std::vector<ServiceLifecycle*>>
ClusterHarness::LiveLifecycles() {
  std::map<std::string, std::vector<ServiceLifecycle*>> out;
  for (auto& [path, by_pid] : lifecycles_) {
    for (auto it = by_pid.begin(); it != by_pid.end();) {
      sim::Process* process = cluster_.FindProcessGlobal(it->first);
      if (process == nullptr || !process->alive()) {
        it = by_pid.erase(it);  // pids are never reused; safe to prune.
        continue;
      }
      out[path].push_back(it->second);
      ++it;
    }
  }
  return out;
}

void ClusterHarness::StartSsc(size_t server_index) {
  sim::Node& node = *servers_[server_index];
  sim::Process& ssc_proc = node.Spawn("ssc", kSscPort);
  auto* ssc = ssc_proc.Emplace<SscService>(
      ssc_proc, *launchers_[node.host()], options_.ssc);
  ssc_proc.runtime().ExportAt(ssc, 1);
  sscs_[node.host()] = ssc;

  // Paper Section 6.3 step 2: the SSC starts the basic services.
  ITV_CHECK(ssc->Start("nsd").ok());
  ITV_CHECK(ssc->Start("rasd").ok());
  if (server_index == 0) {
    ITV_CHECK(ssc->Start("dbd").ok());
  }
  if (options_.start_csc && server_index < 2) {
    ITV_CHECK(ssc->Start("cscd").ok());
  }
}

void ClusterHarness::Boot() {
  ITV_CHECK(!booted_);
  booted_ = true;
  for (size_t i = 0; i < servers_.size(); ++i) {
    StartSsc(i);
  }
  cluster_.RunFor(options_.boot_run);
}

void ClusterHarness::RegisterBaseServiceTypes() {
  // --- Name service replica ---------------------------------------------------
  RegisterServiceType("nsd", [this](const ServiceContext& ctx) {
    naming::NameServerOptions opts = options_.ns;
    opts.peers = NsPeers();
    opts.replica_id = 0;
    for (size_t i = 0; i < servers_.size(); ++i) {
      if (servers_[i]->host() == ctx.process.host()) {
        opts.replica_id = static_cast<uint32_t>(i + 1);
      }
    }
    ITV_CHECK(opts.replica_id != 0) << "nsd must run on a server node";
    if (opts.initial_contexts.empty() && opts.initial_repl_contexts.empty()) {
      opts.initial_contexts = {{"svc"}, {"apps"}};
      opts.initial_repl_contexts = {
          {{"svc", "ras"}, naming::BuiltinSelector::kByCallerHost},
          // RDS and the Connection Manager are replicated per neighborhood
          // (paper Section 8.1); MDS per server.
          {{"svc", "rds"}, naming::BuiltinSelector::kNeighborhood},
          {{"svc", "mds"}, naming::BuiltinSelector::kByCallerHost},
          {{"svc", "cmgr"}, naming::BuiltinSelector::kNeighborhood},
      };
    }
    auto* ns = ctx.process.Emplace<naming::NameServer>(
        ctx.process.runtime(), ctx.process.executor(), opts, ctx.metrics);
    auto* audit = ctx.process.Emplace<ras::NamingAuditAdapter>(
        ctx.process.runtime(), ras::RasRefAt(ctx.process.host()));
    ns->SetAudit(audit);
    ns->Start();
    ns_probes_[ctx.process.host()] = {ctx.process.pid(), ns};
    // The NS elects its master through its own replication protocol, not a
    // binding; mirror that election into the role machine so NS mastership
    // shows up in the same metrics, traces, and single-primary invariant as
    // every other service.
    ServiceLifecycle::Hooks hooks;
    hooks.external_role = [ns] { return ns->is_master(); };
    ctx.StartLifecycle("svc/ns-master", naming::BootstrapRootRef(
                                            ctx.process.host(),
                                            naming::kNameServicePort),
                       std::move(hooks));
  });

  // --- Resource Audit Service -------------------------------------------------
  RegisterServiceType("rasd", [this](const ServiceContext& ctx) {
    auto* rasd = ctx.process.Emplace<ras::RasService>(
        ctx.process.runtime(), ctx.process.executor(), ctx.MakeNameClient(),
        options_.ras, ctx.metrics);
    rasd->Start();
    ras_probes_[ctx.process.host()] = {ctx.process.pid(), rasd};
    // Publish under svc/ras/<server-index> for the per-server selector.
    for (size_t i = 0; i < servers_.size(); ++i) {
      if (servers_[i]->host() == ctx.process.host()) {
        ctx.StartLifecycle("svc/ras/" + std::to_string(i + 1), rasd->ref());
      }
    }
  });

  // --- Database ----------------------------------------------------------------
  RegisterServiceType("dbd", [this](const ServiceContext& ctx) {
    auto* store = ctx.process.Emplace<db::Store>(DiskFor(ctx.process.host()));
    auto* skeleton = ctx.process.Emplace<db::DatabaseSkeleton>(*store);
    wire::ObjectRef ref = ctx.process.runtime().ExportAt(skeleton, 1);
    ctx.StartLifecycle("svc/db", ref);
  });

  // --- Cluster Service Controller ------------------------------------------------
  RegisterServiceType("cscd", [this](const ServiceContext& ctx) {
    auto* csc = ctx.process.Emplace<CscService>(
        ctx.process.runtime(), ctx.process.executor(), ctx.MakeNameClient(),
        options_.csc, ctx.metrics);
    csc->Start();
    ServiceLifecycle::Hooks hooks;
    hooks.on_promoted = [csc] { csc->OnPromoted(); };
    hooks.on_demoted = [csc] { csc->OnDemotedRole(); };
    csc->AttachLifecycle(
        ctx.StartLifecycle(std::string(kCscName), csc->ref(), std::move(hooks)));
  });

  // --- Settop Manager (primary/backup, CSC-assigned) ----------------------------
  RegisterServiceType("settopmgr", [this](const ServiceContext& ctx) {
    auto* mgr =
        ctx.process.Emplace<SettopManagerService>(ctx.process.executor());
    wire::ObjectRef ref = ctx.process.runtime().Export(mgr);
    ctx.StartLifecycle(std::string(kSettopManagerName), ref);
  });

  // Default placement: settop manager replicas on the first two servers.
  AssignService("settopmgr", HostOf(0));
  if (servers_.size() > 1) {
    AssignService("settopmgr", HostOf(1));
  }
}

}  // namespace itv::svc
