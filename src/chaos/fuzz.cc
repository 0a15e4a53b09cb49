#include "src/chaos/fuzz.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/common/trace.h"
#include "src/load/admission.h"
#include "src/load/load_board.h"
#include "src/media/cmgr.h"
#include "src/media/factories.h"
#include "src/media/mds.h"
#include "src/media/mms.h"
#include "src/naming/name_client.h"
#include "src/naming/name_server.h"
#include "src/ras/ras_service.h"
#include "src/ras/types.h"
#include "src/settop/vod_app.h"
#include "src/svc/harness.h"
#include "src/wire/shard_map.h"

namespace itv::chaos {
namespace {

// Network burst sampling gets its own stream so dropping a fault from the
// schedule does not shift which packets a surviving burst affects more than
// necessary (golden-ratio mix, same idea as splitmix64).
uint64_t NetSeed(uint64_t seed) { return seed ^ 0x9e3779b97f4a7c15ULL; }

sim::ChaosSpec BuildSpec(const FuzzOptions& options,
                         svc::ClusterHarness& harness,
                         const std::vector<uint32_t>& settop_hosts) {
  sim::ChaosSpec spec;
  spec.horizon = options.horizon;
  spec.fault_count = options.fault_count;
  for (size_t i = 0; i < harness.server_count(); ++i) {
    spec.server_hosts.push_back(harness.HostOf(i));
  }
  spec.settop_hosts = settop_hosts;
  // Everything the deployment runs, including infrastructure: the SSC
  // restarts what it manages, the CSC replaces what it placed.
  spec.kill_names = {"mmsd", "mdsd", "nsd", "rasd", "settopmgr", "trunkd"};
  if (options.skewed_load) {
    // The skewed sweep leans on the load board (sibling retry), so the board
    // itself must be fair game: it is soft state, and while it is down a
    // shed open keeps the home shard's error. Kept out of the default
    // list so pinned-corpus schedules stay byte-for-byte stable.
    spec.kill_names.push_back("loadboardd");
  }
  for (uint8_t nb = 1; nb <= options.neighborhood_count; ++nb) {
    spec.kill_names.push_back("rdsd-" + std::to_string(nb));
    spec.kill_names.push_back("cmgrd-" + std::to_string(nb));
  }
  spec.min_outage = options.min_outage;
  spec.max_outage = options.max_outage;
  spec.allow_node_crash = options.allow_node_crash;
  spec.allow_partition = options.allow_partition;
  spec.allow_isolate = options.allow_partition;
  spec.allow_drop = options.allow_bursts;
  spec.allow_delay = options.allow_bursts;
  spec.allow_reorder = options.allow_bursts;
  return spec;
}

std::string DescribeRef(const wire::ObjectRef& ref) {
  return StrFormat("host=%u port=%u inc=%llu obj=%llu", ref.endpoint.host,
                   ref.endpoint.port,
                   static_cast<unsigned long long>(ref.incarnation),
                   static_cast<unsigned long long>(ref.object_id));
}

// A bound or cached reference is coherent if its target process is alive in
// the same incarnation. Incarnation 0 marks well-known stateless refs (RAS,
// SSC bootstrap) that survive restarts by construction.
bool RefPointsAtLiveProcess(sim::Cluster& cluster, const wire::ObjectRef& ref) {
  if (ref.incarnation == 0) {
    return true;
  }
  if (wire::IsShardMapRef(ref)) {
    return true;  // Routing policy, not a servant: null endpoint, salt != 0.
  }
  sim::Process* process = cluster.ProcessAtEndpoint(ref.endpoint);
  return process != nullptr && process->incarnation() == ref.incarnation;
}

// Settop host of every session each shard primary of `map` holds (one entry
// per session), by 0-based shard. Probed over RPC like a fresh client, so
// the checks see what a settop sees.
using ShardSessionHosts = std::vector<std::vector<uint32_t>>;
Result<ShardSessionHosts> ProbeSessionHosts(svc::ClusterHarness& harness,
                                            sim::Cluster& cluster,
                                            const wire::ShardMap& map) {
  sim::Process& probe = harness.SpawnProcessOn(0, "session-probe");
  naming::NameClient names = harness.ClientFor(probe);
  std::vector<Future<wire::ObjectRef>> refs;
  for (uint32_t shard = 0; shard < map.shard_count; ++shard) {
    refs.push_back(names.Resolve(wire::ShardPath(media::kMmsName, shard, map)));
  }
  cluster.RunFor(Duration::Seconds(5));
  std::vector<Future<std::vector<uint32_t>>> lists;
  for (uint32_t shard = 0; shard < map.shard_count; ++shard) {
    if (!refs[shard].is_ready() || !refs[shard].result().ok()) {
      return UnavailableError(
          StrFormat("shard %u primary unresolvable", shard + 1));
    }
    media::MmsProxy mms(probe.runtime(), refs[shard].result().value());
    lists.push_back(mms.ListSessionHosts());
  }
  cluster.RunFor(Duration::Seconds(5));
  ShardSessionHosts out;
  for (uint32_t shard = 0; shard < map.shard_count; ++shard) {
    if (!lists[shard].is_ready() || !lists[shard].result().ok()) {
      return UnavailableError(
          StrFormat("shard %u holds no reachable session table", shard + 1));
    }
    out.push_back(lists[shard].result().value());
  }
  return out;
}

// Reshard convergence (ROADMAP "Shard rebalancing"): after the storm the
// successor map must be the published one, every successor shard primary
// must resolve from scratch (`shards` was probed under `want`), and the
// shard session tables must respect the successor map's ownership — a shard
// holding a settop that hashes elsewhere is a session the source never
// drained (or a double adoption), and a viewer settop held by no shard is a
// session lost in the cutover.
Status CheckReshardConverged(svc::ClusterHarness& harness,
                             sim::Cluster& cluster, const wire::ShardMap& want,
                             const std::vector<uint32_t>& viewer_hosts,
                             const Result<ShardSessionHosts>& shards) {
  sim::Process& probe = harness.SpawnProcessOn(0, "reshard-probe");
  auto map_ref = harness.ClientFor(probe).Resolve(
      wire::ShardMapPath(media::kMmsName));
  cluster.RunFor(Duration::Seconds(5));
  if (!map_ref.is_ready() || !map_ref.result().ok()) {
    return UnavailableError("published shard map unresolvable after reshard");
  }
  if (!wire::IsShardMapRef(map_ref.result().value())) {
    return InternalError("svc/mms/.shards is not a shard-map binding");
  }
  wire::ShardMap got = wire::DecodeShardMapRef(map_ref.result().value());
  if (got != want) {
    return InternalError(StrFormat(
        "published map is v%u/%u shards, want v%u/%u", got.version,
        got.shard_count, want.version, want.shard_count));
  }
  if (!shards.ok()) {
    return UnavailableError(shards.status().message() + " after reshard");
  }
  std::set<uint32_t> held;  // Settops with at least one session somewhere.
  for (uint32_t shard = 0; shard < shards->size(); ++shard) {
    for (uint32_t host : (*shards)[shard]) {
      uint32_t owner = wire::ShardOf(host, want);
      if (owner != shard) {
        return InternalError(StrFormat(
            "shard %u still holds settop %u, owned by shard %u under map "
            "v%u (source never drained, or double adoption)",
            shard + 1, host, owner + 1, want.version));
      }
      held.insert(host);
    }
  }
  for (uint32_t host : viewer_hosts) {
    if (held.find(host) == held.end()) {
      return InternalError(StrFormat(
          "viewer settop %u has no session on any shard "
          "(session lost during cutover)", host));
    }
  }
  return OkStatus();
}

// One stream per viewer: no viewer settop is held by two MMS sessions, on
// one shard or across shards.
Status CheckOneSessionPerViewer(const Result<ShardSessionHosts>& shards,
                                const std::vector<uint32_t>& viewer_hosts) {
  if (!shards.ok()) {
    return shards.status();
  }
  std::map<uint32_t, size_t> sessions;
  for (const std::vector<uint32_t>& hosts : *shards) {
    for (uint32_t host : hosts) {
      ++sessions[host];
    }
  }
  for (uint32_t host : viewer_hosts) {
    if (sessions[host] > 1) {
      return InternalError(StrFormat("viewer settop %u holds %zu MMS sessions",
                                     host, sessions[host]));
    }
  }
  return OkStatus();
}

// What the media services hold once every viewer has stopped, read over
// RPC from every MMS shard primary, MDS replica, neighborhood CMgr and trunk.
// Each line names one thing still held: an MDS stream by settop, title,
// played flag, replica and stream id.
Result<std::vector<std::string>> ProbeMediaLeftovers(
    svc::ClusterHarness& harness, sim::Cluster& cluster,
    const wire::ShardMap& mms_map, uint8_t neighborhoods) {
  Result<ShardSessionHosts> shards =
      ProbeSessionHosts(harness, cluster, mms_map);
  if (!shards.ok()) {
    return shards.status();
  }
  sim::Process& probe = harness.SpawnProcessOn(0, "teardown-probe");
  naming::NameClient names = harness.ClientFor(probe);
  std::vector<std::string> mds_names;
  std::vector<Future<wire::ObjectRef>> mds_refs;
  std::vector<std::string> trunk_names;
  std::vector<Future<wire::ObjectRef>> trunk_refs;
  for (size_t i = 0; i < harness.server_count(); ++i) {
    mds_names.push_back(media::MdsName(i));
    mds_refs.push_back(names.Resolve(mds_names.back()));
    trunk_names.push_back(media::TrunkName(harness.HostOf(i)));
    trunk_refs.push_back(names.Resolve(trunk_names.back()));
  }
  std::vector<std::string> cmgr_names;
  std::vector<Future<wire::ObjectRef>> cmgr_refs;
  for (uint8_t nb = 1; nb <= neighborhoods; ++nb) {
    cmgr_names.push_back(media::CmgrName(nb));
    cmgr_refs.push_back(names.Resolve(cmgr_names.back()));
  }
  cluster.RunFor(Duration::Seconds(5));
  auto resolved = [](const std::vector<std::string>& paths,
                     const std::vector<Future<wire::ObjectRef>>& refs)
      -> Result<std::vector<wire::ObjectRef>> {
    std::vector<wire::ObjectRef> out;
    for (size_t i = 0; i < refs.size(); ++i) {
      if (!refs[i].is_ready() || !refs[i].result().ok()) {
        return UnavailableError(paths[i] + " unresolvable");
      }
      out.push_back(refs[i].result().value());
    }
    return out;
  };
  auto mds = resolved(mds_names, mds_refs);
  auto trunks = resolved(trunk_names, trunk_refs);
  auto cmgrs = resolved(cmgr_names, cmgr_refs);
  for (const Status& s : {mds.status(), trunks.status(), cmgrs.status()}) {
    if (!s.ok()) {
      return s;
    }
  }
  std::vector<Future<media::MdsSync>> syncs;
  for (const wire::ObjectRef& ref : *mds) {
    syncs.push_back(media::MdsProxy(probe.runtime(), ref).Sync());
  }
  std::vector<Future<media::TrunkUsage>> usages;
  for (const wire::ObjectRef& ref : *trunks) {
    usages.push_back(media::TrunkProxy(probe.runtime(), ref).Usage());
  }
  std::vector<Future<std::vector<media::ConnectionGrant>>> grants;
  for (const wire::ObjectRef& ref : *cmgrs) {
    grants.push_back(media::CmgrProxy(probe.runtime(), ref).ListConnections());
  }
  cluster.RunFor(Duration::Seconds(5));

  std::vector<std::string> left;
  for (uint32_t shard = 0; shard < shards->size(); ++shard) {
    for (uint32_t host : (*shards)[shard]) {
      left.push_back(StrFormat("MMS shard %u session of settop %u", shard + 1,
                               host));
    }
  }
  for (size_t i = 0; i < syncs.size(); ++i) {
    if (!syncs[i].is_ready() || !syncs[i].result().ok()) {
      return UnavailableError(mds_names[i] + " did not answer Sync");
    }
    for (const media::SessionInfo& info : syncs[i].result()->sessions) {
      left.push_back(StrFormat(
          "MDS stream of settop %u '%s' %s on %s stream %llu",
          info.settop_host, info.title.c_str(),
          info.played ? "played" : "unplayed", mds_names[i].c_str(),
          static_cast<unsigned long long>(info.stream_id)));
    }
  }
  for (size_t i = 0; i < grants.size(); ++i) {
    if (!grants[i].is_ready() || !grants[i].result().ok()) {
      return UnavailableError(cmgr_names[i] + " did not list its connections");
    }
    for (const media::ConnectionGrant& grant : grants[i].result().value()) {
      left.push_back(StrFormat(
          "%s connection %llu of settop %u", cmgr_names[i].c_str(),
          static_cast<unsigned long long>(grant.connection_id),
          grant.settop_host));
    }
  }
  for (size_t i = 0; i < usages.size(); ++i) {
    if (!usages[i].is_ready() || !usages[i].result().ok()) {
      return UnavailableError(trunk_names[i] + " did not report its usage");
    }
    if (usages[i].result()->reserved_bps != 0) {
      left.push_back(StrFormat(
          "%s reserves %lld bps", trunk_names[i].c_str(),
          static_cast<long long>(usages[i].result()->reserved_bps)));
    }
  }
  return left;
}

FuzzResult Run(uint64_t seed, const sim::ChaosPlan* replay,
               const FuzzOptions& options) {
  FuzzResult result;
  result.seed = seed;

  // --- Deployment: paper fail-over timings (Section 9.7) ---------------------
  svc::HarnessOptions hopts;
  hopts.server_count = options.server_count;
  hopts.neighborhood_count = options.neighborhood_count;
  hopts.ns.audit_interval = Duration::Seconds(10);
  hopts.ras.peer_poll_interval = Duration::Seconds(5);
  hopts.ras.peer_failures_to_dead = 1;
  hopts.ras.rpc_timeout = Duration::Seconds(1);
  svc::ClusterHarness harness(hopts);

  media::MediaDeployment deploy;
  deploy.movies = media::SyntheticCatalog(options.movie_count,
                                          options.server_count, /*replicas=*/2);
  deploy.rds_items = {{"vod", 1'000'000}};
  // Beyond the shard layout the fuzzer runs the media configuration the
  // tests and benches run: an orphan of a fault-window open (a lost ticket
  // reply, a timed-out open sent again) is closed by the MMS's
  // one-stream-per-sink rule, not by a chaos-only setting.
  deploy.mms_shards = options.mms_shards;
  if (options.mms_shards > 1) {
    deploy.mms_replicas = options.server_count;
  }
  media::RegisterMediaServices(harness, deploy);
  harness.Boot();

  sim::Cluster& cluster = harness.cluster();
  cluster.RunFor(options.settle);

  // --- Viewers ----------------------------------------------------------------
  // A viewer is a settop program: VodApp handles stream fail-over itself
  // (Section 3.5.2), and when even that gives up — the open path can fail for
  // good under sustained packet loss — the "user" presses play again a beat
  // later. `last_error` keeps the most recent terminal status for reports.
  struct Viewer {
    settop::VodApp* vod = nullptr;
    sim::Process* process = nullptr;
    std::string movie;
    Status last_error;
    uint32_t restarts = 0;
  };
  auto viewers = std::make_shared<std::vector<Viewer>>();
  std::vector<uint32_t> settop_hosts;
  auto play = std::make_shared<std::function<void(size_t)>>();
  // The closure holds itself weakly: a strong self-capture is a reference
  // cycle that leaks the viewers past the run.
  *play = [viewers, &harness,
           self = std::weak_ptr<std::function<void(size_t)>>(play)](size_t i) {
    auto again = self.lock();
    Viewer& viewer = (*viewers)[i];
    viewer.vod->PlayMovie(viewer.movie, [viewers, &harness, again, i](Status s) {
      Viewer& v = (*viewers)[i];
      v.last_error = s;
      if (s.ok()) {
        return;  // End of stream (movies outlast the horizon).
      }
      ++v.restarts;
      harness.metrics().Add("fuzz.viewer.replay");
      v.process->executor().ScheduleAfter(Duration::Seconds(2),
                                          [again, i] { (*again)(i); });
    });
  };
  // The map viewers boot under; skewed placement and the admission probe
  // both hash against it (a later reshard supersedes it for convergence).
  wire::ShardMap boot_map{options.mms_shards, wire::kDefaultShardSalt};
  for (size_t i = 0; i < options.viewer_count; ++i) {
    uint8_t nb = static_cast<uint8_t>(i % options.neighborhood_count) + 1;
    sim::Node* settop_node = &harness.AddSettop(nb);
    if (options.skewed_load && options.mms_shards > 1 && i % 5 != 4) {
      // 80/20 skew: four of five viewers must land on the hot shard. Host
      // addresses are assigned by the harness, so filter: keep adding
      // settops until one hashes to shard 0 (the extras sit idle — they are
      // not viewers and never enter the fault schedule).
      for (int attempt = 0;
           attempt < 32 &&
           wire::ShardOf(settop_node->host(), boot_map) != 0;
           ++attempt) {
        settop_node = &harness.AddSettop(nb);
      }
    }
    sim::Node& settop = *settop_node;
    settop_hosts.push_back(settop.host());
    sim::Process& p = settop.Spawn("viewer");
    settop::VodApp::Options vopts;
    vopts.mms_rebind.max_attempts = 50;
    vopts.mms_rebind.initial_backoff = Duration::Millis(500);
    vopts.mms_rebind.backoff_multiplier = 1.2;
    vopts.mms_rebind.backoff_jitter = 0.25;
    vopts.mms_rebind.jitter_seed = seed + i + 1;
    // Finite budget, like BindingTable's defaults give every real client.
    // Without it, an open routed under a stale shard map just before a
    // shrink cutover retries resolves of the retired shard's path for
    // minutes (the attempts are silent NOT_FOUNDs), wedging the viewer past
    // the convergence window instead of surfacing an honest error the app
    // recovers from.
    vopts.mms_rebind.deadline = Duration::Seconds(30);
    if (options.skewed_load) {
      // Shard-aware placement: a shed open consults the board and retries
      // against the least-loaded sibling shard instead of replaying blind.
      vopts.load_board_path = std::string(load::kLoadBoardName);
    }
    auto* vod = p.Emplace<settop::VodApp>(p.runtime(), p.executor(),
                                          harness.ClientFor(p), vopts,
                                          &harness.metrics());
    viewers->push_back(Viewer{vod, &p,
                              "movie-" + std::to_string(i % options.movie_count),
                              OkStatus(), 0});
    (*play)(i);
  }
  cluster.RunFor(options.warmup);
  for (size_t i = 0; i < viewers->size(); ++i) {
    if (!(*viewers)[i].vod->playing()) {
      // The fault-free warm-up failed: infrastructure problem, not a chaos
      // finding. Report it as its own invariant so it is never shrunk.
      result.first_violation = "warmup-playback";
      result.violations.push_back(sim::InvariantMonitor::Violation{
          cluster.Now(), "warmup-playback",
          StrFormat("viewer %zu not playing before any fault", i)});
      result.invariant_report =
          StrFormat("[%s] warmup-playback: viewer %zu not playing\n",
                    cluster.Now().ToString().c_str(), i);
      return result;
    }
  }

  // --- Live reshard (optional) ------------------------------------------------
  // The controller gets a node of its own that never enters the fault
  // schedule (its host is not in spec.server_hosts or spec.settop_hosts):
  // the storm is aimed at the services carrying out the cutover, not at the
  // operator ordering it. `mms_map` tracks the map the run should converge
  // on; the fresh-client probe and the reshard invariant both use it.
  wire::ShardMap mms_map = boot_map;
  if (options.reshard_to > 0) {
    wire::ShardMap successor = wire::NextShardMap(mms_map, options.reshard_to);
    sim::Node& ctl_node = harness.AddSettop(1);
    sim::Process& ctl = ctl_node.Spawn("reshard-ctl");
    Duration at = options.reshard_at > Duration::Seconds(0)
                      ? options.reshard_at
                      : options.horizon / 2;
    // Publish, then keep re-asserting every 10 s for the rest of the run:
    // the name service is soft state, so a "publish succeeded" ack from a
    // master that then loses a split-brain heal can be rolled back — a
    // careful operator republishes until the CAS sticks, the same posture
    // a ServiceLifecycle primary takes toward its binding. Idempotent once
    // durable (the resolve finds an incumbent >= ours and stops there).
    auto republish = std::make_shared<std::function<void()>>();
    *republish = [&harness, &ctl, successor,
                  self = std::weak_ptr<std::function<void()>>(republish)] {
      auto again = self.lock();
      naming::PublishShardMap(
          ctl.executor(), harness.ClientFor(ctl),
          std::string(media::kMmsName), successor,
          [](Result<wire::ShardMap> r) {
            if (!r.ok()) {
              ITV_LOG(Warn) << "reshard-ctl: publish failed: "
                            << r.status().ToString();
            } else {
              ITV_LOG(Info) << "reshard-ctl: map v" << r->version << " ("
                            << r->shard_count << " shards) is authoritative";
            }
          });
      ctl.executor().ScheduleAfter(Duration::Seconds(10),
                                   [again] { (*again)(); });
    };
    ctl.executor().ScheduleAfter(at, [republish] { (*republish)(); });
    mms_map = successor;
  }

  // --- Schedule ---------------------------------------------------------------
  sim::ChaosSpec spec = BuildSpec(options, harness, settop_hosts);
  result.plan =
      replay != nullptr ? *replay : sim::ChaosPlan::Generate(seed, spec);

  sim::ChaosInjector::Hooks hooks;
  hooks.ns_master_host = [&harness] { return harness.NsMasterHost(); };
  hooks.restore_node = [&harness](uint32_t host) {
    for (size_t i = 0; i < harness.server_count(); ++i) {
      if (harness.HostOf(i) == host) {
        harness.server(i).Restart();
        harness.StartSsc(i);  // init's job: bring the base services back.
        return;
      }
    }
    sim::Node* node = harness.cluster().FindNode(host);
    if (node != nullptr) {
      node->Restart();
    }
  };
  sim::ChaosInjector injector(cluster, hooks);

  // --- Continuous invariants (sampled while faults are active) ---------------
  sim::InvariantMonitor monitor;
  monitor.AddContinuous("ns-epoch-split", [&harness]() -> Status {
    // Partitions may give two masters transiently, but never in one epoch:
    // an election always moves to a fresh epoch.
    std::map<uint64_t, int> masters_by_epoch;
    for (naming::NameServer* ns : harness.LiveNameServers()) {
      if (ns->is_master()) {
        ++masters_by_epoch[ns->epoch()];
      }
    }
    for (const auto& [epoch, count] : masters_by_epoch) {
      if (count > 1) {
        return InternalError(
            StrFormat("%d NS masters share epoch %llu", count,
                      static_cast<unsigned long long>(epoch)));
      }
    }
    return OkStatus();
  });
  monitor.AddContinuous("process-accounting", [&cluster]() -> Status {
    size_t visited = 0;
    cluster.ForEachProcess([&visited](sim::Process&) { ++visited; });
    if (visited != cluster.live_process_count()) {
      return InternalError(StrFormat(
          "process index has %zu entries but nodes hold %zu live processes",
          cluster.live_process_count(), visited));
    }
    return OkStatus();
  });

  Time chaos_start = cluster.Now();
  monitor.StartContinuous(cluster.scheduler(), options.monitor_interval,
                          chaos_start + options.horizon);
  injector.Start(result.plan, NetSeed(seed));
  cluster.RunFor(options.horizon);
  injector.HealAll();

  // Crash restores are part of the schedule, not the fault window: wait for
  // every server to be back before starting the fail-over clock.
  Duration waited;
  while (waited < options.max_outage + Duration::Seconds(2)) {
    bool any_down = false;
    for (size_t i = 0; i < harness.server_count(); ++i) {
      any_down = any_down || !harness.server(i).alive();
    }
    if (!any_down) {
      break;
    }
    cluster.RunFor(Duration::Seconds(1));
    waited = waited + Duration::Seconds(1);
  }

  std::vector<uint64_t> chunk_baseline;
  for (const Viewer& viewer : *viewers) {
    chunk_baseline.push_back(viewer.vod->chunks_received());
  }
  cluster.RunFor(options.rebind_bound + options.rebind_slack);

  // Fresh client: core services must resolve from scratch after the storm.
  bool probe_ok = false;
  {
    sim::Process& probe = harness.SpawnProcessOn(0, "fuzz-probe");
    // When sharded, probe a shard primary's path — the base is a context.
    // After a reshard this is a successor-map shard, so the probe also
    // covers "a brand-new client routes by the new map".
    auto ref = harness.ClientFor(probe).Resolve(
        wire::ShardPath("svc/mms", 0, mms_map));
    cluster.RunFor(Duration::Seconds(5));
    probe_ok = ref.is_ready() && ref.result().ok();
  }
  Result<ShardSessionHosts> shard_hosts =
      ProbeSessionHosts(harness, cluster, mms_map);
  Status reshard_status = OkStatus();
  if (options.reshard_to > 0) {
    reshard_status = CheckReshardConverged(harness, cluster, mms_map,
                                           settop_hosts, shard_hosts);
  }

  // Admission audit (ROADMAP "Shard-aware admission"): snapshot every MMS
  // shard's pool ledger over RPC so the admission-sound invariant can assert
  // grants never exceeded the pool — probed here, before the quiescent
  // monitor runs, because invariant lambdas cannot advance virtual time.
  std::vector<load::AdmissionState> admission_states;
  Status admission_probe = OkStatus();
  if (options.mms_shards > 1) {
    for (uint32_t shard = 0; shard < mms_map.shard_count; ++shard) {
      sim::Process& p = harness.SpawnProcessOn(
          0, "admission-probe-" + std::to_string(shard + 1));
      auto ref = harness.ClientFor(p).Resolve(
          wire::ShardPath(media::kMmsName, shard, mms_map));
      cluster.RunFor(Duration::Seconds(3));
      if (!ref.is_ready() || !ref.result().ok()) {
        admission_probe = UnavailableError(StrFormat(
            "shard %u primary unresolvable for admission audit", shard + 1));
        break;
      }
      auto state =
          media::MmsProxy(p.runtime(), ref.result().value()).GetAdmission();
      cluster.RunFor(Duration::Seconds(2));
      if (!state.is_ready() || !state.result().ok()) {
        admission_probe = UnavailableError(
            StrFormat("shard %u admission state unreachable", shard + 1));
        break;
      }
      admission_states.push_back(state.result().value());
    }
  }

  // --- Quiescent invariants (paper bound has elapsed) -------------------------
  monitor.AddQuiescent("binding-convergence", [&]() -> Status {
    for (size_t i = 0; i < viewers->size(); ++i) {
      const Viewer& viewer = (*viewers)[i];
      if (!viewer.vod->playing()) {
        return UnavailableError(StrFormat(
            "viewer %zu not playing %.0fs after faults stopped "
            "(restarts=%u last_error=%s)",
            i, (options.rebind_bound + options.rebind_slack).seconds(),
            viewer.restarts, viewer.last_error.ToString().c_str()));
      }
      if (viewer.vod->chunks_received() <= chunk_baseline[i]) {
        return UnavailableError(StrFormat(
            "viewer %zu received no data since faults stopped", i));
      }
    }
    if (!probe_ok) {
      return UnavailableError("fresh client cannot resolve svc/mms");
    }
    return OkStatus();
  });
  monitor.AddQuiescent("teardown-clean", [&]() -> Status {
    return CheckOneSessionPerViewer(shard_hosts, settop_hosts);
  });
  if (options.reshard_to > 0) {
    monitor.AddQuiescent("reshard-convergence",
                         [reshard_status]() -> Status {
                           return reshard_status;
                         });
  }
  if (options.mms_shards > 1) {
    monitor.AddQuiescent("admission-sound", [&, admission_states,
                                            admission_probe]() -> Status {
      if (!admission_probe.ok()) {
        return admission_probe;
      }
      int64_t max_headroom = 0;
      for (size_t shard = 0; shard < admission_states.size(); ++shard) {
        const load::AdmissionState& state = admission_states[shard];
        if (state.pool_bps <= 0) {
          continue;  // Pool disabled on this shard; nothing to audit.
        }
        // Grants must never have exceeded the pool. reserved_bps MAY sit
        // above it (adopted fail-over/reshard sessions are accounted but
        // never rejected); peak_granted_bps tracks only the TryAdmit path.
        if (state.peak_granted_bps > state.pool_bps) {
          return InternalError(StrFormat(
              "shard %zu granted %lld bps, past its %lld bps pool",
              shard + 1, static_cast<long long>(state.peak_granted_bps),
              static_cast<long long>(state.pool_bps)));
        }
        max_headroom =
            std::max(max_headroom, state.pool_bps - state.reserved_bps);
      }
      if (options.skewed_load) {
        // Placement soundness: a viewer still shed at quiescence while a
        // sibling shard holds a stream's worth of headroom means the board
        // retry failed to spread the skew.
        for (size_t i = 0; i < viewers->size(); ++i) {
          const Viewer& viewer = (*viewers)[i];
          if (!viewer.vod->playing() &&
              IsResourceExhausted(viewer.last_error) &&
              max_headroom >= 3'000'000) {
            return UnavailableError(StrFormat(
                "viewer %zu shed with RESOURCE_EXHAUSTED while a sibling "
                "shard holds %lld bps headroom",
                i, static_cast<long long>(max_headroom)));
          }
        }
      }
      return OkStatus();
    });
  }
  monitor.AddQuiescent("ras-reclamation", [&harness, &cluster]() -> Status {
    for (naming::NameServer* ns : harness.LiveNameServers()) {
      if (!ns->is_master()) {
        continue;
      }
      for (const auto& bound : ns->tree().AllBoundObjects()) {
        if (!RefPointsAtLiveProcess(cluster, bound.ref)) {
          return InternalError("NS binding " + JoinPath(bound.path) +
                               " survives its dead owner (" +
                               DescribeRef(bound.ref) + ")");
        }
      }
    }
    for (ras::RasService* ras : harness.LiveRasServices()) {
      for (const auto& [entity, status] : ras->TrackedSnapshot()) {
        if (status != ras::EntityStatus::kAlive ||
            entity.kind != ras::EntityKind::kServiceObject) {
          continue;
        }
        if (!RefPointsAtLiveProcess(cluster, entity.ref)) {
          return InternalError("RAS still reports dead object alive (" +
                               DescribeRef(entity.ref) + ")");
        }
      }
      for (const wire::ObjectRef& ref : ras->LocalLiveSnapshot()) {
        if (!RefPointsAtLiveProcess(cluster, ref)) {
          return InternalError("RAS local-live set holds dead object (" +
                               DescribeRef(ref) + ")");
        }
      }
    }
    return OkStatus();
  });
  monitor.AddQuiescent("ns-single-master", [&harness]() -> Status {
    std::vector<naming::NameServer*> live = harness.LiveNameServers();
    if (live.empty()) {
      return InternalError("no live name-service replica");
    }
    int masters = 0;
    uint32_t master_id = 0;
    uint64_t epoch = 0;
    for (naming::NameServer* ns : live) {
      if (ns->is_master()) {
        ++masters;
        master_id = ns->master_id();
        epoch = ns->epoch();
      }
    }
    if (masters != 1) {
      return InternalError(
          StrFormat("%d live NS replicas claim mastership", masters));
    }
    for (naming::NameServer* ns : live) {
      if (ns->master_id() != master_id || ns->epoch() != epoch) {
        return InternalError(StrFormat(
            "replica disagrees on master: sees id=%u epoch=%llu, master is "
            "id=%u epoch=%llu",
            ns->master_id(), static_cast<unsigned long long>(ns->epoch()),
            master_id, static_cast<unsigned long long>(epoch)));
      }
    }
    return OkStatus();
  });
  if (options.check_single_primary) {
    sim::AddSinglePrimaryQuiescent(
        monitor, "svc-single-primary", [&harness] {
          std::vector<sim::PrimaryClaim> claims;
          for (auto& [path, lifecycles] : harness.LiveLifecycles()) {
            for (svc::ServiceLifecycle* lifecycle : lifecycles) {
              if (lifecycle->role() == svc::ServiceRole::kStopped) {
                continue;  // Retired by a shrink cutover; makes no claim.
              }
              sim::PrimaryClaim claim;
              claim.service = path;
              claim.claimant =
                  path + "@" + std::to_string(lifecycle->process().host());
              claim.is_primary = lifecycle->is_primary();
              claims.push_back(std::move(claim));
            }
          }
          return claims;
        });
  }
  for (const auto& [name, check] : options.extra_invariants) {
    monitor.AddQuiescent(
        name, [&harness, check = check]() -> Status { return check(harness); });
  }
  monitor.RunQuiescent(cluster.Now());

  // --- Teardown: stop everything, then look for leaks -------------------------
  for (const Viewer& viewer : *viewers) {
    viewer.vod->Stop();
  }
  cluster.RunFor(options.drain);
  size_t pending_before = cluster.scheduler().pending_events();
  cluster.RunFor(Duration::Seconds(15));
  size_t pending_after = cluster.scheduler().pending_events();
  // Read after the idle window, so the probes' own calls do not count as
  // queue growth.
  Result<std::vector<std::string>> leftovers = ProbeMediaLeftovers(
      harness, cluster, mms_map, options.neighborhood_count);
  // Re-evaluating the convergence checks here would see stopped viewers, so
  // the teardown invariant gets its own monitor.
  sim::InvariantMonitor teardown;
  teardown.AddQuiescent("no-leaks", [&]() -> Status {
    // Periodic pollers keep the queue non-empty forever; a leak shows as
    // growth across an idle window (every RunFor re-arms would-be leaked
    // timers again and again).
    if (pending_after > pending_before + pending_before / 4 + 16) {
      return InternalError(StrFormat(
          "event queue grew %zu -> %zu across an idle window", pending_before,
          pending_after));
    }
    size_t visited = 0;
    cluster.ForEachProcess([&visited](sim::Process&) { ++visited; });
    if (visited != cluster.live_process_count()) {
      return InternalError(StrFormat(
          "process leak: index %zu vs %zu live on nodes",
          cluster.live_process_count(), visited));
    }
    return OkStatus();
  });
  teardown.AddQuiescent("teardown-clean", [&]() -> Status {
    if (!leftovers.ok()) {
      return leftovers.status();
    }
    if (leftovers->empty()) {
      return OkStatus();
    }
    std::string held;
    for (const std::string& line : *leftovers) {
      held += (held.empty() ? "" : "; ") + line;
    }
    return InternalError(StrFormat(
        "%zu held %.0fs after every viewer stopped: %s", leftovers->size(),
        (options.drain + Duration::Seconds(15)).seconds(), held.c_str()));
  });
  teardown.RunQuiescent(cluster.Now());

  // --- Verdict + artifacts ----------------------------------------------------
  result.violations = monitor.violations();
  result.violations.insert(result.violations.end(),
                           teardown.violations().begin(),
                           teardown.violations().end());
  result.passed = result.violations.empty();
  if (!result.passed) {
    result.first_violation = result.violations.front().invariant;
  }
  result.invariant_report = monitor.Report() + teardown.Report();
  result.faults_applied = injector.faults_applied();
  result.fault_log = injector.log();
  result.messages = harness.metrics().Get("net.msg.total");
  result.events = cluster.scheduler().executed_events();
  result.bind_attempts = harness.metrics().Get("binder.bind_attempts");
  if (!result.passed || options.capture_artifacts) {
    result.trace_json = trace::ChromeTraceJson(cluster.trace_buffer());
    result.metrics_json = harness.metrics().DumpJson();
    for (const sim::Fault& fault : result.plan.faults) {
      if (fault.kind == sim::FaultKind::kKillProcess ||
          fault.kind == sim::FaultKind::kKillNsMaster ||
          fault.kind == sim::FaultKind::kCrashNode) {
        trace::FailoverTimeline timeline = trace::FailoverTimeline::Reconstruct(
            cluster.trace_buffer().Snapshot(), chaos_start + fault.at);
        result.timeline_report = timeline.Report();
        break;
      }
    }
  }
  return result;
}

}  // namespace

FuzzResult RunSeed(uint64_t seed, const FuzzOptions& options) {
  return Run(seed, nullptr, options);
}

FuzzResult RunSchedule(uint64_t seed, const sim::ChaosPlan& plan,
                       const FuzzOptions& options) {
  return Run(seed, &plan, options);
}

ShrinkResult Shrink(const FuzzResult& failing, const FuzzOptions& options,
                    size_t max_runs,
                    const std::function<void(const std::string&)>& progress) {
  ShrinkResult out;
  out.plan = failing.plan;
  out.result = failing;
  const std::string target = failing.first_violation;
  if (failing.passed || target.empty() || target == "warmup-playback") {
    return out;  // Nothing to shrink (or plan-independent setup failure).
  }
  auto say = [&progress](const std::string& line) {
    if (progress) {
      progress(line);
    }
  };

  size_t chunk = std::max<size_t>(1, out.plan.faults.size() / 2);
  while (true) {
    bool removed_at_this_size = false;
    for (size_t start = 0;
         start < out.plan.faults.size() && out.runs < max_runs;) {
      sim::ChaosPlan candidate = out.plan;
      size_t end = std::min(start + chunk, candidate.faults.size());
      candidate.faults.erase(candidate.faults.begin() + start,
                             candidate.faults.begin() + end);
      FuzzResult r = RunSchedule(failing.seed, candidate, options);
      ++out.runs;
      if (!r.passed && r.first_violation == target) {
        say(StrFormat("shrink: %zu -> %zu faults still violate %s",
                      out.plan.faults.size(), candidate.faults.size(),
                      target.c_str()));
        out.plan = std::move(candidate);
        out.result = std::move(r);
        removed_at_this_size = true;
        // Same index now holds the next chunk; retry from here.
      } else {
        start += chunk;
      }
    }
    if (out.runs >= max_runs) {
      break;
    }
    if (chunk == 1) {
      if (!removed_at_this_size) {
        break;  // 1-minimal: every single-fault drop makes the failure vanish.
      }
      continue;
    }
    chunk = std::max<size_t>(1, chunk / 2);
  }
  return out;
}

}  // namespace itv::chaos
