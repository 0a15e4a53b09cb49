// Experiment E1 — Fail-over speed (paper Section 9.7).
//
// "The speed of primary/backup recovery is determined by three parameters:
//  the interval at which the backup retries to bind into the name space; the
//  interval at which the name service polls the local RAS; and the interval
//  at which the RAS on the name service master's host polls the RASs on the
//  other machines... Backup retries bind every 10 seconds; name service
//  polls RAS every 10 seconds; RAS polls other RASs every 5 seconds. This
//  gives a maximum fail over time of 25 seconds."
//
// Harness: a primary/backup service pair on servers 2 and 3 (the name
// service master lives on server 1). The primary's whole server crashes at a
// pseudo-random phase relative to the polling clocks; a client on server 1
// re-resolves until the backup's binding appears. Repeated over many trials
// per parameter setting; the observed maximum should approach the sum of the
// three intervals (plus the RAS RPC timeout that detects the dead peer) and
// the mean about half of it.

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_report.h"
#include "bench/bench_util.h"
#include "src/common/rand.h"
#include "src/common/trace.h"
#include "src/media/cmgr.h"
#include "src/media/factories.h"
#include "src/media/mms.h"
#include "src/naming/name_client.h"
#include "src/rpc/binding_table.h"
#include "src/settop/vod_app.h"
#include "src/svc/harness.h"
#include "src/svc/settop_manager.h"
#include "src/wire/shard_map.h"

namespace itv {
namespace {

struct Params {
  double bind_retry_s;
  double ns_audit_s;
  double ras_poll_s;
};

struct TrialResult {
  Histogram failover_s;
  // The client-library view: a call through a primed binding issued at crash
  // time; the binding layer re-resolves until the backup answers.
  Histogram client_s;
  // Per-phase decomposition reconstructed from the trace buffer
  // (trace::FailoverTimeline): kill -> ras.peer_dead -> ns.audit.unbind ->
  // bind.primary.
  Histogram detect_s;
  Histogram unbind_s;
  Histogram rebind_s;
  int timelines_complete = 0;
  std::string sample_report;  // One trial's human-readable decomposition.
  uint64_t rebinds = 0;  // rebind.count across trials (lookups issued).
  int failures = 0;
};

TrialResult RunTrials(const Params& params, int trials, uint64_t seed) {
  TrialResult out;
  Rng rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    svc::HarnessOptions opts;
    opts.server_count = 3;
    opts.ns.audit_interval = Duration::Seconds(params.ns_audit_s);
    opts.ras.peer_poll_interval = Duration::Seconds(params.ras_poll_s);
    opts.ras.peer_failures_to_dead = 1;  // The paper counts one missed poll.
    opts.ras.rpc_timeout = Duration::Seconds(1);
    opts.start_csc = false;  // Nothing here needs placement management.
    svc::ClusterHarness harness(opts);
    harness.Boot();

    svc::ServiceLifecycle::Options lc_opts;
    lc_opts.retry_interval = Duration::Seconds(params.bind_retry_s);

    // Primary on server 2 (bound first), backup on server 3.
    auto spawn_replica = [&](size_t server_index) -> sim::Process& {
      sim::Process& p = harness.SpawnProcessOn(server_index, "target");
      auto* skeleton = p.Emplace<svc::SettopManagerService>(p.executor());
      wire::ObjectRef ref = p.runtime().Export(skeleton);
      auto* lifecycle = p.Emplace<svc::ServiceLifecycle>(
          p, harness.ClientFor(p), "svc/target", ref, lc_opts,
          &harness.metrics());
      lifecycle->Start({});
      return p;
    };
    spawn_replica(1);
    harness.cluster().RunFor(Duration::Seconds(2));
    spawn_replica(2);
    harness.cluster().RunFor(Duration::Seconds(5));

    sim::Process& client = harness.SpawnProcessOn(0, "probe");
    naming::NameClient nc = harness.ClientFor(client);

    wire::ObjectRef primary_ref;
    auto resolve_host = [&]() -> uint32_t {
      auto f = nc.Resolve("svc/target");
      auto r = bench::WaitOn(harness.cluster(), f, Duration::Seconds(3));
      if (!r.ok()) {
        return 0;
      }
      primary_ref = *r;
      return r->endpoint.host;
    };
    if (resolve_host() != harness.HostOf(1)) {
      ++out.failures;  // Primary did not establish; skip trial.
      continue;
    }

    // Crash at a pseudo-random phase of ALL the polling clocks (bind retry,
    // audit, peer poll), so the trials sample the full phase space.
    harness.cluster().RunFor(Duration::Seconds(rng.NextDouble() * 30.0));
    Time crash_at = harness.cluster().Now();
    harness.server(1).Crash();

    // Client-library view: a call through a binding primed to the (now dead)
    // primary, fired right at the crash. The binding layer keeps
    // re-resolving with jittered backoff until the backup's binding appears.
    double limit_s = params.bind_retry_s + params.ns_audit_s +
                     params.ras_poll_s + 20.0;
    auto* table = client.Emplace<rpc::BindingTable>(client.runtime(),
                                                    nc.PathResolverFn());
    rpc::BindingOptions bopts;
    bopts.max_attempts = 1000;
    bopts.initial_backoff = Duration::Millis(500);
    bopts.backoff_multiplier = 1.5;
    bopts.max_backoff = Duration::Seconds(5);
    bopts.backoff_jitter = 0.25;
    bopts.deadline = Duration::Seconds(limit_s);
    table->Prime("svc/target", primary_ref);
    bool bound_done = false;
    bool bound_ok = false;
    Time bound_at;
    {
      // Root a trace at the client call so its rebind.attempt /
      // rebind.resolve activity joins the recorded fail-over timeline.
      trace::Tracer& tracer = client.tracer();
      trace::ScopedContext scoped(&tracer, tracer.StartTrace());
      table->Bind<svc::SettopManagerProxy>("svc/target", bopts)
          .Call<void>(
              [host = client.host()](const svc::SettopManagerProxy& mgr) {
                return mgr.Heartbeat(host);
              },
              [&](Result<void> r) {
                bound_done = true;
                bound_ok = r.ok();
                bound_at = harness.cluster().Now();
              });
    }

    // Poll until the backup's binding is visible.
    bool recovered = false;
    while (harness.cluster().Now() - crash_at < Duration::Seconds(limit_s)) {
      harness.cluster().RunFor(Duration::Millis(100));
      auto f = nc.Resolve("svc/target");
      auto r = bench::WaitOn(harness.cluster(), f, Duration::Seconds(1));
      if (r.ok() && r->endpoint.host == harness.HostOf(2)) {
        recovered = true;
        break;
      }
    }
    if (!recovered) {
      ++out.failures;
      continue;
    }
    out.failover_s.Record((harness.cluster().Now() - crash_at).seconds());

    // Drain the binding-layer call (it usually finished during the polling
    // loop; its next backoff attempt lands right after the rebind).
    while (!bound_done &&
           harness.cluster().Now() - crash_at < Duration::Seconds(limit_s)) {
      harness.cluster().RunFor(Duration::Millis(500));
    }
    if (bound_done && bound_ok) {
      out.client_s.Record((bound_at - crash_at).seconds());
    }
    out.rebinds += table->Find("svc/target")->rebinds;

    // Reconstruct the per-phase decomposition from the cluster trace buffer.
    trace::FailoverTimeline timeline = trace::FailoverTimeline::Reconstruct(
        harness.cluster().trace_buffer().Snapshot(), crash_at, "svc/target");
    if (bound_done && bound_ok) {
      timeline.client_ok_at = bound_at;
    }
    if (timeline.complete()) {
      ++out.timelines_complete;
      out.detect_s.Record(timeline.detect_delay().seconds());
      out.unbind_s.Record(timeline.unbind_delay().seconds());
      out.rebind_s.Record(timeline.rebind_delay().seconds());
      if (out.sample_report.empty()) {
        out.sample_report = timeline.Report();
      }
    }
  }
  return out;
}

// Settops streaming through a VodApp each, with the jittered-backoff posture
// real settops carry, started one every 200 ms round-robin over
// `neighborhoods` (every neighborhood when empty); settop i plays
// "movie-<i % titles>".
struct Viewers {
  std::vector<settop::VodApp*> vods;
  std::vector<uint32_t> hosts;
};

Viewers StartViewers(svc::ClusterHarness& harness, size_t count, size_t titles,
                     std::vector<uint8_t> neighborhoods = {}) {
  Viewers out;
  if (neighborhoods.empty()) {
    for (uint8_t nb = 1; nb <= harness.options().neighborhood_count; ++nb) {
      neighborhoods.push_back(nb);
    }
  }
  for (size_t i = 0; i < count; ++i) {
    uint8_t nb = neighborhoods[i % neighborhoods.size()];
    sim::Node& settop = harness.AddSettop(nb);
    out.hosts.push_back(settop.host());
    sim::Process& p = settop.Spawn("viewer");
    settop::VodApp::Options vopts;
    vopts.mms_rebind.max_attempts = 50;
    vopts.mms_rebind.initial_backoff = Duration::Millis(500);
    vopts.mms_rebind.backoff_multiplier = 1.2;
    vopts.mms_rebind.backoff_jitter = 0.25;
    vopts.mms_rebind.jitter_seed = i + 1;
    vopts.mms_rebind.deadline = Duration::Seconds(30);
    auto* vod = p.Emplace<settop::VodApp>(p.runtime(), p.executor(),
                                          harness.ClientFor(p), vopts,
                                          &harness.metrics());
    vod->PlayMovie("movie-" + std::to_string(i % titles), [](Status) {});
    out.vods.push_back(vod);
    harness.cluster().RunFor(Duration::Millis(200));
  }
  return out;
}

// --- E1c: sharded MMS — single-shard kill blast radius ------------------------
//
// A 4-server cluster runs the MMS as 4 shards with a lifecycle for every
// shard on every server, primaries staggered one per host. A client primes
// one binding per shard through the binding table, then the mmsd process
// hosting shard 1's primary is killed. The killed shard must answer again
// within the paper's 25 s bound (it re-binds to the promoted backup on
// another host); the other three shards must keep answering with ZERO
// rebinds — the blast radius of a shard kill is exactly one shard.
//
// With `viewers` streaming settops the killed shard holds sessions, and its
// backups hold none of them: the promoted replica rebuilds its table in the
// recover hook's one sync round. That round is the state-recovery stage of
// trace::FailoverTimeline (bind.primary -> role.promote), and every session
// the shard held before the kill must be held again after it.

// Streaming settops in E1c's second run.
constexpr size_t kShardKillViewers = 32;

struct ShardKillResult {
  double killed_recovery_s = -1;     // Kill -> first successful routed call.
  uint64_t killed_shard_rebinds = 0;
  uint64_t other_shard_rebinds = 0;  // Summed over surviving shards.
  bool others_answered = false;      // Survivors answered during the outage.
  uint32_t held = 0;       // Sessions on the killed shard before the kill.
  uint32_t adopted = 0;    // Sessions on it once it answers again.
  double recover_s = -1;   // The promoted replica's state-recovery stage.
  bool ok = false;
};

ShardKillResult RunShardKill(size_t viewers) {
  ShardKillResult out;
  constexpr uint32_t kShards = 4;
  constexpr size_t kServers = 4;

  svc::HarnessOptions opts;
  opts.server_count = kServers;
  opts.neighborhood_count = static_cast<uint8_t>(kServers);
  // Paper defaults (Section 9.7): 10 s bind retry + 10 s NS audit + 5 s RAS
  // poll => 25 s worst case.
  opts.ns.audit_interval = Duration::Seconds(10);
  opts.ras.peer_poll_interval = Duration::Seconds(5);
  opts.ras.peer_failures_to_dead = 1;
  opts.ras.rpc_timeout = Duration::Seconds(1);
  opts.binder.retry_interval = Duration::Seconds(10);
  svc::ClusterHarness harness(opts);

  media::MediaDeployment deploy;
  deploy.movies = media::SyntheticCatalog(/*count=*/8, kServers,
                                          /*replicas=*/2);
  deploy.mms_shards = kShards;
  deploy.mms_replicas = kServers;
  media::RegisterMediaServices(harness, deploy);
  harness.Boot();
  harness.cluster().RunFor(Duration::Seconds(20));
  if (viewers > 0) {
    StartViewers(harness, viewers, deploy.movies.size());
    harness.cluster().RunFor(Duration::Seconds(12));
  }

  sim::Process& client = harness.SpawnProcessOn(0, "probe");
  naming::NameClient nc = harness.ClientFor(client);
  auto* table =
      client.Emplace<rpc::BindingTable>(client.runtime(), nc.PathResolverFn());
  rpc::BindingOptions bopts;
  bopts.max_attempts = 200;
  bopts.initial_backoff = Duration::Millis(500);
  bopts.backoff_multiplier = 1.5;
  bopts.max_backoff = Duration::Seconds(5);
  bopts.backoff_jitter = 0.25;
  auto mms = table->BindSharded<media::MmsProxy>(media::kMmsName, bopts);

  // One routing key per shard: the smallest integers that hash there.
  wire::ShardMap map{kShards, wire::kDefaultShardSalt};
  std::vector<uint64_t> keys(kShards, 0);
  std::vector<bool> have(kShards, false);
  for (uint64_t k = 1; !std::all_of(have.begin(), have.end(),
                                    [](bool b) { return b; });
       ++k) {
    uint32_t s = wire::ShardOf(k, map);
    if (!have[s]) {
      have[s] = true;
      keys[s] = k;
    }
  }

  auto call_shard = [&](uint32_t s) {
    Promise<uint32_t> done;
    Future<uint32_t> f = done.future();
    mms.Call<uint32_t>(
        keys[s],
        [](const media::MmsProxy& proxy) { return proxy.ListSessions(); },
        [done](Result<uint32_t> r) mutable { done.Set(std::move(r)); });
    return f;
  };

  // Prime all shard bindings, then snapshot per-binding rebind counts.
  for (uint32_t s = 0; s < kShards; ++s) {
    auto r = bench::WaitOn(harness.cluster(), call_shard(s),
                           Duration::Seconds(10));
    if (!r.ok()) {
      return out;
    }
    if (s == 0) {
      out.held = *r;
    }
  }
  std::vector<uint64_t> baseline(kShards, 0);
  for (uint32_t s = 0; s < kShards; ++s) {
    baseline[s] = table->Find(wire::ShardPath(media::kMmsName, s, map))->rebinds;
  }

  // Kill the mmsd hosting shard 1's primary (one process, one shard primary:
  // placement staggered them across hosts).
  auto primary = bench::WaitOn(
      harness.cluster(), nc.Resolve(wire::ShardPath(media::kMmsName, 0, map)),
      Duration::Seconds(5));
  if (!primary.ok()) {
    return out;
  }
  sim::Node* victim_node = harness.cluster().FindNode(primary->endpoint.host);
  sim::Process* victim =
      victim_node != nullptr ? victim_node->FindProcessByName("mmsd") : nullptr;
  if (victim == nullptr) {
    return out;
  }
  Time kill_at = harness.cluster().Now();
  victim_node->Kill(victim->pid());

  // While the killed shard recovers, the survivors must answer throughout.
  out.others_answered = true;
  for (uint32_t s = 1; s < kShards; ++s) {
    auto r = bench::WaitOn(harness.cluster(), call_shard(s),
                           Duration::Seconds(5));
    out.others_answered = out.others_answered && r.ok();
  }

  // Probe the killed shard until the first success.
  while (harness.cluster().Now() - kill_at < Duration::Seconds(40)) {
    auto r = bench::WaitOn(harness.cluster(), call_shard(0),
                           Duration::Seconds(5));
    if (r.ok()) {
      out.killed_recovery_s = (harness.cluster().Now() - kill_at).seconds();
      out.adopted = *r;
      break;
    }
    harness.cluster().RunFor(Duration::Millis(500));
  }

  // A process kill leaves the host up, so no ras.peer_dead starts the
  // timeline; only its last two markers are looked up.
  const std::string shard_path = wire::ShardPath(media::kMmsName, 0, map);
  trace::FailoverTimeline timeline;
  timeline.kill_time = kill_at;
  for (const trace::TraceEvent& e :
       harness.cluster().trace_buffer().Snapshot()) {
    if (e.begin < kill_at) {
      continue;
    }
    if (!timeline.rebound_at.has_value()) {
      if (e.name == trace::kEventBindPrimary && e.detail == shard_path) {
        timeline.rebound_at = e.begin;
      }
    } else if (e.name == trace::kEventRolePromote &&
               e.detail.starts_with(shard_path + " ")) {
      timeline.promoted_at = e.begin;
      out.recover_s = timeline.recover_delay().seconds();
      break;
    }
  }

  for (uint32_t s = 0; s < kShards; ++s) {
    uint64_t delta =
        table->Find(wire::ShardPath(media::kMmsName, s, map))->rebinds -
        baseline[s];
    if (s == 0) {
      out.killed_shard_rebinds = delta;
    } else {
      out.other_shard_rebinds += delta;
    }
  }
  out.ok = out.killed_recovery_s >= 0 && out.others_answered &&
           out.other_shard_rebinds == 0 && out.recover_s >= 0 &&
           out.adopted == out.held;
  return out;
}

// --- E1d: live reshard — 4 -> 8 MMS shards under a streaming population --------
//
// The E2b cluster (4 servers, 64 settops) with every settop actually
// streaming through a VodApp when the operator publishes a successor shard
// map doubling the MMS shard count. Sessions whose settop hashes to a new
// shard are drained at the source; each affected viewer sees a data gap and
// reopens through its binding table, which adopts v2 on its next map fetch.
// Measured: per-viewer disruption (publish -> next delivered chunk), the
// probe table's adoption latency, and — the invariants that make a live
// reshard safe — zero viewers lost and every session owned by the shard the
// successor map assigns it to.

struct ReshardBenchResult {
  size_t viewers = 0;
  size_t playing_before = 0;
  size_t playing_after = 0;
  size_t resumed = 0;          // Viewers that delivered a chunk post-publish.
  Histogram resume_s;          // Publish -> first chunk, per viewer.
  double adopt_s = -1;         // Publish -> probe table serves map v2.
  uint32_t adopted_version = 0;
  uint64_t handoffs = 0;       // mms.session_handoff across the cutover.
  uint64_t misplaced = 0;      // Sessions on a shard that does not own them.
  uint64_t lost = 0;           // Viewer settops with no session anywhere.
  bool ok = false;
};

ReshardBenchResult RunLiveReshard(size_t settop_count) {
  constexpr size_t kServers = 4;
  constexpr uint32_t kFromShards = 4;
  constexpr uint32_t kToShards = 8;

  svc::HarnessOptions opts;
  opts.server_count = kServers;
  opts.neighborhood_count = static_cast<uint8_t>(kServers);
  // Paper fail-over defaults; the reshard rides the same clocks.
  opts.ns.audit_interval = Duration::Seconds(10);
  opts.ras.peer_poll_interval = Duration::Seconds(5);
  opts.ras.peer_failures_to_dead = 1;
  opts.ras.rpc_timeout = Duration::Seconds(1);
  svc::ClusterHarness harness(opts);

  media::MediaDeployment deploy;
  deploy.movies = media::SyntheticCatalog(/*count=*/40, kServers,
                                          /*replicas=*/2);
  // Generous capacity: the phase under test is the cutover, not admission.
  deploy.mds_capacity_bps = 96'000'000;
  deploy.trunk_capacity_bps = 400'000'000;
  deploy.mms_shards = kFromShards;
  deploy.mms_replicas = kServers;
  media::RegisterMediaServices(harness, deploy);
  harness.Boot();
  harness.cluster().RunFor(Duration::Seconds(16));

  ReshardBenchResult out;
  out.viewers = settop_count;

  // The streaming population: one VodApp per settop.
  Viewers viewers = StartViewers(harness, settop_count, deploy.movies.size());
  const std::vector<settop::VodApp*>& vods = viewers.vods;
  const std::vector<uint32_t>& viewer_hosts = viewers.hosts;
  harness.cluster().RunFor(Duration::Seconds(12));
  for (settop::VodApp* vod : vods) {
    out.playing_before += vod->playing() ? 1 : 0;
  }

  // A probe table on a separate client: its adoption latency stands in for
  // the fleet's (every table re-reads its map within kMapMaxAge of the
  // publish).
  sim::Process& probe = harness.SpawnProcessOn(0, "probe");
  naming::NameClient probe_nc = harness.ClientFor(probe);
  auto* probe_table = probe.Emplace<rpc::BindingTable>(probe.runtime(),
                                                       probe_nc.PathResolverFn());

  uint64_t handoff_base = harness.metrics().Get("mms.session_handoff");
  std::vector<uint64_t> chunk_base;
  for (settop::VodApp* vod : vods) {
    chunk_base.push_back(vod->chunks_received());
  }

  // The operator publishes the successor map (versioned CAS).
  wire::ShardMap successor = wire::NextShardMap(
      wire::ShardMap{kFromShards, wire::kDefaultShardSalt}, kToShards);
  sim::Process& ctl = harness.SpawnProcessOn(0, "reshard-ctl");
  Time publish_at = harness.cluster().Now();
  naming::PublishShardMap(ctl.executor(), harness.ClientFor(ctl),
                          std::string(media::kMmsName), successor,
                          [](Result<wire::ShardMap>) {});

  // Step the cutover window, recording each viewer's first post-publish
  // chunk and the probe table's adoption.
  std::vector<double> resume_at(settop_count, -1.0);
  while (harness.cluster().Now() - publish_at < Duration::Seconds(40)) {
    harness.cluster().RunFor(Duration::Millis(250));
    double elapsed = (harness.cluster().Now() - publish_at).seconds();
    for (size_t i = 0; i < settop_count; ++i) {
      if (resume_at[i] < 0 && vods[i]->chunks_received() > chunk_base[i]) {
        resume_at[i] = elapsed;
      }
    }
    if (out.adopt_s < 0) {
      probe_table->ReadMap(media::kMmsName, [](const wire::ShardMap&) {});
      std::optional<wire::ShardMap> map =
          probe_table->CachedMap(media::kMmsName);
      if (map.has_value() && map->version == successor.version) {
        out.adopt_s = elapsed;
      }
    }
  }
  std::optional<wire::ShardMap> adopted =
      probe_table->CachedMap(media::kMmsName);
  out.adopted_version = adopted.has_value() ? adopted->version : 0;
  for (size_t i = 0; i < settop_count; ++i) {
    out.playing_after += vods[i]->playing() ? 1 : 0;
    if (resume_at[i] >= 0) {
      ++out.resumed;
      out.resume_s.Record(resume_at[i]);
    }
  }
  out.handoffs = harness.metrics().Get("mms.session_handoff") - handoff_base;

  // Ownership audit under the successor map: every session must live on the
  // shard that owns its settop, and every viewer settop must hold a session
  // somewhere (the zero-lost-sessions claim).
  std::set<uint32_t> held;
  for (uint32_t shard = 0; shard < kToShards; ++shard) {
    auto ref = bench::WaitOn(
        harness.cluster(),
        probe_nc.Resolve(wire::ShardPath(media::kMmsName, shard, successor)),
        Duration::Seconds(5));
    if (!ref.ok()) {
      ++out.misplaced;  // Unresolvable primary counts against convergence.
      continue;
    }
    auto hosts = bench::WaitOn(
        harness.cluster(),
        media::MmsProxy(probe.runtime(), *ref).ListSessionHosts(),
        Duration::Seconds(5));
    if (!hosts.ok()) {
      ++out.misplaced;
      continue;
    }
    for (uint32_t host : *hosts) {
      if (wire::ShardOf(host, successor) != shard) {
        ++out.misplaced;
      }
      held.insert(host);
    }
  }
  for (uint32_t host : viewer_hosts) {
    if (held.find(host) == held.end()) {
      ++out.lost;
    }
  }

  out.ok = out.playing_before == out.viewers &&
           out.playing_after == out.viewers && out.resumed == out.viewers &&
           out.misplaced == 0 && out.lost == 0 &&
           out.adopted_version == successor.version &&
           out.resume_s.Max() < 25.0;
  return out;
}

// --- E1e/E1f: a server crashes under streaming viewers -----------------------
//
// A 4-server cluster on the paper's clocks; 32 settops stream through
// VodApps. Server 3 crashes and comes back 60 s later, as in itvbench's
// server_crash. A viewer whose stream was on server 3 goes dark until its
// first chunk after the crash: its data-gap timer fires and it reopens
// through the MMS (alive on servers 1 and 2). A viewer whose reopen fails
// presses play again 2 s later (a retry), as itvbench's server_crash viewers
// do.
//
// E1e: the viewers are all of neighborhood 3 and homed on server 3: it heads
// their neighborhood, holds the name-service replica their lookups start at,
// runs the neighborhood's CMgr primary and serves some of their streams. A
// reopen needs the neighborhood's CMgr backup on server 4 to take over; it
// holds nothing, and rebuilds the allocation table from the trunks of the
// three surviving servers.
// Every re-resolve on the way times out at the dead home replica and is
// answered by the next one in the settop's list, and the MMS's release of
// the interrupted session's grant waits for the backup (which reads
// NOT_FOUND: no surviving trunk held that grant).
//
// E1f: the viewers are of neighborhoods 1, 2 and 4, whose CMgrs survive. The
// MMS learns that server 3's MDS is gone only from its next sync round, so
// a reopen can reach an MMS that still offers it. An open there stalls on the
// dead server's trunk past the settop's Open timeout; the settop then drops
// its binding of the live MMS and sends the open again. The reopen names the
// MDS that went quiet, and the MMS tries it last.

constexpr size_t kServerCrashViewers = 32;
constexpr double kServerCrashRestoreS = 60;

struct ServerCrashResult {
  size_t interrupted = 0;  // Viewers streaming from the crashed server.
  size_t resumed = 0;      // Of those, viewers that got a chunk again.
  Histogram dark_s;        // Crash -> first chunk, per resumed viewer.
  uint64_t retries = 0;    // Plays pressed again after a failed reopen.
  uint64_t failovers = 0;  // naming.resolve_failover during the phase.
  // MMS Opens the interrupted viewers sent that drew no reply within the
  // settop's call timeout.
  uint64_t open_timeouts = 0;
  // Grants neighborhood 3's promoted CMgr rebuilt, and the grants of that
  // neighborhood the surviving servers' trunks held at the crash.
  uint64_t rebuilt = 0;
  size_t surviving_grants = 0;
  bool ok = false;
};

ServerCrashResult RunServerCrash(const std::vector<uint8_t>& neighborhoods) {
  constexpr size_t kServers = 4;
  constexpr size_t kCrashIndex = 2;  // Server 3.
  constexpr uint8_t kCrashNeighborhood = 3;  // Headed by server 3.

  svc::HarnessOptions opts;
  opts.server_count = kServers;
  opts.neighborhood_count = static_cast<uint8_t>(kServers);
  opts.ns.audit_interval = Duration::Seconds(10);
  opts.ras.peer_poll_interval = Duration::Seconds(5);
  opts.ras.peer_failures_to_dead = 1;
  opts.ras.rpc_timeout = Duration::Seconds(1);
  opts.binder.retry_interval = Duration::Seconds(10);
  svc::ClusterHarness harness(opts);

  media::MediaDeployment deploy;
  deploy.movies = media::SyntheticCatalog(/*count=*/8, kServers,
                                          /*replicas=*/2);
  deploy.mds_capacity_bps = 96'000'000;
  media::RegisterMediaServices(harness, deploy);
  harness.Boot();
  harness.cluster().RunFor(Duration::Seconds(20));
  Viewers viewers = StartViewers(harness, kServerCrashViewers,
                                 deploy.movies.size(), neighborhoods);
  // The trunks that survive the crash.
  sim::Process& probe = harness.SpawnProcessOn(0, "trunk-probe");
  std::vector<Future<wire::ObjectRef>> trunks;
  for (size_t i = 0; i < kServers; ++i) {
    if (i != kCrashIndex) {
      trunks.push_back(
          harness.ClientFor(probe).Resolve(media::TrunkName(harness.HostOf(i))));
    }
  }
  harness.cluster().RunFor(Duration::Seconds(12));

  ServerCrashResult out;
  const uint32_t crash_host = harness.HostOf(kCrashIndex);
  std::vector<size_t> dark;
  std::set<uint32_t> dark_hosts;
  std::vector<uint64_t> chunk_base;
  for (size_t i = 0; i < viewers.vods.size(); ++i) {
    if (viewers.vods[i]->mds_host() == crash_host) {
      dark.push_back(i);
      dark_hosts.insert(viewers.hosts[i]);
    }
  }
  out.interrupted = dark.size();

  // Every MMS Open an interrupted viewer sends, keyed by (settop, call id),
  // until its reply is routed.
  const Duration open_timeout = rpc::CallOptions().timeout;
  const uint64_t mms_type = wire::TypeIdFromName(media::kMmsInterface);
  std::map<std::pair<uint32_t, uint64_t>, Time> opens_in_flight;
  sim::Cluster& cluster = harness.cluster();
  cluster.network().SetTap([&](const wire::Endpoint& src,
                               const wire::Endpoint& dst,
                               const wire::Message& msg) {
    if (msg.kind == wire::MsgKind::kRequest && dark_hosts.count(src.host) &&
        msg.type_id == mms_type && msg.method_id == media::kMmsMethodOpen) {
      opens_in_flight[{src.host, msg.call_id}] = cluster.Now();
    } else if (msg.kind != wire::MsgKind::kRequest &&
               dark_hosts.count(dst.host)) {
      auto it = opens_in_flight.find({dst.host, msg.call_id});
      if (it != opens_in_flight.end()) {
        out.open_timeouts += cluster.Now() - it->second > open_timeout;
        opens_in_flight.erase(it);
      }
    }
  });

  Metrics& metrics = harness.metrics();
  uint64_t failover_base = metrics.Get("naming.resolve_failover");
  const uint64_t promoted_base = metrics.Get("cmgr.became_primary");
  const uint64_t rebuilt_base = metrics.Get("cmgr.grants_rebuilt");
  Time crash_at = cluster.Now();
  harness.server(kCrashIndex).Crash();
  // The neighborhood's grants on the surviving trunks stay as they are until
  // its CMgr backup takes over: no release or allocate reaches a dead CMgr.
  std::vector<Future<std::vector<media::ConnectionGrant>>> held;
  for (const Future<wire::ObjectRef>& trunk : trunks) {
    ITV_CHECK(trunk.is_ready() && trunk.result().ok());
    held.push_back(media::TrunkProxy(probe.runtime(), trunk.result().value())
                       .ListGrants(kCrashNeighborhood));
  }
  cluster.RunFor(Duration::Seconds(1));
  for (const auto& grants : held) {
    ITV_CHECK(grants.is_ready() && grants.result().ok());
    out.surviving_grants += grants.result()->size();
  }
  for (size_t i : dark) {
    chunk_base.push_back(viewers.vods[i]->chunks_received());
  }

  bool restored = false;
  bool promoted = false;
  std::vector<double> resumed_at(dark.size(), -1.0);
  std::vector<double> failed_at(dark.size(), -1.0);
  while (cluster.Now() - crash_at < Duration::Seconds(120)) {
    cluster.RunFor(Duration::Millis(100));
    double elapsed = (cluster.Now() - crash_at).seconds();
    if (!promoted && metrics.Get("cmgr.became_primary") > promoted_base) {
      promoted = true;
      out.rebuilt = metrics.Get("cmgr.grants_rebuilt") - rebuilt_base;
    }
    if (!restored && elapsed >= kServerCrashRestoreS) {
      harness.server(kCrashIndex).Restart();
      harness.StartSsc(kCrashIndex);
      restored = true;
    }
    size_t waiting = 0;
    for (size_t d = 0; d < dark.size(); ++d) {
      settop::VodApp* vod = viewers.vods[dark[d]];
      if (resumed_at[d] < 0 && vod->chunks_received() > chunk_base[d]) {
        resumed_at[d] = elapsed;
      }
      if (resumed_at[d] < 0 && !vod->playing()) {
        if (failed_at[d] < 0) {
          failed_at[d] = elapsed;
        } else if (elapsed - failed_at[d] >= 2.0) {
          failed_at[d] = -1.0;
          vod->PlayMovie(
              "movie-" + std::to_string(dark[d] % deploy.movies.size()),
              [](Status) {});
          ++out.retries;
        }
      }
      waiting += resumed_at[d] < 0 ? 1 : 0;
    }
    if (waiting == 0 && promoted) {
      break;
    }
  }
  cluster.network().SetTap(nullptr);
  // An Open still unanswered at the end timed out if its settop's timeout
  // has passed.
  for (const auto& [key, sent] : opens_in_flight) {
    out.open_timeouts += cluster.Now() - sent > open_timeout;
  }
  for (double at : resumed_at) {
    if (at >= 0) {
      ++out.resumed;
      out.dark_s.Record(at);
    }
  }
  out.failovers = metrics.Get("naming.resolve_failover") - failover_base;
  out.ok = out.interrupted > 0 && out.resumed == out.interrupted &&
           out.dark_s.Max() < kServerCrashRestoreS;
  ITV_CHECK(promoted && out.rebuilt == out.surviving_grants)
      << "the promoted CMgr rebuilt " << out.rebuilt << " grants, the "
      << "surviving trunks held " << out.surviving_grants;
  return out;
}

}  // namespace
}  // namespace itv

int main() {
  using namespace itv;
  bench::PrintHeader(
      "E1: primary/backup fail-over time vs polling parameters (paper 9.7)");
  std::printf(
      "paper: max fail-over = bind-retry + ns-audit + ras-poll; defaults "
      "10+10+5 = 25 s\n\n");
  bench::PrintRow({"bind_retry_s", "ns_audit_s", "ras_poll_s", "paper_max_s",
                   "observed_p50", "observed_p99", "observed_max",
                   "client_mean", "rebinds", "trials_ok"});

  const Params settings[] = {
      {10, 10, 5},  // Paper defaults.
      {5, 5, 5},
      {2, 2, 2},
      {1, 1, 1},
      {10, 5, 5},
      {5, 10, 5},
  };
  constexpr int kTrials = 40;
  std::vector<TrialResult> results;
  bench::ReportSection report("bench_failover");
  for (const Params& p : settings) {
    TrialResult r = RunTrials(p, kTrials, /*seed=*/42);
    double paper_max = p.bind_retry_s + p.ns_audit_s + p.ras_poll_s;
    std::string prefix = bench::Fmt("%.0f", p.bind_retry_s) + "_" +
                         bench::Fmt("%.0f", p.ns_audit_s) + "_" +
                         bench::Fmt("%.0f", p.ras_poll_s) + "_";
    report.Set(prefix + "p50_s", r.failover_s.Percentile(50));
    report.Set(prefix + "p99_s", r.failover_s.Percentile(99));
    report.Set(prefix + "max_s", r.failover_s.Max());
    report.Set(prefix + "client_mean_s", r.client_s.Mean());
    bench::PrintRow({bench::Fmt("%.0f", p.bind_retry_s),
                     bench::Fmt("%.0f", p.ns_audit_s),
                     bench::Fmt("%.0f", p.ras_poll_s),
                     bench::Fmt("%.0f", paper_max),
                     bench::Fmt("%.1f", r.failover_s.Percentile(50)),
                     bench::Fmt("%.1f", r.failover_s.Percentile(99)),
                     bench::Fmt("%.1f", r.failover_s.Max()),
                     bench::Fmt("%.1f", r.client_s.Mean()),
                     bench::FmtInt(r.rebinds),
                     bench::FmtInt(static_cast<uint64_t>(r.failover_s.count()))});
    results.push_back(std::move(r));
  }

  // Per-phase decomposition of the same trials, reconstructed by
  // trace::FailoverTimeline from the recorded spans (kill -> ras.peer_dead ->
  // ns.audit.unbind -> bind.primary).
  std::printf("\nper-phase decomposition via trace::FailoverTimeline "
              "(seconds, mean/max over complete timelines):\n\n");
  bench::PrintRow({"bind_retry_s", "ns_audit_s", "ras_poll_s", "detect_mean",
                   "detect_max", "unbind_mean", "unbind_max", "rebind_mean",
                   "rebind_max", "timelines"});
  for (size_t i = 0; i < results.size(); ++i) {
    const Params& p = settings[i];
    const TrialResult& r = results[i];
    bench::PrintRow({bench::Fmt("%.0f", p.bind_retry_s),
                     bench::Fmt("%.0f", p.ns_audit_s),
                     bench::Fmt("%.0f", p.ras_poll_s),
                     bench::Fmt("%.1f", r.detect_s.Mean()),
                     bench::Fmt("%.1f", r.detect_s.Max()),
                     bench::Fmt("%.1f", r.unbind_s.Mean()),
                     bench::Fmt("%.1f", r.unbind_s.Max()),
                     bench::Fmt("%.1f", r.rebind_s.Mean()),
                     bench::Fmt("%.1f", r.rebind_s.Max()),
                     bench::FmtInt(static_cast<uint64_t>(r.timelines_complete))});
  }
  if (!results.empty() && !results[0].sample_report.empty()) {
    std::printf("\nsample timeline (paper defaults, one trial):\n%s",
                results[0].sample_report.c_str());
  }
  std::printf(
      "\nnote: observed max can exceed the paper's sum by the RAS RPC "
      "timeout (1 s here)\nthat detects the dead peer, which the paper's "
      "arithmetic folds into its poll interval.\nclient_mean is the same "
      "fail-over seen through the binding layer (a call primed to the\ndead "
      "primary, retried with jittered backoff); rebinds counts its "
      "name-service lookups.\n");

  bench::PrintHeader(
      "E1c: sharded MMS — single-shard kill blast radius (paper defaults)");
  std::printf(
      "4 servers x 4 MMS shards, primaries staggered one per host; the mmsd "
      "hosting\nshard 1's primary is killed, first with no viewers, then with "
      "%zu streaming settops.\nThe killed shard must answer again within the "
      "25 s bound, holding every session\nit held (adopted); the other shards "
      "must keep answering with zero rebinds.\nrecover_s is the promoted "
      "replica's state-recovery stage (bind.primary ->\nrole.promote): its one "
      "sync round, since backups hold no sessions.\n\n",
      kShardKillViewers);
  bench::PrintRow({"viewers", "killed_rec_s", "paper_bound_s",
                   "killed_rebinds", "other_rebinds", "others_up", "sessions",
                   "adopted", "recover_s", "verdict"});
  for (size_t viewers : {size_t{0}, kShardKillViewers}) {
    ShardKillResult sk = RunShardKill(viewers);
    bench::PrintRow({bench::FmtInt(viewers),
                     bench::Fmt("%.1f", sk.killed_recovery_s),
                     bench::Fmt("%.0f", 25.0),
                     bench::FmtInt(sk.killed_shard_rebinds),
                     bench::FmtInt(sk.other_shard_rebinds),
                     sk.others_answered ? "yes" : "no", bench::FmtInt(sk.held),
                     bench::FmtInt(sk.adopted),
                     bench::Fmt("%.3f", sk.recover_s),
                     sk.ok ? "pass" : "FAIL"});
    if (viewers == 0) {
      report.Set("shard_kill_recovery_s", sk.killed_recovery_s);
      report.SetInt("shard_kill_killed_rebinds", sk.killed_shard_rebinds);
      report.SetInt("shard_kill_other_rebinds", sk.other_shard_rebinds);
      report.SetText("shard_kill_verdict", sk.ok ? "pass" : "fail");
    } else {
      report.SetInt("shard_kill_held_sessions", sk.held);
      report.Set("shard_kill_held_recover_s", sk.recover_s);
      report.SetText("shard_kill_held_verdict", sk.ok ? "pass" : "fail");
    }
  }
  std::printf(
      "\nexpect: killed_rec_s <= 25 (usually far less: detect + audit + "
      "rebind), other_rebinds\n= 0 — per-shard bindings give a shard kill a "
      "one-shard blast radius. recover_s is\none sync round (milliseconds), "
      "held sessions or not.\n");

  bench::PrintHeader(
      "E1d: live reshard — 4 -> 8 MMS shards under a streaming population");
  std::printf(
      "4 servers, 64 streaming settops; the successor map doubling the shard "
      "count is\npublished live (versioned CAS). resume = publish -> next "
      "chunk per viewer; moved\nsessions pay a drain + reopen, unmoved ones "
      "stream through. Zero sessions may be\nlost and every session must "
      "land on the shard owning it under map v2.\n\n");
  bench::PrintRow({"viewers", "resume_p50_s", "resume_p99_s", "resume_max_s",
                   "adopt_s", "handoffs", "misplaced", "lost", "router_v",
                   "verdict"});
  ReshardBenchResult rs = RunLiveReshard(/*settop_count=*/64);
  bench::PrintRow({bench::FmtInt(rs.viewers),
                   bench::Fmt("%.1f", rs.resume_s.Percentile(50)),
                   bench::Fmt("%.1f", rs.resume_s.Percentile(99)),
                   bench::Fmt("%.1f", rs.resume_s.Max()),
                   bench::Fmt("%.1f", rs.adopt_s),
                   bench::FmtInt(rs.handoffs), bench::FmtInt(rs.misplaced),
                   bench::FmtInt(rs.lost), bench::FmtInt(rs.adopted_version),
                   rs.ok ? "pass" : "FAIL"});
  report.Set("reshard_resume_p50_s", rs.resume_s.Percentile(50));
  report.Set("reshard_resume_max_s", rs.resume_s.Max());
  report.Set("reshard_adopt_s", rs.adopt_s);
  report.SetInt("reshard_handoffs", rs.handoffs);
  report.SetInt("reshard_sessions_misplaced", rs.misplaced);
  report.SetInt("reshard_sessions_lost", rs.lost);
  report.SetInt("reshard_adopted_version", rs.adopted_version);
  report.SetText("reshard_verdict", rs.ok ? "pass" : "fail");
  std::printf(
      "\nexpect: resume_max < 25 s (a moved session pays one 2 s gap "
      "timeout plus a routed\nreopen; the paper's fail-over bound is the "
      "ceiling, not the norm), misplaced = lost\n= 0, router_v = 2 — the "
      "cutover moves sessions without losing any.\n");

  bench::PrintHeader(
      "E1e: a neighborhood's server crashes under its own viewers (paper "
      "defaults)");
  std::printf(
      "4 servers; %zu settops of neighborhood 3 stream, homed on server 3 "
      "(their boot\nserver, first name-service replica and CMgr primary). "
      "Server 3 crashes and is\nrestored %.0f s later. dark = crash -> first "
      "chunk for each viewer whose stream\nwas on server 3; failovers counts "
      "lookups passed to the next replica in a\nsettop's list "
      "(naming.resolve_failover); retries counts plays pressed again after "
      "a\nfailed reopen; open_timeouts counts the MMS Opens those viewers "
      "sent that drew\nno reply within the settop's call timeout; rebuilt "
      "counts the grants neighborhood\n3's promoted CMgr read from the "
      "surviving trunks (checked equal to what they\nheld at the crash).\n\n",
      kServerCrashViewers, kServerCrashRestoreS);
  bench::PrintRow({"viewers", "interrupted", "resumed", "dark_p50_s",
                   "dark_max_s", "restore_s", "retries", "failovers",
                   "open_timeouts", "rebuilt", "verdict"});
  ServerCrashResult hc = RunServerCrash({3});
  bench::PrintRow({bench::FmtInt(kServerCrashViewers),
                   bench::FmtInt(hc.interrupted), bench::FmtInt(hc.resumed),
                   bench::Fmt("%.1f", hc.dark_s.Percentile(50)),
                   bench::Fmt("%.1f", hc.dark_s.Max()),
                   bench::Fmt("%.0f", kServerCrashRestoreS),
                   bench::FmtInt(hc.retries), bench::FmtInt(hc.failovers),
                   bench::FmtInt(hc.open_timeouts), bench::FmtInt(hc.rebuilt),
                   hc.ok ? "pass" : "FAIL"});
  report.SetInt("home_crash_interrupted", hc.interrupted);
  report.SetInt("home_crash_resumed", hc.resumed);
  report.SetInt("home_crash_retries", hc.retries);
  report.Set("home_crash_dark_p50_s", hc.dark_s.Percentile(50));
  report.Set("home_crash_dark_max_s", hc.dark_s.Max());
  report.SetInt("home_crash_resolve_failovers", hc.failovers);
  report.SetInt("home_crash_open_timeouts", hc.open_timeouts);
  report.SetInt("home_crash_cmgr_rebuilt", hc.rebuilt);
  report.SetText("home_crash_verdict", hc.ok ? "pass" : "fail");
  std::printf(
      "\nexpect: every interrupted viewer resumes before the restore, on the "
      "fail-over\nclocks (CMgr standby takeover, at most 25 s), not at the "
      "restore.\n");

  bench::PrintHeader(
      "E1f: a server crashes under other neighborhoods' viewers (paper "
      "defaults)");
  std::printf(
      "4 servers; %zu settops of neighborhoods 1, 2 and 4 stream. Server 3 "
      "crashes and is\nrestored %.0f s later; the viewers' CMgrs survive. "
      "Columns as in E1e. A reopen\nnames the MDS that went quiet, so the MMS "
      "tries the title's other replica first,\neven before a sync round has "
      "found server 3 silent.\n\n",
      kServerCrashViewers, kServerCrashRestoreS);
  bench::PrintRow({"viewers", "interrupted", "resumed", "dark_p50_s",
                   "dark_max_s", "restore_s", "retries", "failovers",
                   "open_timeouts", "rebuilt", "verdict"});
  ServerCrashResult oc = RunServerCrash({1, 2, 4});
  bench::PrintRow({bench::FmtInt(kServerCrashViewers),
                   bench::FmtInt(oc.interrupted), bench::FmtInt(oc.resumed),
                   bench::Fmt("%.1f", oc.dark_s.Percentile(50)),
                   bench::Fmt("%.1f", oc.dark_s.Max()),
                   bench::Fmt("%.0f", kServerCrashRestoreS),
                   bench::FmtInt(oc.retries), bench::FmtInt(oc.failovers),
                   bench::FmtInt(oc.open_timeouts), bench::FmtInt(oc.rebuilt),
                   oc.ok ? "pass" : "FAIL"});
  report.SetInt("other_crash_interrupted", oc.interrupted);
  report.SetInt("other_crash_resumed", oc.resumed);
  report.SetInt("other_crash_retries", oc.retries);
  report.Set("other_crash_dark_p50_s", oc.dark_s.Percentile(50));
  report.Set("other_crash_dark_max_s", oc.dark_s.Max());
  report.SetInt("other_crash_open_timeouts", oc.open_timeouts);
  report.SetInt("other_crash_cmgr_rebuilt", oc.rebuilt);
  report.SetText("other_crash_verdict", oc.ok ? "pass" : "fail");
  std::printf(
      "\nexpect: every interrupted viewer resumes one data-gap timeout after "
      "its last\nchunk, with no retries and no Open timeouts.\n");
  ITV_CHECK(oc.open_timeouts == 0)
      << oc.open_timeouts << " settop Open timeouts during reopens";

  report.WriteMerged();
  return 0;
}
