// Chaos test: random service-process kills under a live VOD workload.
//
// The paper's strongest claim is operational: "Most failures of services and
// settop programs (and there were many during debugging) were covered with
// only a very brief interruption" (Section 9.5). Here a population of
// settops watches movies while a seeded gremlin repeatedly kills media and
// infrastructure processes; afterwards the cluster must converge: viewers
// still playing, and — once everyone stops — every stream and every ATM
// connection reclaimed.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/common/rand.h"
#include "src/common/trace.h"
#include "src/media/factories.h"
#include "src/naming/name_client.h"
#include "src/settop/app_manager.h"
#include "src/settop/vod_app.h"
#include "src/svc/harness.h"
#include "src/svc/settop_manager.h"

namespace itv {
namespace {

class ChaosTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  ChaosTest() : harness_(MakeOptions()) {
    media::MediaDeployment deploy;
    deploy.movies = media::SyntheticCatalog(/*count=*/8, /*server_count=*/3,
                                            /*replicas=*/2);
    deploy.rds_items = {{"vod", 1'000'000}};
    media::RegisterMediaServices(harness_, deploy);
    harness_.Boot();
    harness_.cluster().RunFor(Duration::Seconds(12));
  }

  static svc::HarnessOptions MakeOptions() {
    svc::HarnessOptions opts;
    opts.server_count = 3;
    opts.neighborhood_count = 3;
    return opts;
  }

  sim::Cluster& cluster() { return harness_.cluster(); }

  svc::ClusterHarness harness_;
};

TEST_P(ChaosTest, ClusterConvergesAfterRandomServiceKills) {
  Rng rng(GetParam());

  // Viewers: one settop per neighborhood watching a long movie; VodApps
  // auto-resume on stream failure with persistent MMS rebinding.
  struct Viewer {
    settop::VodApp* vod;
  };
  std::vector<Viewer> viewers;
  for (uint8_t nb = 1; nb <= 3; ++nb) {
    sim::Node& settop = harness_.AddSettop(nb);
    sim::Process& p = settop.Spawn("viewer");
    settop::VodApp::Options opts;
    opts.mms_rebind.max_attempts = 50;
    opts.mms_rebind.initial_backoff = Duration::Millis(500);
    opts.mms_rebind.backoff_multiplier = 1.2;
    auto* vod = p.Emplace<settop::VodApp>(
        p.runtime(), p.executor(), harness_.ClientFor(p), opts,
        &harness_.metrics());
    vod->PlayMovie("movie-" + std::to_string(rng.Below(8)), [](Status) {});
    viewers.push_back(Viewer{vod});
  }
  cluster().RunFor(Duration::Seconds(15));
  for (const Viewer& viewer : viewers) {
    ASSERT_TRUE(viewer.vod->playing());
  }

  // The gremlin: every ~20 s for 4 virtual minutes, kill one random media or
  // infrastructure process. The SSC restarts everything it manages; the CSC
  // replaces what it placed; auditing swaps bindings.
  const std::vector<std::string> victims = {
      "mdsd", "mmsd",  "rdsd-1", "rdsd-2", "rdsd-3", "cmgrd-1",
      "cmgrd-2", "cmgrd-3", "rasd", "trunkd", "settopmgr",
  };
  int kills = 0;
  for (int round = 0; round < 12; ++round) {
    size_t server = rng.Below(3);
    const std::string& name = victims[rng.Below(victims.size())];
    sim::Process* victim = harness_.server(server).FindProcessByName(name);
    if (victim != nullptr) {
      harness_.server(server).Kill(victim->pid());
      ++kills;
    }
    cluster().RunFor(Duration::Seconds(20));
  }
  ASSERT_GT(kills, 5);

  // Grace period, then: every viewer must be playing again.
  cluster().RunFor(Duration::Seconds(60));
  for (size_t i = 0; i < viewers.size(); ++i) {
    EXPECT_TRUE(viewers[i].vod->playing()) << "viewer " << i;
    EXPECT_GT(viewers[i].vod->chunks_received(), 0u) << "viewer " << i;
  }

  // Everyone stops; all resources must drain.
  for (const Viewer& viewer : viewers) {
    viewer.vod->Stop();
  }
  cluster().RunFor(Duration::Seconds(30));

  // No MDS streams left anywhere.
  uint32_t total_streams = 0;
  for (size_t i = 0; i < 3; ++i) {
    sim::Process& probe = harness_.SpawnProcessOn(i, "probe" + std::to_string(i));
    auto ref = harness_.ClientFor(probe).Resolve("svc/mds/" +
                                                 std::to_string(i + 1));
    cluster().RunFor(Duration::Seconds(3));
    if (!ref.is_ready() || !ref.result().ok()) {
      continue;  // Replica mid-restart; its streams died with it.
    }
    auto sync = media::MdsProxy(probe.runtime(), ref.result().value()).Sync();
    cluster().RunFor(Duration::Seconds(2));
    if (sync.is_ready() && sync.result().ok()) {
      total_streams += sync.result()->load.active_streams;
    }
  }
  EXPECT_EQ(total_streams, 0u);

  // The name space is intact: core services resolvable from a fresh client.
  sim::Process& probe = harness_.SpawnProcessOn(0, "final-probe");
  for (const char* path : {"svc/mms", "svc/db", "svc/settopmgr"}) {
    auto ref = harness_.ClientFor(probe).Resolve(path);
    cluster().RunFor(Duration::Seconds(3));
    EXPECT_TRUE(ref.is_ready() && ref.result().ok()) << path;
  }
}

TEST_P(ChaosTest, NameServiceMasterDiesWhileBindingsResolve) {
  // The nastiest rebind window: kill the MMS so every viewer's binding
  // invalidates and re-resolves, then kill a name-service replica (rotating
  // across servers, so the master dies in some rounds) while those resolves
  // are in flight. The binding layer must absorb the combined outage: name
  // lookups back off with jitter until re-election, then the coalesced
  // resolve completes and playback resumes.
  Rng rng(GetParam());

  std::vector<settop::VodApp*> viewers;
  for (uint8_t nb = 1; nb <= 3; ++nb) {
    sim::Node& settop = harness_.AddSettop(nb);
    sim::Process& p = settop.Spawn("viewer");
    settop::VodApp::Options opts;
    opts.mms_rebind.max_attempts = 50;
    opts.mms_rebind.initial_backoff = Duration::Millis(500);
    opts.mms_rebind.backoff_multiplier = 1.2;
    opts.mms_rebind.backoff_jitter = 0.25;
    opts.mms_rebind.jitter_seed = GetParam() + nb;
    auto* vod = p.Emplace<settop::VodApp>(
        p.runtime(), p.executor(), harness_.ClientFor(p), opts,
        &harness_.metrics());
    vod->PlayMovie("movie-" + std::to_string(rng.Below(8)), [](Status) {});
    viewers.push_back(vod);
  }
  cluster().RunFor(Duration::Seconds(15));
  for (settop::VodApp* vod : viewers) {
    ASSERT_TRUE(vod->playing());
  }

  for (int round = 0; round < 4; ++round) {
    // Kill the MMS primary: viewers' next chunk gap triggers Close/Open
    // through the invalidated binding, which resolves via the name service.
    for (size_t server = 0; server < 3; ++server) {
      sim::Process* mms = harness_.server(server).FindProcessByName("mmsd");
      if (mms != nullptr) {
        harness_.server(server).Kill(mms->pid());
        break;
      }
    }
    // A breath later — resolves now in flight — kill a name-service replica.
    cluster().RunFor(Duration::Seconds(1));
    size_t ns_server = (round + rng.Below(2)) % 3;
    sim::Process* nsd = harness_.server(ns_server).FindProcessByName("nsd");
    if (nsd != nullptr) {
      harness_.server(ns_server).Kill(nsd->pid());
    }
    // Re-election (~majority heartbeat timeouts), SSC restarts, rebinds.
    cluster().RunFor(Duration::Seconds(45));
  }

  cluster().RunFor(Duration::Seconds(60));
  for (size_t i = 0; i < viewers.size(); ++i) {
    EXPECT_TRUE(viewers[i]->playing()) << "viewer " << i;
    EXPECT_GT(viewers[i]->chunks_received(), 0u) << "viewer " << i;
  }

  // The storm stayed O(processes): coalesced rebinds were recorded, and the
  // name space answers again.
  EXPECT_GT(harness_.metrics().Get("rebind.count"), 0u);
  sim::Process& probe = harness_.SpawnProcessOn(0, "final-probe");
  auto ref = harness_.ClientFor(probe).Resolve("svc/mms");
  cluster().RunFor(Duration::Seconds(5));
  EXPECT_TRUE(ref.is_ready() && ref.result().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         ::testing::Values(1001, 2002, 3003, 4004));

// --- Scripted kill, reconstructed from the trace buffer -----------------------

TEST(FailoverTraceTest, TimelineMatchesPaperWorstCaseBound) {
  // Paper Section 9.7 defaults: backup re-binds every 10 s, the name service
  // audits every 10 s, the RAS polls peers every 5 s => 25 s worst case. A
  // scripted server crash must leave enough spans in the cluster trace buffer
  // for FailoverTimeline to reconstruct each phase, and every reconstructed
  // phase must respect its polling-interval bound.
  svc::HarnessOptions opts;
  opts.server_count = 3;
  opts.ns.audit_interval = Duration::Seconds(10);
  opts.ras.peer_poll_interval = Duration::Seconds(5);
  opts.ras.peer_failures_to_dead = 1;
  opts.ras.rpc_timeout = Duration::Seconds(1);
  opts.start_csc = false;
  svc::ClusterHarness harness(opts);
  harness.Boot();

  svc::ServiceLifecycle::Options lc_opts;
  lc_opts.retry_interval = Duration::Seconds(10);
  auto spawn_replica = [&](size_t server_index) {
    sim::Process& p = harness.SpawnProcessOn(server_index, "target");
    auto* skeleton = p.Emplace<svc::SettopManagerService>(p.executor());
    wire::ObjectRef ref = p.runtime().Export(skeleton);
    auto* lifecycle = p.Emplace<svc::ServiceLifecycle>(
        p, harness.ClientFor(p), "svc/target", ref, lc_opts,
        &harness.metrics());
    lifecycle->Start({});
  };
  spawn_replica(1);  // Primary binds first.
  harness.cluster().RunFor(Duration::Seconds(2));
  spawn_replica(2);  // Backup keeps retrying behind it.
  harness.cluster().RunFor(Duration::Seconds(5));

  sim::Process& probe = harness.SpawnProcessOn(0, "probe");
  auto resolved = harness.ClientFor(probe).Resolve("svc/target");
  harness.cluster().RunFor(Duration::Seconds(3));
  ASSERT_TRUE(resolved.is_ready() && resolved.result().ok());
  ASSERT_EQ(resolved.result()->endpoint.host, harness.HostOf(1));

  harness.cluster().RunFor(Duration::Seconds(7));  // De-phase the pollers.
  Time crash_at = harness.cluster().Now();
  harness.server(1).Crash();
  harness.cluster().RunFor(Duration::Seconds(45));

  std::vector<trace::TraceEvent> events =
      harness.cluster().trace_buffer().Snapshot();
  trace::FailoverTimeline timeline =
      trace::FailoverTimeline::Reconstruct(events, crash_at, "svc/target");
  ASSERT_TRUE(timeline.complete()) << timeline.Report();

  // Each phase is bounded by its polling interval (detection additionally
  // pays the RPC timeout that discovers the dead peer); slack covers RPC
  // latency and scheduling quantization.
  const double slack_s = 3.0;
  EXPECT_GE(timeline.detect_delay().seconds(), 0.0);
  EXPECT_LE(timeline.detect_delay().seconds(), 5.0 + 1.0 + slack_s)
      << timeline.Report();
  EXPECT_GE(timeline.unbind_delay().seconds(), 0.0);
  EXPECT_LE(timeline.unbind_delay().seconds(), 10.0 + slack_s)
      << timeline.Report();
  EXPECT_GE(timeline.rebind_delay().seconds(), 0.0);
  EXPECT_LE(timeline.rebind_delay().seconds(), 10.0 + slack_s)
      << timeline.Report();
  EXPECT_GT(timeline.total().seconds(), 0.0);
  EXPECT_LE(timeline.total().seconds(), 25.0 + slack_s) << timeline.Report();

  // The recording spans multiple processes (RAS, name service, the binder's
  // process) and exports as a loadable Chrome trace-event document.
  std::set<std::string> recorders;
  for (const trace::TraceEvent& e : events) {
    recorders.insert(e.node + "/" + e.process);
  }
  EXPECT_GE(recorders.size(), 3u);
  std::string json = trace::ChromeTraceJson(harness.cluster().trace_buffer());
  std::string error;
  EXPECT_TRUE(trace::ValidateChromeTrace(json, &error)) << error;
}

}  // namespace
}  // namespace itv
