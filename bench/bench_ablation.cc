// Ablations of two design choices the reproduction makes explicit:
//
// A. Dead-implementor detection: the object exchange NACKs requests to a
//    vanished process ("the client will detect this on the next attempt to
//    use the object reference", Section 3.2.1), versus relying on RPC
//    timeouts alone (what a crashed *machine* gives you). Measures the
//    client-visible recovery latency of an invoke-and-rebind after each kind
//    of failure — the NACK path is what makes process restarts "invisible"
//    (Section 9.5).
//
// B. Selector policy for per-server services (paper Section 5.1): the
//    by-caller-host selector keeps lookups local; round-robin or first
//    scatter callers across machines. Measures the fraction of svc/ras
//    resolutions that land on the caller's own server.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/naming/name_client.h"
#include "src/svc/harness.h"
#include "src/svc/settop_manager.h"

namespace itv {
namespace {

// --- Ablation A -----------------------------------------------------------------

struct RecoveryMeasurement {
  double first_error_s = 0;  // How fast a stale-reference call fails.
  double recovery_s = 0;     // Until a call succeeds against the backup.
};

RecoveryMeasurement MeasureRecoveryLatency(bool crash_whole_server) {
  svc::HarnessOptions opts;
  opts.server_count = 3;
  opts.start_csc = false;
  opts.ras.peer_failures_to_dead = 1;
  svc::ClusterHarness harness(opts);
  harness.Boot();
  sim::Cluster& cluster = harness.cluster();

  svc::ServiceLifecycle::Options lc_opts;
  lc_opts.retry_interval = Duration::Seconds(2);
  auto spawn_replica = [&](size_t index) {
    sim::Process& p = harness.SpawnProcessOn(index, "target");
    auto* skeleton = p.Emplace<svc::SettopManagerService>(p.executor());
    wire::ObjectRef ref = p.runtime().Export(skeleton);
    auto* lifecycle = p.Emplace<svc::ServiceLifecycle>(
        p, harness.ClientFor(p), "svc/target", ref, lc_opts,
        &harness.metrics());
    lifecycle->Start({});
  };
  spawn_replica(1);
  cluster.RunFor(Duration::Seconds(2));
  spawn_replica(2);
  cluster.RunFor(Duration::Seconds(4));

  // Client with a warm cached reference.
  sim::Process& client = harness.SpawnProcessOn(0, "client");
  rpc::BindingOptions rb;
  rb.max_attempts = 60;
  rb.initial_backoff = Duration::Millis(250);
  rb.backoff_multiplier = 1.0;
  rpc::BindingTable table(client.runtime(),
                          harness.ClientFor(client).PathResolverFn());
  auto target = table.Bind<svc::SettopManagerProxy>("svc/target", rb);
  auto call_once = [&]() -> Duration {
    Time t0 = cluster.Now();
    Time t1 = t0;
    bool done = false;
    target.Call<std::vector<uint8_t>>(
        [&](const svc::SettopManagerProxy& proxy) {
          return proxy.GetStatus({client.host()});
        },
        [&](Result<std::vector<uint8_t>> r) {
          done = r.ok();
          t1 = cluster.Now();
        });
    for (int i = 0; i < 2000 && !done; ++i) {
      cluster.RunFor(Duration::Millis(50));
    }
    return done ? (t1 - t0) : Duration::Infinite();
  };
  (void)call_once();  // Warm the cache.
  wire::ObjectRef stale = table.Find("svc/target")->ref;

  if (crash_whole_server) {
    harness.server(1).Crash();
  } else {
    sim::Process* target = harness.server(1).FindProcessByName("target");
    harness.server(1).Kill(target->pid());
  }
  cluster.RunFor(Duration::Millis(100));

  // How quickly does a call on the stale reference FAIL? NACK: one network
  // round trip. Crashed server: the full RPC timeout.
  RecoveryMeasurement m;
  {
    Time t0 = cluster.Now();
    Time t1 = t0;
    bool failed = false;
    svc::SettopManagerProxy proxy(client.runtime(), stale);
    proxy.GetStatus({client.host()})
        .OnReady([&](const Result<std::vector<uint8_t>>& r) {
          failed = !r.ok();
          t1 = cluster.Now();
        });
    for (int i = 0; i < 200 && !failed; ++i) {
      cluster.RunFor(Duration::Millis(50));
    }
    m.first_error_s = (t1 - t0).seconds();
  }
  m.recovery_s = call_once().seconds();
  return m;
}

// --- Ablation B -----------------------------------------------------------------

double MeasureLocalityFraction(naming::BuiltinSelector policy) {
  svc::HarnessOptions opts;
  opts.server_count = 4;
  opts.start_csc = false;
  svc::ClusterHarness harness(opts);
  harness.Boot();
  sim::Cluster& cluster = harness.cluster();

  // Swap the svc/ras selector policy.
  sim::Process& admin = harness.SpawnProcessOn(0, "admin");
  auto swap = harness.ClientFor(admin).SetSelector("svc/ras", policy);
  (void)bench::WaitOn(cluster, swap);
  cluster.RunFor(Duration::Seconds(3));

  int local = 0, total = 0;
  for (size_t server = 0; server < 4; ++server) {
    for (int i = 0; i < 25; ++i) {
      sim::Process& p = harness.SpawnProcessOn(
          server, "probe" + std::to_string(server) + "-" + std::to_string(i));
      auto r = bench::WaitOn(cluster, harness.ClientFor(p).Resolve("svc/ras"),
                             Duration::Seconds(2));
      if (r.ok()) {
        ++total;
        local += r->endpoint.host == p.host();
      }
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(local) / total;
}

}  // namespace
}  // namespace itv

int main() {
  using namespace itv;
  bench::PrintHeader("Ablation A: NACK detection vs timeout-only recovery");
  std::printf(
      "a client with a cached reference calls right after the failure; "
      "latency until the\ncall succeeds against the backup (bind retry 2 s, "
      "audit 10 s, ras poll 5 s):\n\n");
  bench::PrintRow({"failure", "detection", "first_error_s", "recovery_s"});
  RecoveryMeasurement process_kill =
      MeasureRecoveryLatency(/*crash_whole_server=*/false);
  RecoveryMeasurement server_crash =
      MeasureRecoveryLatency(/*crash_whole_server=*/true);
  bench::PrintRow({"process kill", "NACK",
                   bench::Fmt("%.4f", process_kill.first_error_s),
                   bench::Fmt("%.2f", process_kill.recovery_s)});
  bench::PrintRow({"server crash", "RPC timeout",
                   bench::Fmt("%.4f", server_crash.first_error_s),
                   bench::Fmt("%.2f", server_crash.recovery_s)});
  std::printf(
      "\nexpect: the NACK fails a stale call in ~1 ms (one round trip); the "
      "crashed server\nneeds the full 2 s RPC timeout per attempt. End-to-end "
      "recovery is dominated by the\naudit/bind-retry cadence in both cases "
      "(E1), but every client attempt in between is\n2000x cheaper with "
      "NACKs — why process restarts felt invisible (Section 9.5).\n");

  bench::PrintHeader(
      "Ablation B: selector policy for per-server services (svc/ras)");
  bench::PrintRow({"selector", "local_fraction"});
  struct Policy {
    const char* name;
    naming::BuiltinSelector policy;
  };
  const Policy policies[] = {
      {"by-caller-host", naming::BuiltinSelector::kByCallerHost},
      {"first", naming::BuiltinSelector::kFirst},
      {"round-robin", naming::BuiltinSelector::kRoundRobin},
      {"randomish", naming::BuiltinSelector::kRandomish},
  };
  for (const Policy& p : policies) {
    bench::PrintRow({p.name, bench::Fmt("%.2f", MeasureLocalityFraction(p.policy))});
  }
  std::printf(
      "\nexpect: by-caller-host keeps 100%% of RAS traffic on the caller's "
      "server (the paper's\nchoice: 'services contact the RAS on their local "
      "machine'); the alternatives scatter\nit, turning local queries into "
      "cross-server RPCs.\n");
  return 0;
}
