// Fail-over drill: the paper's Section 8 availability mechanisms, exercised
// one after another on a three-server cluster:
//
//   1. Service crash -> the SSC restarts it; auditing swaps the name binding;
//      clients rebind invisibly ("we can simply copy a corrected binary to
//      the appropriate servers and kill the service", Section 9.5).
//   2. Whole-server crash -> the RAS declares its objects dead, the name
//      service unbinds them, and backup replicas take over (Section 5.2).
//   3. The server comes back -> "init" restarts the SSC, the CSC notices and
//      repopulates it (Section 6.3).

#include <cstdio>

#include "src/common/logging.h"
#include "src/naming/name_client.h"
#include "src/rpc/binding_table.h"
#include "src/svc/csc.h"
#include "src/svc/harness.h"
#include "src/svc/settop_manager.h"
#include "src/svc/ssc.h"

using namespace itv;

namespace {

// A trivial primary/backup service for the drill.
void RegisterDrillService(svc::ClusterHarness& harness) {
  harness.RegisterServiceType("drilld", [](const svc::ServiceContext& ctx) {
    auto* impl = ctx.process.Emplace<svc::SettopManagerService>(
        ctx.process.executor());
    wire::ObjectRef ref = ctx.process.runtime().Export(impl);
    ctx.StartLifecycle("svc/drill", ref);
  });
}

}  // namespace

int main() {
  // The logger supplies the sim-time and node/process prefix on every line
  // (service logs included), replacing the old hand-formatted timestamps.
  SetMinLogLevel(LogLevel::kInfo);
  svc::HarnessOptions opts;
  opts.server_count = 3;
  svc::ClusterHarness harness(opts);
  sim::Cluster& cluster = harness.cluster();
  auto say = [&](const std::string& what) { ITV_LOG(Info) << what; };

  RegisterDrillService(harness);
  harness.AssignService("drilld", harness.HostOf(1));
  harness.AssignService("drilld", harness.HostOf(2));

  say("booting 3 servers (each runs: ssc, name service replica, RAS; server 1");
  say("also runs the database; servers 1+2 run CSC replicas)...");
  harness.Boot();
  cluster.RunFor(Duration::Seconds(8));

  sim::Process& client = harness.SpawnProcessOn(0, "client");
  naming::NameClient nc = harness.ClientFor(client);
  rpc::BindingTable bindings(client.runtime(), nc.PathResolverFn());
  rpc::BindingOptions rb_opts;
  rb_opts.max_attempts = 30;
  rb_opts.initial_backoff = Duration::Seconds(1);
  rb_opts.backoff_multiplier = 1.0;
  auto drill_client =
      bindings.Bind<svc::SettopManagerProxy>("svc/drill", rb_opts);

  auto call_through = [&](const char* label) {
    bool ok = false;
    drill_client.Call<std::vector<uint8_t>>(
        [&](const svc::SettopManagerProxy& proxy) {
          return proxy.GetStatus({client.host()});
        },
        [&](Result<std::vector<uint8_t>> r) { ok = r.ok(); });
    cluster.RunFor(Duration::Seconds(40));
    const rpc::BindingTable::Entry* drill = bindings.Find("svc/drill");
    uint32_t host = drill->fetched ? drill->ref.endpoint.host : 0;
    ITV_LOG(Info) << StrFormat(
        "%s: call %s (served by server %u.%u.%u.%u, rebinds so far: %llu)",
        label, ok ? "OK" : "FAILED", host >> 24, (host >> 16) & 0xff,
        (host >> 8) & 0xff, host & 0xff,
        static_cast<unsigned long long>(drill->rebinds));
  };

  call_through("baseline");

  // --- Drill 1: service crash -> SSC restart, invisible to the client -----------
  say("DRILL 1: killing the drill service process (the paper's debugging "
      "workflow)...");
  sim::Process* drilld = harness.server(1).FindProcessByName("drilld");
  if (drilld == nullptr) {
    drilld = harness.server(2).FindProcessByName("drilld");
  }
  drilld->node().Kill(drilld->pid());
  cluster.RunFor(Duration::Seconds(30));
  say(StrFormat("SSC restart count for drilld: %u (restarted automatically)",
                harness.SscOn(1) != nullptr ? harness.SscOn(1)->restarts_of("drilld")
                                            : 0));
  call_through("after service crash");

  // --- Drill 2: whole-server crash -> backup takes over --------------------------
  auto primary = nc.Resolve("svc/drill");
  cluster.RunFor(Duration::Seconds(2));
  uint32_t primary_host = primary.is_ready() && primary.result().ok()
                              ? primary.result()->endpoint.host
                              : harness.HostOf(1);
  size_t crash_index = primary_host == harness.HostOf(1) ? 1 : 2;
  say(StrFormat("DRILL 2: CRASHING server %zu (hosts the drill primary)...",
                crash_index + 1));
  harness.server(crash_index).Crash();
  cluster.RunFor(Duration::Seconds(40));
  call_through("after server crash");

  // --- Drill 3: server recovery -> CSC repopulates -------------------------------
  say("DRILL 3: restarting the crashed server; init restarts its SSC; the "
      "CSC repopulates it...");
  harness.server(crash_index).Restart();
  harness.StartSsc(crash_index);
  cluster.RunFor(Duration::Seconds(15));
  say(StrFormat("server %zu now runs %zu processes again (nsd/rasd/drilld...)",
                crash_index + 1, harness.server(crash_index).process_count()));
  call_through("after recovery");

  say("drill complete.");
  return 0;
}
