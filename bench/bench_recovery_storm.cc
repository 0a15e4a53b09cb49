// Experiment E7 — Recovery storms (paper Section 8.2).
//
// "The disadvantage is that it presents the possibility of recovery storms.
//  If a popular service crashes, many clients may invoke the name service at
//  once to ask for a new object. Because the resolve operation is quite
//  fast, we do not expect this to be a problem. If performance difficulties
//  arise, we can modify the library routine to back off when repeating
//  requests for a new service object."
//
// Harness: N client processes hold cached references (via the BindingTable
// client layer) to a popular service; the service restarts with a new
// incarnation; every client then fires `kCallsPerClient` concurrent calls
// at the same instant. All calls fail with UNAVAILABLE and want to
// re-resolve simultaneously. We measure the storm's size at the name
// service, the recovery-latency distribution, the time until every client
// has recovered — and how the layer's single-flight coalescing keeps
// resolves at O(processes) instead of O(in-flight calls), which the
// rebind.count / rebind.coalesced metrics make visible.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/naming/name_client.h"
#include "src/rpc/binding_table.h"
#include "src/svc/harness.h"
#include "src/svc/settop_manager.h"

namespace itv {
namespace {

constexpr int kCallsPerClient = 4;

struct StormResult {
  size_t clients;
  size_t recovered;  // Calls that completed OK (clients * kCallsPerClient).
  double p50_ms;
  double p99_ms;
  double all_recovered_s;
  uint64_t resolves;   // ns.resolve at the name service during the storm.
  uint64_t rebinds;    // rebind.count: lookups the binding layer issued.
  uint64_t coalesced;  // rebind.coalesced: calls that piggybacked.
};

StormResult RunStorm(size_t clients) {
  svc::HarnessOptions opts;
  opts.server_count = 2;
  opts.start_csc = false;
  svc::ClusterHarness harness(opts);
  harness.Boot();
  sim::Cluster& cluster = harness.cluster();

  // The popular service on server 2 (SettopManagerService doubles as a
  // generic pingable servant).
  auto spawn_service = [&]() -> wire::ObjectRef {
    sim::Process& p = harness.SpawnProcessOn(1, "popular");
    auto* skeleton = p.Emplace<svc::SettopManagerService>(p.executor());
    wire::ObjectRef ref = p.runtime().Export(skeleton);
    svc::SscProxy ssc(p.runtime(), svc::SscRefAt(p.host()));
    ssc.NotifyReady(p.pid(), {ref}).OnReady([](const Result<void>&) {});
    return ref;
  };
  wire::ObjectRef ref_v1 = spawn_service();
  sim::Process& setup = harness.SpawnProcessOn(0, "setup");
  (void)bench::WaitOn(cluster, harness.ClientFor(setup).Bind("svc/popular", ref_v1));

  // N clients, each with a BindingTable whose "svc/popular" binding is
  // primed to the current reference — the steady-state posture of a settop
  // fleet before the crash.
  struct Client {
    sim::Process* process;
    rpc::BindingTable* table;
    int recovered = 0;
    Time recovered_at;
  };
  std::vector<Client> all;
  all.reserve(clients);
  rpc::BindingOptions rb_opts;
  rb_opts.max_attempts = 6;
  rb_opts.initial_backoff = Duration::Millis(100);
  rb_opts.backoff_jitter = 0.25;
  for (size_t i = 0; i < clients; ++i) {
    sim::Node& settop = harness.AddSettop(static_cast<uint8_t>(1 + (i % 2)));
    sim::Process& p = settop.Spawn("client");
    auto* table = p.Emplace<rpc::BindingTable>(
        p.runtime(), harness.ClientFor(p).PathResolverFn());
    table->Prime("svc/popular", ref_v1);
    all.push_back(Client{&p, table, 0, Time()});
  }

  // Kill + restart the service; rebind the new incarnation.
  harness.server(1).Kill(harness.server(1).FindProcessByName("popular")->pid());
  cluster.RunFor(Duration::Millis(200));
  wire::ObjectRef ref_v2 = spawn_service();
  (void)bench::WaitOn(cluster, harness.ClientFor(setup).Unbind("svc/popular"));
  (void)bench::WaitOn(cluster, harness.ClientFor(setup).Bind("svc/popular", ref_v2));

  uint64_t resolves_before = harness.metrics().Get("ns.resolve");
  uint64_t rebinds_before = harness.metrics().Get("rebind.count");
  uint64_t coalesced_before = harness.metrics().Get("rebind.coalesced");

  // The storm: every client fires all its calls at the same virtual instant.
  Time storm_start = cluster.Now();
  for (Client& c : all) {
    auto mgr = c.table->Bind<svc::SettopManagerProxy>("svc/popular", rb_opts);
    for (int call = 0; call < kCallsPerClient; ++call) {
      sim::Process* p = c.process;
      Client* self = &c;
      sim::Cluster* cl = &cluster;
      mgr.Call<void>(
          [p](const svc::SettopManagerProxy& proxy) {
            return proxy.Heartbeat(p->host());
          },
          [self, cl](Result<void> r) {
            if (r.ok()) {
              ++self->recovered;
              self->recovered_at = cl->Now();
            }
          });
    }
  }
  cluster.RunFor(Duration::Seconds(30));

  StormResult result{};
  result.clients = clients;
  Histogram latency_ms;
  Time last;
  for (const Client& c : all) {
    result.recovered += c.recovered;
    if (c.recovered == 0) {
      continue;
    }
    latency_ms.Record((c.recovered_at - storm_start).seconds() * 1000.0);
    if (c.recovered_at > last) {
      last = c.recovered_at;
    }
  }
  result.p50_ms = latency_ms.Percentile(50);
  result.p99_ms = latency_ms.Percentile(99);
  result.all_recovered_s = (last - storm_start).seconds();
  result.resolves = harness.metrics().Get("ns.resolve") - resolves_before;
  result.rebinds = harness.metrics().Get("rebind.count") - rebinds_before;
  result.coalesced = harness.metrics().Get("rebind.coalesced") - coalesced_before;
  return result;
}

}  // namespace
}  // namespace itv

int main() {
  using namespace itv;
  bench::PrintHeader(
      "E7: recovery storm after a popular service crashes (paper 8.2)");
  std::printf(
      "N clients with primed bindings each fire %d concurrent calls after a "
      "restart; every call\ngets UNAVAILABLE. Single-flight folds each "
      "process's re-resolves into one jittered lookup,\nso 'resolves' tracks "
      "clients, not calls (= clients x %d).\n\n",
      kCallsPerClient, kCallsPerClient);
  bench::PrintRow({"clients", "calls_ok", "p50_ms", "p99_ms", "all_done_s",
                   "resolves", "rebinds", "coalesced"});
  for (size_t clients : {100, 500, 1000, 4000}) {
    StormResult r = RunStorm(clients);
    bench::PrintRow({bench::FmtInt(r.clients), bench::FmtInt(r.recovered),
                     bench::Fmt("%.1f", r.p50_ms), bench::Fmt("%.1f", r.p99_ms),
                     bench::Fmt("%.2f", r.all_recovered_s),
                     bench::FmtInt(r.resolves), bench::FmtInt(r.rebinds),
                     bench::FmtInt(r.coalesced)});
  }
  std::printf(
      "\nexpect: every call recovers with ~1 resolve per CLIENT (coalesced "
      "covers the rest),\nand the storm drains in well under a second of "
      "cluster time — the backoff escalation\nthe paper holds in reserve, "
      "plus the coalescing it hints at, built into the library.\n");
  return 0;
}
