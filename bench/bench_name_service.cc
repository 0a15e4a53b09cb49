// Experiment E6 — Name service replication costs (paper Section 4.6).
//
// "Once a master is elected, all updates are forwarded to the master, which
//  serializes them and multicasts them to the slaves. Any name service
//  replica can process a resolve or list operation without contacting the
//  master... Scalability is improved because any server can process a name
//  lookup locally... requiring all updates to be serialized through the
//  master should not impact the scalability of our system."
//
// Harness: sweep replica count; measure (a) resolve latency against a LOCAL
// replica — flat regardless of replica count, with aggregate lookup capacity
// growing with replicas; (b) bind (update) latency through a slave — pays
// the forward hop; (c) wire messages per update — grows with the replica
// count (the master's multicast), the deliberate cost of hot-standby naming.
//
// Then (d) write cost vs name-space size: bind 1k, 10k and 50k names into one
// context on 3 replicas. Every replica applies every update, so the process
// CPU time of the bind phase divided by names x replicas is the cost of one
// applied update on one replica. It must stay flat as the name space grows:
// an update that walks the whole tree makes it grow linearly, and the set-up
// time quadratically.
//
// Writes a "bench_name_service" section to the merged report (BENCH.json).

#include <chrono>
#include <cstdio>
#include <ctime>
#include <vector>

#include "bench/bench_report.h"
#include "bench/bench_util.h"
#include "src/naming/name_client.h"
#include "src/svc/harness.h"

namespace itv {
namespace {

struct Row {
  size_t replicas;
  double resolve_local_ms;
  double resolve_p99_ms;
  double bind_via_slave_ms;
  double bind_p99_ms;
  double msgs_per_update;
  double msgs_per_resolve;
};

Row Measure(size_t replicas) {
  svc::HarnessOptions opts;
  opts.server_count = replicas;
  opts.start_csc = false;
  svc::ClusterHarness harness(opts);
  harness.Boot();
  sim::Cluster& cluster = harness.cluster();

  // A client on the LAST server (a slave unless it won the election).
  sim::Process& client = harness.SpawnProcessOn(replicas - 1, "client");
  naming::NameClient nc = harness.ClientFor(client);

  // Seed a binding to resolve.
  wire::ObjectRef target;
  target.endpoint = {harness.HostOf(0), 9999};
  target.incarnation = 42;
  target.type_id = 7;
  target.object_id = 1;
  (void)bench::WaitOn(cluster, nc.Bind("svc/seed", target));

  constexpr int kOps = 200;

  // Runs one async op, recording its exact virtual-time latency via the
  // completion callback (coarse stepping would quantize it).
  auto timed = [&cluster](auto make_future, Histogram* out_ms) {
    Time t0 = cluster.Now();
    Time t1 = t0;
    bool done = false;
    make_future().OnReady([&](const Result<void>& r) {
      t1 = cluster.Now();
      done = r.ok();
    });
    for (int step = 0; step < 5000 && !done; ++step) {
      cluster.RunFor(Duration::Millis(1));
    }
    if (done) {
      out_ms->Record((t1 - t0).seconds() * 1000.0);
    }
  };

  // (a) Local resolve latency + message cost.
  Histogram resolve_ms;
  uint64_t msgs_before = harness.metrics().Get("net.msg.total");
  for (int i = 0; i < kOps; ++i) {
    timed(
        [&] {
          Promise<void> p;
          nc.Resolve("svc/seed").OnReady([p](const Result<wire::ObjectRef>& r) mutable {
            p.Set(r.ok() ? Result<void>() : Result<void>(r.status()));
          });
          return p.future();
        },
        &resolve_ms);
  }
  double msgs_per_resolve =
      static_cast<double>(harness.metrics().Get("net.msg.total") - msgs_before) /
      kOps;

  // (b) Bind latency through this (likely slave) replica + multicast cost.
  Histogram bind_ms;
  msgs_before = harness.metrics().Get("net.msg.total");
  for (int i = 0; i < kOps; ++i) {
    wire::ObjectRef ref = target;
    ref.object_id = static_cast<uint64_t>(i) + 100;
    std::string name = "svc/b" + std::to_string(i);
    timed([&] { return nc.Bind(name, ref); }, &bind_ms);
  }
  double msgs_per_update =
      static_cast<double>(harness.metrics().Get("net.msg.total") - msgs_before) /
      kOps;

  return Row{replicas,        resolve_ms.Percentile(50),
             resolve_ms.Percentile(99), bind_ms.Percentile(50),
             bind_ms.Percentile(99),    msgs_per_update,
             msgs_per_resolve};
}

struct WriteCostRow {
  size_t names;
  double setup_s;            // Wall clock to bind every name.
  double cpu_us_per_update;  // Process CPU per applied update per replica.
  double msgs_per_update;
};

WriteCostRow MeasureWriteCost(size_t names) {
  constexpr size_t kReplicas = 3;
  constexpr size_t kInFlight = 64;
  svc::HarnessOptions opts;
  opts.server_count = kReplicas;
  opts.start_csc = false;
  svc::ClusterHarness harness(opts);
  harness.Boot();
  sim::Cluster& cluster = harness.cluster();
  sim::Process& client = harness.SpawnProcessOn(kReplicas - 1, "client");
  naming::NameClient nc = harness.ClientFor(client);
  ITV_CHECK(bench::WaitOn(cluster, nc.BindNewContext("svc/e6")).ok());

  // Bound objects are the client itself, so an audit sweep finds them alive.
  wire::ObjectRef ref;
  ref.endpoint = client.runtime().local_endpoint();
  ref.incarnation = client.runtime().incarnation();
  ref.type_id = 7;

  uint64_t msgs_before = harness.metrics().Get("net.msg.total");
  std::clock_t cpu_start = std::clock();
  auto wall_start = std::chrono::steady_clock::now();
  size_t issued = 0;
  size_t done = 0;
  size_t failed = 0;
  while (done < names) {
    for (; issued < names && issued - done < kInFlight; ++issued) {
      ref.object_id = issued + 1;
      nc.Bind("svc/e6/n" + std::to_string(issued), ref)
          .OnReady([&](const Result<void>& r) {
            ++done;
            failed += r.ok() ? 0 : 1;
          });
    }
    cluster.RunFor(Duration::Millis(1));
  }
  double setup_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  double cpu_us = static_cast<double>(std::clock() - cpu_start) * 1e6 /
                  CLOCKS_PER_SEC;
  uint64_t msgs = harness.metrics().Get("net.msg.total") - msgs_before;

  ITV_CHECK(failed == 0) << failed << " of " << names << " binds failed";
  cluster.RunFor(Duration::Seconds(1));  // Let the last multicasts land.
  std::vector<naming::NameServer*> replicas = harness.LiveNameServers();
  ITV_CHECK(replicas.size() == kReplicas);
  for (naming::NameServer* ns : replicas) {
    auto listed = ns->tree().List(SplitPath("svc/e6"));
    ITV_CHECK(listed.ok() && listed->size() == names)
        << "a replica is missing binds";
  }
  return WriteCostRow{
      names, setup_s,
      cpu_us / static_cast<double>(names * kReplicas),
      static_cast<double>(msgs) / static_cast<double>(names)};
}

}  // namespace
}  // namespace itv

int main() {
  using namespace itv;
  bench::PrintHeader(
      "E6: name service — local reads vs master-serialized updates (paper 4.6)");
  std::printf(
      "clients talk to the replica on their own server; binds are forwarded "
      "to the master\nand multicast to every slave.\n\n");
  bench::PrintRow({"replicas", "resolve_p50_ms", "resolve_p99_ms",
                   "bind_p50_ms", "bind_p99_ms", "msgs/resolve",
                   "msgs/update"});
  bench::ReportSection report("bench_name_service");
  for (size_t replicas : {1, 2, 3, 5, 8}) {
    Row row = Measure(replicas);
    std::string prefix = "replicas_" + std::to_string(replicas) + "_";
    report.Set(prefix + "bind_p50_ms", row.bind_via_slave_ms);
    report.Set(prefix + "msgs_per_resolve", row.msgs_per_resolve);
    report.Set(prefix + "msgs_per_update", row.msgs_per_update);
    bench::PrintRow({bench::FmtInt(row.replicas),
                     bench::Fmt("%.3f", row.resolve_local_ms),
                     bench::Fmt("%.3f", row.resolve_p99_ms),
                     bench::Fmt("%.3f", row.bind_via_slave_ms),
                     bench::Fmt("%.3f", row.bind_p99_ms),
                     bench::Fmt("%.1f", row.msgs_per_resolve),
                     bench::Fmt("%.1f", row.msgs_per_update)});
  }
  std::printf(
      "\nexpect: resolve latency and msgs/resolve flat (~2: request+reply to "
      "the local\nreplica) regardless of replica count => aggregate lookup "
      "capacity grows linearly.\nbind latency adds the forward hop; "
      "msgs/update grows ~linearly with replicas\n(multicast) — fine because "
      "'updates only occur when services are started or restarted'.\n");

  std::printf(
      "\n(d) write cost vs name-space size: 3 replicas, every name bound "
      "into one context,\n64 binds in flight through a slave; cpu_us/update "
      "is per applied update per replica.\n\n");
  bench::PrintRow({"names", "setup_s", "cpu_us/update", "msgs/update"});
  std::vector<WriteCostRow> rows;
  for (size_t names : {1000, 10000, 50000}) {
    WriteCostRow row = MeasureWriteCost(names);
    rows.push_back(row);
    bench::PrintRow({bench::FmtInt(row.names), bench::Fmt("%.2f", row.setup_s),
                     bench::Fmt("%.1f", row.cpu_us_per_update),
                     bench::Fmt("%.1f", row.msgs_per_update)});
    std::string prefix = "names_" + std::to_string(names) + "_";
    report.Set(prefix + "setup_s", row.setup_s);
    report.Set(prefix + "cpu_us_per_update", row.cpu_us_per_update);
    report.Set(prefix + "msgs_per_update", row.msgs_per_update);
  }
  std::printf(
      "\nexpect: cpu_us/update flat from 1k to 50k names (an update "
      "touches only\nits own path), set-up time linear in names.\n");
  report.WriteMerged();
  // An update that walks the whole name space costs over 100x more at 50k
  // names than at 1k; noise and cache effects stay far below 4x.
  ITV_CHECK(rows.back().cpu_us_per_update < 4 * rows.front().cpu_us_per_update)
      << "name-service write cost grows with the name space";
  return 0;
}
