// Telemetry dump tool: runs a scripted fail-over chaos scenario with tracing
// enabled, then writes both sides of the cluster's telemetry —
//
//   trace.json    Chrome trace-event document (chrome://tracing, Perfetto)
//   metrics.json  every counter/gauge/histogram (Metrics::DumpJson)
//
// — and self-validates both documents before exiting, so CI can archive them
// as artifacts knowing they load in external viewers. Exit status is nonzero
// if the scenario failed to produce a complete fail-over timeline or either
// document fails validation.
//
// Usage: trace_chaos_dump [trace.json [metrics.json]]

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/common/trace.h"
#include "src/naming/name_client.h"
#include "src/svc/harness.h"
#include "src/svc/settop_manager.h"

using namespace itv;

namespace {

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  out.close();
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_path = argc > 1 ? argv[1] : "trace.json";
  const std::string metrics_path = argc > 2 ? argv[2] : "metrics.json";

  // The paper-default fail-over scenario (Section 9.7): primary/backup pair,
  // 10 s bind retry, 10 s name-service audit, 5 s RAS peer poll; crash the
  // primary's server and let the cluster recover.
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
  spawn_replica(1);
  harness.cluster().RunFor(Duration::Seconds(2));
  spawn_replica(2);
  harness.cluster().RunFor(Duration::Seconds(12));

  Time crash_at = harness.cluster().Now();
  std::printf("crashing server 2 at t=%s\n", crash_at.ToString().c_str());
  harness.server(1).Crash();
  harness.cluster().RunFor(Duration::Seconds(45));

  // Reconstruct and report the fail-over decomposition.
  std::vector<trace::TraceEvent> events =
      harness.cluster().trace_buffer().Snapshot();
  trace::FailoverTimeline timeline =
      trace::FailoverTimeline::Reconstruct(events, crash_at, "svc/target");
  std::printf("%s", timeline.Report().c_str());
  if (!timeline.complete()) {
    std::fprintf(stderr,
                 "FAIL: trace buffer did not yield a complete fail-over "
                 "timeline\n");
    return 1;
  }

  // Export + self-validate both telemetry documents.
  std::string error;
  std::string trace_json =
      trace::ChromeTraceJson(harness.cluster().trace_buffer());
  if (!trace::ValidateChromeTrace(trace_json, &error)) {
    std::fprintf(stderr, "FAIL: trace JSON invalid: %s\n", error.c_str());
    return 1;
  }
  std::string metrics_json = harness.metrics().DumpJson();
  if (!json::ValidateSyntax(metrics_json, &error)) {
    std::fprintf(stderr, "FAIL: metrics JSON invalid: %s\n", error.c_str());
    return 1;
  }
  if (!WriteFile(trace_path, trace_json) ||
      !WriteFile(metrics_path, metrics_json)) {
    std::fprintf(stderr, "FAIL: could not write output files\n");
    return 1;
  }

  const trace::TraceBuffer& buffer = harness.cluster().trace_buffer();
  std::printf(
      "wrote %s (%zu events, %llu recorded, %llu dropped) and %s (%zu bytes)\n",
      trace_path.c_str(), buffer.size(),
      static_cast<unsigned long long>(buffer.recorded()),
      static_cast<unsigned long long>(buffer.dropped()), metrics_path.c_str(),
      metrics_json.size());
  return 0;
}
