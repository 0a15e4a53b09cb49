// Playing a movie, end to end, with a mid-stream server failure — the
// paper's Sections 3.4 and 3.5.2 as a narrated timeline on the simulated
// Orlando cluster.
//
// Watch for:
//   - the boot chain (boot params -> kernel -> name service address),
//   - the Figure-4 open pipeline (MMS -> cmgr -> MDS -> movie object),
//   - the MDS process being killed mid-play: the settop notices the stream
//     go quiet, closes, reopens through the MMS, and resumes *at the same
//     position* on the other server's replica.

#include <cstdio>

#include "src/common/logging.h"
#include "src/media/factories.h"
#include "src/settop/app_manager.h"
#include "src/settop/vod_app.h"
#include "src/svc/harness.h"

using namespace itv;

int main() {
  // The logger prefixes every line with sim-time and (for service code) the
  // emitting node/process, so the narration interleaves with service logs on
  // one consistent timeline — no hand-formatted timestamps needed.
  SetMinLogLevel(LogLevel::kInfo);
  svc::HarnessOptions opts;
  opts.server_count = 2;
  opts.neighborhood_count = 2;
  svc::ClusterHarness harness(opts);
  sim::Cluster& cluster = harness.cluster();
  auto say = [&](const std::string& what) { ITV_LOG(Info) << what; };

  media::MediaDeployment deploy;
  deploy.movies = {
      {media::MovieInfo{"T2", 3'000'000, int64_t{3'000'000} / 8 * 7200}, {0, 1}},
  };
  deploy.rds_items = {{"vod", 2'000'000}, {"vod.cover", 50'000},
                      {"navigator", 1'000'000}};
  media::RegisterMediaServices(harness, deploy);

  say("booting the cluster: SSCs start the base services; the name service");
  say("elects a master; the CSC reads placement from the database and starts");
  say("the media stack (MDS/MMS/RDS/cmgr/boot broadcast)...");
  harness.Boot();
  cluster.RunFor(Duration::Seconds(10));
  say("cluster up.");

  sim::Node& settop_node = harness.AddSettop(1);
  sim::Process& settop = settop_node.Spawn("am");
  settop::AppManager::Options am_opts;
  am_opts.boot_server_host = harness.ServerHostForNeighborhood(1);
  am_opts.cover_item = "vod.cover";
  auto* am = settop.Emplace<settop::AppManager>(settop.runtime(),
                                                settop.executor(), am_opts,
                                                &harness.metrics());
  bool booted = false;
  am->Boot([&](Status s) { booted = s.ok(); });
  cluster.RunFor(Duration::Seconds(8));
  say(StrFormat("settop booted in %s (carousel wait + kernel download); "
                "name service = %u.%u.x.x",
                am->last_boot_duration().ToString().c_str(),
                am->boot_params().ns_replicas.front() >> 24,
                (am->boot_params().ns_replicas.front() >> 16) & 0xff));

  am->StartApp(
      "vod", [&](Status) {}, [&] { say("cover on screen (viewer sees a response)"); });
  cluster.RunFor(Duration::Seconds(5));
  say(StrFormat("vod application downloaded and started in %s "
                "(cover was up in %s)",
                am->last_app_start_latency().ToString().c_str(),
                am->last_cover_latency().ToString().c_str()));

  auto* vod = settop.Emplace<settop::VodApp>(settop.runtime(), settop.executor(),
                                             am->name_client(),
                                             settop::VodApp::Options{},
                                             &harness.metrics());
  say("opening \"T2\" through the MMS (resolve mms -> cmgr allocate -> MDS "
      "open -> movie->play)...");
  vod->PlayMovie("T2", [&](Status s) {
    say("playback finished: " + s.ToString());
  });
  cluster.RunFor(Duration::Seconds(15));
  uint32_t serving = vod->mds_host();
  say(StrFormat("streaming from server %u.%u.%u.%u, position %lld bytes",
                serving >> 24, (serving >> 16) & 0xff, (serving >> 8) & 0xff,
                serving & 0xff,
                static_cast<long long>(vod->position_bytes())));

  // Kill the serving MDS (paper Section 3.5.2).
  size_t serving_index = serving == harness.HostOf(0) ? 0 : 1;
  say(StrFormat("KILLING the MDS process on server %zu mid-stream...",
                serving_index + 1));
  sim::Process* mdsd = harness.server(serving_index).FindProcessByName("mdsd");
  harness.server(serving_index).Kill(mdsd->pid());

  cluster.RunFor(Duration::Seconds(15));
  say(StrFormat(
      "recovered: stream gap detected, movie reopened via MMS (%u reopen), "
      "now streaming from server %u.%u.%u.%u at position %lld",
      vod->reopen_count(), vod->mds_host() >> 24, (vod->mds_host() >> 16) & 0xff,
      (vod->mds_host() >> 8) & 0xff, vod->mds_host() & 0xff,
      static_cast<long long>(vod->position_bytes())));

  say("viewer presses stop; MMS reclaims the MDS stream and the ATM "
      "bandwidth...");
  vod->Stop();
  cluster.RunFor(Duration::Seconds(5));
  say(StrFormat("done. cluster metrics: opens=%llu closes=%llu "
                "stream_failures=%llu cmgr_allocs=%llu cmgr_releases=%llu",
                static_cast<unsigned long long>(harness.metrics().Get("mms.open_ok")),
                static_cast<unsigned long long>(harness.metrics().Get("mms.close")),
                static_cast<unsigned long long>(
                    harness.metrics().Get("vod.stream_failure")),
                static_cast<unsigned long long>(harness.metrics().Get("cmgr.allocated")),
                static_cast<unsigned long long>(harness.metrics().Get("cmgr.released"))));
  return 0;
}
