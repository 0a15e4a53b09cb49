// End-to-end media stack tests: the paper's "playing a movie" walkthrough
// (Section 3.4) and all three failure scenarios (Section 3.5).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/media/factories.h"
#include "src/naming/stubs.h"
#include "src/settop/app_manager.h"
#include "src/settop/vod_app.h"
#include "src/svc/harness.h"
#include "src/svc/settop_manager.h"
#include "src/svc/csc.h"
#include "src/svc/ssc.h"
#include "src/wire/shard_map.h"

namespace itv::media {
namespace {

class MediaTest : public ::testing::Test {
 protected:
  MediaTest() : MediaTest(DefaultDeployment()) {}
  explicit MediaTest(const MediaDeployment& deploy,
                     const svc::HarnessOptions& options = MakeHarnessOptions())
      : harness_(options) {
    RegisterMediaServices(harness_, deploy);
    harness_.Boot();
    // Let the CSC place and start the media services.
    cluster().RunFor(Duration::Seconds(10));
  }

  static MediaDeployment DefaultDeployment() {
    MediaDeployment deploy;
    // "T2" on both servers; "solo" only on server 2; "short" (15 s) on both.
    deploy.movies = {
        {MovieInfo{"T2", 3'000'000, MovieBytes(3'000'000, 3600)}, {0, 1}},
        {MovieInfo{"solo", 3'000'000, MovieBytes(3'000'000, 3600)}, {1}},
        {MovieInfo{"short", 3'000'000, MovieBytes(3'000'000, 15)}, {0, 1}},
    };
    deploy.rds_items = {
        {"navigator", 1'000'000},
        {"vod", 2'000'000},
        {"vod.cover", 50'000},
    };
    deploy.kernel_size_bytes = 2'000'000;
    deploy.boot_channel_bps = 8'000'000;
    return deploy;
  }

  static int64_t MovieBytes(int64_t bitrate_bps, int64_t seconds) {
    return bitrate_bps / 8 * seconds;
  }

  static svc::HarnessOptions MakeHarnessOptions() {
    svc::HarnessOptions opts;
    opts.server_count = 2;
    opts.neighborhood_count = 2;
    return opts;
  }

  sim::Cluster& cluster() { return harness_.cluster(); }
  Metrics& metrics() { return harness_.metrics(); }

  struct TestSettop {
    sim::Node* node = nullptr;
    sim::Process* process = nullptr;
    settop::AppManager* am = nullptr;
    settop::VodApp* vod = nullptr;
  };

  TestSettop MakeSettop(uint8_t neighborhood, bool with_cover = false) {
    TestSettop s = BootSettop(neighborhood, with_cover);
    settop::VodApp::Options vod_opts;
    s.vod = s.process->Emplace<settop::VodApp>(
        s.process->runtime(), s.process->executor(), s.am->name_client(),
        vod_opts, &metrics());
    return s;
  }

  // The MMS replica that is not `primary`. It is bound nowhere; its host's
  // SSC lists it.
  wire::ObjectRef BackupMmsRef(sim::Process& probe,
                               const wire::ObjectRef& primary) {
    uint32_t backup_host = harness_.HostOf(0) == primary.endpoint.host
                               ? harness_.HostOf(1)
                               : harness_.HostOf(0);
    auto objects = svc::SscProxy(probe.runtime(), svc::SscRefAt(backup_host))
                       .ListObjects();
    cluster().RunFor(Duration::Seconds(1));
    wire::ObjectRef backup;
    if (objects.is_ready() && objects.result().ok()) {
      for (const wire::ObjectRef& ref : *objects.result()) {
        if (ref.type_id == wire::TypeIdFromName(kMmsInterface)) {
          backup = ref;
        }
      }
    }
    return backup;
  }

  // A settop whose application manager has booted, with no VodApp yet.
  TestSettop BootSettop(uint8_t neighborhood, bool with_cover = false) {
    TestSettop s;
    s.node = &harness_.AddSettop(neighborhood);
    s.process = &s.node->Spawn("am");
    settop::AppManager::Options opts;
    opts.boot_server_host = harness_.ServerHostForNeighborhood(neighborhood);
    if (with_cover) {
      opts.cover_item = "vod.cover";
    }
    s.am = s.process->Emplace<settop::AppManager>(
        s.process->runtime(), s.process->executor(), opts, &metrics());
    bool booted = false;
    s.am->Boot([&](Status st) { booted = st.ok(); });
    cluster().RunFor(Duration::Seconds(8));
    EXPECT_TRUE(booted);
    return s;
  }

  Result<MdsLoad> LoadOfMds(size_t server_index) {
    sim::Process& client = harness_.SpawnProcessOn(0, "loadprobe");
    auto ref =
        harness_.ClientFor(client).Resolve("svc/mds/" +
                                           std::to_string(server_index + 1));
    cluster().RunFor(Duration::Seconds(2));
    if (!ref.is_ready() || !ref.result().ok()) {
      return NotFoundError("mds not resolvable");
    }
    auto sync = MdsProxy(client.runtime(), ref.result().value()).Sync();
    cluster().RunFor(Duration::Seconds(1));
    if (!sync.is_ready()) {
      return DeadlineExceededError("no sync reply");
    }
    if (!sync.result().ok()) {
      return sync.result().status();
    }
    return sync.result()->load;
  }

  // The endpoints of every server process named `name`.
  std::vector<wire::Endpoint> EndpointsOf(const std::string& name) {
    std::vector<wire::Endpoint> out;
    for (size_t i = 0; i < harness_.server_count(); ++i) {
      if (sim::Process* p = harness_.server(i).FindProcessByName(name)) {
        out.push_back(p->endpoint());
      }
    }
    return out;
  }
  static bool IsOneOf(const std::vector<wire::Endpoint>& set,
                      const wire::Endpoint& e) {
    return std::find(set.begin(), set.end(), e) != set.end();
  }

  // The bandwidth the trunk replica on the server at `server_index` holds.
  Result<int64_t> TrunkReservedBps(size_t server_index) {
    sim::Process& client = harness_.SpawnProcessOn(0, "trunkprobe");
    auto ref = harness_.ClientFor(client).Resolve(
        TrunkName(harness_.HostOf(server_index)));
    cluster().RunFor(Duration::Seconds(2));
    if (!ref.is_ready() || !ref.result().ok()) {
      return NotFoundError("trunk not resolvable");
    }
    auto usage = TrunkProxy(client.runtime(), ref.result().value()).Usage();
    cluster().RunFor(Duration::Seconds(1));
    if (!usage.is_ready()) {
      return DeadlineExceededError("no usage reply");
    }
    if (!usage.result().ok()) {
      return usage.result().status();
    }
    return usage.result()->reserved_bps;
  }

  Result<std::vector<ConnectionGrant>> GrantsOf(uint8_t neighborhood) {
    sim::Process& client = harness_.SpawnProcessOn(0, "cmgrprobe");
    auto ref = harness_.ClientFor(client).Resolve(CmgrName(neighborhood));
    cluster().RunFor(Duration::Seconds(2));
    if (!ref.is_ready() || !ref.result().ok()) {
      return NotFoundError("cmgr not resolvable");
    }
    auto grants =
        CmgrProxy(client.runtime(), ref.result().value()).ListConnections();
    cluster().RunFor(Duration::Seconds(1));
    if (!grants.is_ready()) {
      return DeadlineExceededError("no list reply");
    }
    return grants.result();
  }

  // Drops the first routed message `match` accepts, and only that one: the
  // next message routed clears the drop. Returns whether it has dropped.
  using MessageMatch = std::function<bool(
      const wire::Endpoint& src, const wire::Endpoint& dst,
      const wire::Message& msg)>;
  std::shared_ptr<const bool> DropFirstMessage(MessageMatch match) {
    auto dropped = std::make_shared<bool>(false);
    auto clear_next = std::make_shared<bool>(false);
    sim::Network& net = cluster().network();
    net.SetTap([&net, match, dropped, clear_next](const wire::Endpoint& src,
                                                  const wire::Endpoint& dst,
                                                  const wire::Message& msg) {
      if (*clear_next) {
        net.ClearFaultInjection();
        *clear_next = false;
      }
      if (!*dropped && match(src, dst, msg)) {
        sim::NetworkFaultOptions drop;
        drop.drop_rate = 1.0;
        net.SetFaultInjection(drop);
        *dropped = true;
        *clear_next = true;
      }
    });
    return dropped;
  }

  svc::ClusterHarness harness_;
};

TEST_F(MediaTest, MediaStackComesUp) {
  sim::Process& client = harness_.SpawnProcessOn(0, "client");
  naming::NameClient nc = harness_.ClientFor(client);
  for (const char* path : {"svc/mms", "svc/mds/1", "svc/mds/2", "svc/rds/1",
                           "svc/cmgr/1", "svc/cmgr/2"}) {
    auto f = nc.Resolve(path);
    cluster().RunFor(Duration::Seconds(2));
    ASSERT_TRUE(f.is_ready() && f.result().ok())
        << path << ": " << (f.is_ready() ? f.result().status().ToString() : "pending");
  }
}

TEST_F(MediaTest, NoServiceProbesTheMdsSelector) {
  // svc/mds is a replicated context whose builtin selector binding is a
  // null-endpoint pseudo-ref, not a replica: the MMS's directory refresh and
  // session rebuild must not send it requests (each would time out and
  // report a stale target). The trunk's grant audit names its own server's
  // replica and never lists the context.
  size_t null_requests = 0;
  cluster().network().SetTap(
      [&null_requests](const wire::Endpoint&, const wire::Endpoint& dst,
                       const wire::Message& msg) {
        null_requests += msg.kind == wire::MsgKind::kRequest && dst.is_null();
      });
  cluster().RunFor(Duration::Seconds(15));  // Three refresh ticks.
  cluster().network().SetTap(nullptr);
  EXPECT_EQ(null_requests, 0u);
}

TEST_F(MediaTest, MmsNeverReadsACmgrShardMap) {
  // Each neighborhood has one Connection Manager at svc/cmgr/<nb>: the MMS
  // binds it by name and never looks for a "svc/cmgr/<nb>/.shards" map.
  const uint64_t naming_type =
      wire::TypeIdFromName(naming::kNamingContextInterface);
  size_t resolves = 0;
  std::vector<std::string> cmgr_map_reads;
  cluster().network().SetTap([&](const wire::Endpoint&, const wire::Endpoint&,
                                 const wire::Message& msg) {
    naming::Name name;
    if (msg.kind != wire::MsgKind::kRequest || msg.type_id != naming_type ||
        msg.method_id != naming::kNcMethodResolve || msg.auth.encrypted ||
        !rpc::DecodeArgs(msg.payload, &name) || name.empty()) {
      return;
    }
    ++resolves;
    std::string path;
    for (const std::string& part : name) {
      path += (path.empty() ? "" : "/") + part;
    }
    if (path.rfind("svc/cmgr", 0) == 0 &&
        name.back() == wire::kShardMapBindingName) {
      cmgr_map_reads.push_back(path);
    }
  });
  TestSettop a = MakeSettop(1);
  TestSettop b = MakeSettop(2);
  a.vod->PlayMovie("T2", [](Status) {});
  b.vod->PlayMovie("T2", [](Status) {});
  cluster().RunFor(Duration::Seconds(20));  // Past one binding-map max age.
  EXPECT_TRUE(a.vod->playing() && b.vod->playing());
  a.vod->Stop();
  b.vod->Stop();
  cluster().RunFor(Duration::Seconds(5));
  cluster().network().SetTap(nullptr);
  EXPECT_GT(resolves, 0u);
  EXPECT_EQ(cmgr_map_reads, std::vector<std::string>());
}

TEST_F(MediaTest, MmsSyncsEachReplicaOncePerRound) {
  // Titles, load and sessions of an MDS replica reach the MMS in one Sync
  // request per round, after one ListRepl of svc/mds. The primary runs a
  // round every refresh tick (5 s); the backup runs none, since promotion's
  // RecoverState round rebuilds everything. The load board hears from the
  // MMS primary alone: no MDS or CMgr reports.
  const std::vector<wire::Endpoint> mms = EndpointsOf("mmsd");
  const std::vector<wire::Endpoint> mds = EndpointsOf("mdsd");
  const std::vector<wire::Endpoint> board = EndpointsOf("loadboardd");
  std::vector<wire::Endpoint> board_silent = mds;
  for (const char* name : {"cmgrd-1", "cmgrd-2"}) {
    for (const wire::Endpoint& e : EndpointsOf(name)) {
      board_silent.push_back(e);
    }
  }
  ASSERT_EQ(mms.size(), 2u);
  ASSERT_EQ(mds.size(), 2u);
  ASSERT_EQ(board.size(), 2u);
  ASSERT_EQ(board_silent.size(), 6u);

  const uint64_t naming_type =
      wire::TypeIdFromName(naming::kNamingContextInterface);
  std::vector<size_t> rounds(mms.size(), 0);
  std::vector<size_t> mds_requests(mms.size(), 0);
  size_t silent_reports = 0;
  cluster().network().SetTap([&](const wire::Endpoint& src,
                                 const wire::Endpoint& dst,
                                 const wire::Message& msg) {
    if (msg.kind != wire::MsgKind::kRequest) {
      return;
    }
    for (size_t i = 0; i < mms.size(); ++i) {
      rounds[i] += src == mms[i] && msg.type_id == naming_type &&
                   msg.method_id == naming::kNcMethodListRepl;
      mds_requests[i] += src == mms[i] && IsOneOf(mds, dst);
    }
    silent_reports += IsOneOf(board_silent, src) && IsOneOf(board, dst);
  });
  cluster().RunFor(Duration::Seconds(30));
  cluster().network().SetTap(nullptr);

  std::sort(rounds.begin(), rounds.end());
  std::sort(mds_requests.begin(), mds_requests.end());
  EXPECT_EQ(rounds[0], 0u);  // Backup.
  EXPECT_EQ(rounds[1], 6u);  // Primary: 6 ticks.
  EXPECT_EQ(mds_requests[0], 0u);
  EXPECT_EQ(mds_requests[1], 6u * 2u);
  EXPECT_EQ(silent_reports, 0u);
}

TEST_F(MediaTest, SettopBootLearnsNameServiceAndHeartbeats) {
  TestSettop s = MakeSettop(2);
  EXPECT_TRUE(s.am->running());
  // Its own head-end's replica first, then the other server's.
  EXPECT_EQ(s.am->boot_params().ns_replicas,
            (std::vector<uint32_t>{harness_.ServerHostForNeighborhood(2),
                                   harness_.ServerHostForNeighborhood(1)}));
  // Boot = half carousel (1 s) + kernel transfer (2 s) plus a little RPC.
  EXPECT_GE(s.am->last_boot_duration(), Duration::Seconds(2.9));
  EXPECT_LE(s.am->last_boot_duration(), Duration::Seconds(3.5));

  // Heartbeats reach the settop manager.
  cluster().RunFor(Duration::Seconds(12));
  sim::Process& client = harness_.SpawnProcessOn(0, "probe");
  auto mgr = harness_.ClientFor(client).Resolve(
      std::string(svc::kSettopManagerName));
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(mgr.is_ready() && mgr.result().ok());
  auto count = svc::SettopManagerProxy(client.runtime(), mgr.result().value()).Count();
  cluster().RunFor(Duration::Seconds(1));
  ASSERT_TRUE(count.is_ready() && count.result().ok());
  EXPECT_GE(*count.result(), 1u);
}

TEST_F(MediaTest, AppStartupMeetsPaperBudget) {
  // Paper Section 9.3: cover within 0.5 s; rich app start-up 2-4 s at
  // ~1 MByte/s download.
  TestSettop s = MakeSettop(1, /*with_cover=*/true);
  bool cover_shown = false;
  Status app_status = InternalError("unset");
  s.am->StartApp("vod", [&](Status st) { app_status = st; },
                 [&] { cover_shown = true; });
  cluster().RunFor(Duration::Seconds(10));
  ASSERT_TRUE(app_status.ok()) << app_status;
  EXPECT_TRUE(cover_shown);
  EXPECT_LT(s.am->last_cover_latency(), Duration::Seconds(0.5));
  EXPECT_GE(s.am->last_app_start_latency(), Duration::Seconds(2.0));
  EXPECT_LE(s.am->last_app_start_latency(), Duration::Seconds(4.0));
}

TEST_F(MediaTest, PlayShortMovieToCompletion) {
  TestSettop s = MakeSettop(1);
  Status outcome = InternalError("unset");
  bool done = false;
  s.vod->PlayMovie("short", [&](Status st) {
    outcome = st;
    done = true;
  });
  cluster().RunFor(Duration::Seconds(30));
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.ok()) << outcome;
  EXPECT_GT(s.vod->chunks_received(), 10u);
  EXPECT_EQ(s.vod->reopen_count(), 0u);

  // Resources reclaimed: no active MDS streams, no cmgr connections.
  cluster().RunFor(Duration::Seconds(2));
  auto load1 = LoadOfMds(0);
  auto load2 = LoadOfMds(1);
  ASSERT_TRUE(load1.ok() && load2.ok());
  EXPECT_EQ(load1->active_streams + load2->active_streams, 0u);
  EXPECT_GE(metrics().Get("cmgr.released"), 1u);
}

TEST_F(MediaTest, ViewerStopReleasesResources) {
  TestSettop s = MakeSettop(1);
  s.vod->PlayMovie("T2", [](Status) {});
  cluster().RunFor(Duration::Seconds(10));
  ASSERT_TRUE(s.vod->playing());
  uint64_t opened = metrics().Get("mds.open");
  ASSERT_GE(opened, 1u);

  s.vod->Stop();
  cluster().RunFor(Duration::Seconds(5));
  EXPECT_EQ(metrics().Get("mds.close"), opened);
  auto load1 = LoadOfMds(0);
  auto load2 = LoadOfMds(1);
  ASSERT_TRUE(load1.ok() && load2.ok());
  EXPECT_EQ(load1->active_streams + load2->active_streams, 0u);
}

TEST_F(MediaTest, LoadSpreadsAcrossMdsReplicas) {
  std::vector<TestSettop> settops;
  for (int i = 0; i < 4; ++i) {
    settops.push_back(MakeSettop(1));
  }
  for (auto& s : settops) {
    s.vod->PlayMovie("T2", [](Status) {});
    cluster().RunFor(Duration::Seconds(6));  // Let load reports refresh.
  }
  cluster().RunFor(Duration::Seconds(5));
  auto load1 = LoadOfMds(0);
  auto load2 = LoadOfMds(1);
  ASSERT_TRUE(load1.ok() && load2.ok());
  EXPECT_GE(load1->active_streams, 1u);
  EXPECT_GE(load2->active_streams, 1u);
  EXPECT_EQ(load1->active_streams + load2->active_streams, 4u);
}

TEST_F(MediaTest, MoviePlacementRespected) {
  // "solo" lives only on server 2: every open must land there.
  TestSettop s = MakeSettop(1);
  s.vod->PlayMovie("solo", [](Status) {});
  cluster().RunFor(Duration::Seconds(10));
  ASSERT_TRUE(s.vod->playing());
  EXPECT_EQ(s.vod->mds_host(), harness_.HostOf(1));
}

TEST_F(MediaTest, SettopBandwidthCapRejectsThirdStream) {
  // 2 x 3 Mb/s fills the settop's 6 Mb/s downstream; the third open fails
  // with RESOURCE_EXHAUSTED from the Connection Manager.
  TestSettop s = MakeSettop(1);
  sim::Process& p = *s.process;
  auto mms_ref = s.am->name_client().Resolve(std::string(kMmsName));
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(mms_ref.is_ready() && mms_ref.result().ok());
  MmsProxy mms(p.runtime(), mms_ref.result().value());

  std::vector<Future<MmsTicket>> opens;
  for (int i = 0; i < 3; ++i) {
    opens.push_back(mms.Open("T2", s.node->host(), wire::ObjectRef{}, 0));
    cluster().RunFor(Duration::Seconds(2));
  }
  ASSERT_TRUE(opens[0].is_ready() && opens[0].result().ok())
      << opens[0].result().status();
  ASSERT_TRUE(opens[1].is_ready() && opens[1].result().ok())
      << opens[1].result().status();
  ASSERT_TRUE(opens[2].is_ready());
  EXPECT_TRUE(IsResourceExhausted(opens[2].result().status()))
      << opens[2].result().status();
}

TEST_F(MediaTest, QuietReplicaIsTriedLastNotExcluded) {
  // A reopen's quiet_mds only reorders the candidates: naming the less
  // loaded replica of "T2" sends the open to the other one, a fresh open
  // keeps least-loaded order, and "solo", held only by server 2, still
  // opens there when server 2 is named.
  TestSettop a = BootSettop(1);
  TestSettop b = BootSettop(1);
  auto mms_ref = a.am->name_client().Resolve(std::string(kMmsName));
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(mms_ref.is_ready() && mms_ref.result().ok());
  MmsProxy mms(a.process->runtime(), mms_ref.result().value());
  auto open_on = [&](const TestSettop& s, const std::string& title,
                     uint32_t quiet_mds) -> uint32_t {
    auto ticket = mms.Open(title, s.node->host(), wire::ObjectRef{}, quiet_mds);
    cluster().RunFor(Duration::Seconds(2));
    if (!ticket.is_ready() || !ticket.result().ok()) {
      ADD_FAILURE() << "open of " << title << " failed";
      return 0;
    }
    return ticket.result()->mds_host;
  };

  const uint32_t busy = open_on(a, "T2", 0);
  ASSERT_NE(busy, 0u);
  const uint32_t idle =
      busy == harness_.HostOf(0) ? harness_.HostOf(1) : harness_.HostOf(0);
  const uint64_t reordered = metrics().Get("mms.open_quiet_last");
  EXPECT_EQ(open_on(a, "T2", idle), busy);
  EXPECT_EQ(metrics().Get("mms.open_quiet_last"), reordered + 1);
  EXPECT_EQ(open_on(b, "T2", 0), idle);
  EXPECT_EQ(open_on(b, "solo", harness_.HostOf(1)), harness_.HostOf(1));
  EXPECT_EQ(metrics().Get("mms.open_quiet_last"), reordered + 1);
}

TEST_F(MediaTest, StreamClosedBehindTheMmsIsReclaimed) {
  // A stream can close at the MDS without this MMS closing it: a sibling
  // shard closes a session it opened before handing it off, or the MDS
  // reclaims it. The next sync round finds the stream gone and reclaims the
  // session, connection included.
  TestSettop s = MakeSettop(1);
  sim::Process& p = *s.process;
  auto mms_ref = s.am->name_client().Resolve(std::string(kMmsName));
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(mms_ref.is_ready() && mms_ref.result().ok());
  MmsProxy mms(p.runtime(), mms_ref.result().value());
  auto ticket = mms.Open("T2", s.node->host(), wire::ObjectRef{}, 0);
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(ticket.is_ready() && ticket.result().ok());

  size_t mds_index = ticket.result()->mds_host == harness_.HostOf(0) ? 1 : 2;
  auto mds_ref = s.am->name_client().Resolve("svc/mds/" +
                                             std::to_string(mds_index));
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(mds_ref.is_ready() && mds_ref.result().ok());
  auto closed = MdsProxy(p.runtime(), mds_ref.result().value())
                    .Close(ticket.result()->stream_id);
  uint64_t released = metrics().Get("cmgr.released");
  cluster().RunFor(Duration::Seconds(6));  // One refresh tick.
  ASSERT_TRUE(closed.is_ready() && closed.result().ok());

  auto left = mms.ListSessions();
  cluster().RunFor(Duration::Seconds(1));
  ASSERT_TRUE(left.is_ready() && left.result().ok());
  EXPECT_EQ(*left.result(), 0u);
  EXPECT_EQ(metrics().Get("cmgr.released"), released + 1);
}

TEST_F(MediaTest, ConnectionCountLimitContainsBuggyClient) {
  // Paper Section 7.3: "a settop client is only allowed to open a certain
  // number of network connections". A buggy client that allocates without
  // releasing hits the cap.
  TestSettop s = MakeSettop(1);
  sim::Process& probe = *s.process;
  auto cmgr_ref = s.am->name_client().Resolve("svc/cmgr/1");
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(cmgr_ref.is_ready() && cmgr_ref.result().ok());
  CmgrProxy cmgr(probe.runtime(), cmgr_ref.result().value());

  int granted = 0;
  Status last = OkStatus();
  for (int i = 0; i < 6; ++i) {
    // Tiny allocations so the bandwidth cap never triggers first.
    auto f = cmgr.Allocate(s.node->host(), harness_.HostOf(0), 1000,
                           /*allow_partial=*/false);
    cluster().RunFor(Duration::Seconds(1));
    ASSERT_TRUE(f.is_ready());
    if (f.result().ok()) {
      ++granted;
    } else {
      last = f.result().status();
    }
  }
  EXPECT_EQ(granted, 4);  // The CMgr's per-settop connection cap.
  EXPECT_TRUE(IsResourceExhausted(last));
  EXPECT_GE(metrics().Get("cmgr.limit_denied"), 2u);
}

TEST_F(MediaTest, AccountingTracksUsageAndDenials) {
  TestSettop s = MakeSettop(1);
  s.vod->PlayMovie("T2", [](Status) {});
  cluster().RunFor(Duration::Seconds(20));
  ASSERT_TRUE(s.vod->playing());
  s.vod->Stop();
  cluster().RunFor(Duration::Seconds(5));

  sim::Process& probe = harness_.SpawnProcessOn(0, "auditor");
  auto cmgr_ref = harness_.ClientFor(probe).Resolve("svc/cmgr/1");
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(cmgr_ref.is_ready() && cmgr_ref.result().ok());
  auto acct = CmgrProxy(probe.runtime(), cmgr_ref.result().value())
                  .Accounting(s.node->host());
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(acct.is_ready() && acct.result().ok());
  const AccountingRecord& record = acct.result().value();
  EXPECT_GE(record.allocations, 1u);        // The movie stream at least.
  EXPECT_EQ(record.allocations, record.releases);
  EXPECT_EQ(record.current_connections, 0u);
  // ~20 s at 3 Mb/s plus app downloads: at least 50 megabit-seconds charged.
  EXPECT_GT(record.megabit_seconds, 50.0);
}

TEST_F(MediaTest, MoviePauseStopsDeliveryAndPositionResumes) {
  // Drive the movie object directly (paper Section 3.4.4 step 8) with a raw
  // MMS open — a VodApp would rightly treat the paused (silent) stream as a
  // failure and reopen it (Section 3.5.2), which is tested elsewhere.
  TestSettop s = MakeSettop(1);
  sim::Process& probe = *s.process;
  auto mms_ref = s.am->name_client().Resolve(std::string(kMmsName));
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(mms_ref.is_ready() && mms_ref.result().ok());
  auto open = MmsProxy(probe.runtime(), mms_ref.result().value())
                  .Open("T2", s.node->host(), wire::ObjectRef{}, 0);
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(open.is_ready() && open.result().ok()) << open.result().status();
  MovieProxy movie(probe.runtime(), open.result()->movie);

  auto play0 = movie.Play(0);
  cluster().RunFor(Duration::Seconds(5));
  ASSERT_TRUE(play0.is_ready() && play0.result().ok());

  auto pause = movie.Pause();
  cluster().RunFor(Duration::Seconds(1));
  ASSERT_TRUE(pause.is_ready() && pause.result().ok());
  auto position = movie.Position();
  cluster().RunFor(Duration::Seconds(1));
  ASSERT_TRUE(position.is_ready() && position.result().ok());
  int64_t paused_at = position.result().value();
  EXPECT_GT(paused_at, 0);

  uint64_t chunks_at_pause = metrics().Get("mds.chunk_sent");
  cluster().RunFor(Duration::Seconds(5));
  EXPECT_EQ(metrics().Get("mds.chunk_sent"), chunks_at_pause);  // Silence.

  // Resume at the same position.
  auto play = movie.Play(paused_at);
  cluster().RunFor(Duration::Seconds(3));
  ASSERT_TRUE(play.is_ready() && play.result().ok());
  EXPECT_GT(metrics().Get("mds.chunk_sent"), chunks_at_pause);
  auto resumed = movie.Position();
  cluster().RunFor(Duration::Seconds(1));
  ASSERT_TRUE(resumed.is_ready() && resumed.result().ok());
  EXPECT_GT(resumed.result().value(), paused_at);
}

TEST_F(MediaTest, RdsGrantsPartialBandwidthWhileMoviePlays) {
  // A 3 Mb/s movie occupies half the settop's 6 Mb/s downstream; a download
  // asking for 8 Mb/s gets the remaining ~3 Mb/s (allow_partial VBR).
  TestSettop s = MakeSettop(1);
  s.vod->PlayMovie("T2", [](Status) {});
  cluster().RunFor(Duration::Seconds(10));
  ASSERT_TRUE(s.vod->playing());

  Status done = InternalError("pending");
  s.am->StartApp("vod", [&](Status st) { done = st; });
  cluster().RunFor(Duration::Seconds(10));
  ASSERT_TRUE(done.ok()) << done;
  // 2 MB at ~3 Mb/s residual = ~5.3 s (vs 2.75 s on an idle settop).
  EXPECT_GE(s.am->last_app_start_latency(), Duration::Seconds(4.5));
  EXPECT_LE(s.am->last_app_start_latency(), Duration::Seconds(6.5));
}

TEST_F(MediaTest, RdsUnknownItemIsNotFound) {
  TestSettop s = MakeSettop(1);
  Status done = OkStatus();
  s.am->StartApp("no-such-binary", [&](Status st) { done = st; });
  cluster().RunFor(Duration::Seconds(5));
  EXPECT_TRUE(IsNotFound(done)) << done;
}

// --- Failure scenarios (paper Section 3.5) ------------------------------------------

TEST_F(MediaTest, MdsCrashResumesOnAnotherReplica) {
  TestSettop s = MakeSettop(1);
  s.vod->PlayMovie("T2", [](Status) {});
  cluster().RunFor(Duration::Seconds(10));
  ASSERT_TRUE(s.vod->playing());
  uint32_t serving_host = s.vod->mds_host();
  ASSERT_NE(serving_host, 0u);
  int64_t position_before = s.vod->position_bytes();
  ASSERT_GT(position_before, 0);

  // Kill the serving MDS process (the SSC will restart it, but the settop
  // recovers faster by reopening via the MMS, paper Section 3.5.2).
  size_t serving_index = serving_host == harness_.HostOf(0) ? 0 : 1;
  sim::Process* mdsd = harness_.server(serving_index).FindProcessByName("mdsd");
  ASSERT_NE(mdsd, nullptr);
  harness_.server(serving_index).Kill(mdsd->pid());

  cluster().RunFor(Duration::Seconds(20));
  EXPECT_TRUE(s.vod->playing());
  EXPECT_GE(s.vod->reopen_count(), 1u);
  // Resumed at (or after) the pre-crash position, not from the start.
  EXPECT_GE(s.vod->position_bytes(), position_before);
  EXPECT_GE(metrics().Get("vod.stream_failure"), 1u);
}

TEST_F(MediaTest, SettopCrashReclaimsMovieAndBandwidth) {
  TestSettop s = MakeSettop(1);
  s.vod->PlayMovie("T2", [](Status) {});
  cluster().RunFor(Duration::Seconds(10));
  ASSERT_TRUE(s.vod->playing());

  s.node->Crash();
  // Chain: heartbeats stop -> settop manager timeout (15 s) -> RAS settop
  // poll (5 s) -> MMS audit poll (10 s) -> close + release.
  cluster().RunFor(Duration::Seconds(45));

  auto load1 = LoadOfMds(0);
  auto load2 = LoadOfMds(1);
  ASSERT_TRUE(load1.ok() && load2.ok());
  EXPECT_EQ(load1->active_streams + load2->active_streams, 0u);
  EXPECT_GE(metrics().Get("mms.settop_reclaim"), 1u);
}

TEST_F(MediaTest, MmsFailoverAdoptsRunningSessions) {
  TestSettop s = MakeSettop(1);
  s.vod->PlayMovie("T2", [](Status) {});
  cluster().RunFor(Duration::Seconds(10));
  ASSERT_TRUE(s.vod->playing());

  // Operator action: unassign the primary's host through the CSC (paper
  // Section 6.2's "simple tools"); the CSC stops it there and the backup
  // takes over. A bare SSC stop would be reverted by CSC reconciliation.
  sim::Process& probe = harness_.SpawnProcessOn(0, "probe");
  auto mms_ref = harness_.ClientFor(probe).Resolve(std::string(kMmsName));
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(mms_ref.is_ready() && mms_ref.result().ok());
  uint32_t primary_host = mms_ref.result().value().endpoint.host;
  auto csc_ref = harness_.ClientFor(probe).Resolve(std::string(svc::kCscName));
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(csc_ref.is_ready() && csc_ref.result().ok());
  auto unassign = svc::CscProxy(probe.runtime(), csc_ref.result().value())
                      .Unassign("mmsd", primary_host);
  cluster().RunFor(Duration::Seconds(5));
  ASSERT_TRUE(unassign.is_ready() && unassign.result().ok())
      << unassign.result().status();

  // Movie keeps playing while the MMS is down (the stream is MDS->settop).
  uint64_t chunks_at_stop = s.vod->chunks_received();
  cluster().RunFor(Duration::Seconds(30));
  EXPECT_GT(s.vod->chunks_received(), chunks_at_stop);

  // The backup is primary now and adopted the session.
  auto new_ref = harness_.ClientFor(probe).Resolve(std::string(kMmsName));
  cluster().RunFor(Duration::Seconds(5));
  ASSERT_TRUE(new_ref.is_ready() && new_ref.result().ok())
      << new_ref.result().status();
  EXPECT_NE(new_ref.result().value().endpoint.host, primary_host);
  EXPECT_GE(metrics().Get("mms.session_adopted"), 1u);

  // Closing through the new primary reclaims resources.
  s.vod->Stop();
  cluster().RunFor(Duration::Seconds(5));
  auto load1 = LoadOfMds(0);
  auto load2 = LoadOfMds(1);
  ASSERT_TRUE(load1.ok() && load2.ok());
  EXPECT_EQ(load1->active_streams + load2->active_streams, 0u);
}

TEST_F(MediaTest, MmsBackupSendsOpensAndClosesBackToTheNameService) {
  // A replica that is not primary holds no sessions and no view of the
  // MDSes. It answers an open or a close with UNAVAILABLE, which makes the
  // caller's binding layer resolve the name again, rather than an answer
  // drawn from its empty tables (NOT_FOUND, which a client never retries).
  TestSettop s = MakeSettop(1);
  s.vod->PlayMovie("T2", [](Status) {});
  cluster().RunFor(Duration::Seconds(10));
  ASSERT_TRUE(s.vod->playing());

  sim::Process& probe = harness_.SpawnProcessOn(0, "probe");
  auto primary = harness_.ClientFor(probe).Resolve(std::string(kMmsName));
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(primary.is_ready() && primary.result().ok());
  const wire::ObjectRef backup_ref =
      BackupMmsRef(probe, primary.result().value());
  ASSERT_NE(backup_ref.endpoint.host, primary.result()->endpoint.host);

  MmsProxy backup(probe.runtime(), backup_ref);
  auto open = backup.Open("T2", s.node->host(), wire::ObjectRef(), 0);
  auto close = backup.Close(wire::ObjectRef());
  cluster().RunFor(Duration::Seconds(1));
  ASSERT_TRUE(open.is_ready() && close.is_ready());
  EXPECT_TRUE(IsUnavailable(open.result().status())) << open.result().status();
  EXPECT_TRUE(IsUnavailable(close.result().status()))
      << close.result().status();
  EXPECT_TRUE(s.vod->playing());
}

TEST_F(MediaTest, MmsBackupHoldsNothingAndAPrimaryKillAdoptsEverySession) {
  // While the primary streams, the backup MMS sends no Sync and holds no
  // session. Killing the primary loses nothing: the promotion round of
  // whichever replica wins the name (here the restarted mmsd) adopts every
  // running stream from the MDSes.
  std::vector<TestSettop> settops = {MakeSettop(1), MakeSettop(2),
                                     MakeSettop(1)};
  settops[0].vod->PlayMovie("solo", [](Status) {});
  settops[1].vod->PlayMovie("T2", [](Status) {});
  settops[2].vod->PlayMovie("T2", [](Status) {});
  cluster().RunFor(Duration::Seconds(30));
  for (const TestSettop& s : settops) {
    ASSERT_TRUE(s.vod->playing());
  }

  sim::Process& probe = harness_.SpawnProcessOn(0, "probe");
  auto primary = harness_.ClientFor(probe).Resolve(std::string(kMmsName));
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(primary.is_ready() && primary.result().ok());
  const wire::ObjectRef primary_ref = primary.result().value();
  const wire::ObjectRef backup_ref = BackupMmsRef(probe, primary_ref);
  ASSERT_NE(backup_ref.endpoint.host, primary_ref.endpoint.host);

  auto count_at = [&](const wire::ObjectRef& ref) -> uint32_t {
    auto n = MmsProxy(probe.runtime(), ref).ListSessions();
    cluster().RunFor(Duration::Seconds(1));
    EXPECT_TRUE(n.is_ready() && n.result().ok());
    return n.is_ready() && n.result().ok() ? *n.result() : 999;
  };
  EXPECT_EQ(count_at(primary_ref), 3u);
  EXPECT_EQ(count_at(backup_ref), 0u);

  sim::Node* node = cluster().FindNode(primary_ref.endpoint.host);
  ASSERT_NE(node, nullptr);
  sim::Process* victim = node->FindProcessByName("mmsd");
  ASSERT_NE(victim, nullptr);
  uint64_t adopted_before = metrics().Get("mms.session_adopted");
  node->Kill(victim->pid());
  cluster().RunFor(Duration::Seconds(40));

  auto promoted = harness_.ClientFor(probe).Resolve(std::string(kMmsName));
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(promoted.is_ready() && promoted.result().ok());
  EXPECT_NE(promoted.result().value(), primary_ref);
  EXPECT_EQ(count_at(promoted.result().value()), 3u);
  EXPECT_EQ(metrics().Get("mms.session_adopted") - adopted_before, 3u);
  for (const TestSettop& s : settops) {
    EXPECT_TRUE(s.vod->playing());
  }
}

TEST_F(MediaTest, MmsDemotedMidRoundAdoptsNothing) {
  // A sync round that a demotion overtakes lands on a replica that no longer
  // owns the sessions: it must not adopt them or watch their settops. The
  // replica here is driven through the hooks its ServiceLifecycle calls.
  TestSettop a = MakeSettop(1);
  TestSettop b = MakeSettop(2);
  a.vod->PlayMovie("solo", [](Status) {});
  b.vod->PlayMovie("T2", [](Status) {});
  cluster().RunFor(Duration::Seconds(10));
  ASSERT_TRUE(a.vod->playing() && b.vod->playing());

  sim::Process& p = harness_.SpawnProcessOn(0, "mms-replica");
  auto* mms = p.Emplace<MmsService>(p.runtime(), p.executor(),
                                    harness_.ClientFor(p),
                                    MmsService::Options(), &metrics());
  mms->Start();

  // Won the binding: recovery adopts both streams, each with its watch.
  bool recovered = false;
  mms->RecoverState([&recovered](Status s) { recovered = s.ok(); });
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(recovered);
  EXPECT_EQ(mms->session_count(), 2u);
  EXPECT_EQ(mms->watch_count(), 2u);

  // Demoted while its next round is in flight: every reply lands after the
  // demotion, and the demoted replica ends holding nothing.
  bool stale_done = false;
  mms->RecoverState([&stale_done](Status) { stale_done = true; });
  mms->OnDemotedRole();
  EXPECT_EQ(mms->session_count(), 0u);
  cluster().RunFor(Duration::Seconds(5));
  EXPECT_TRUE(stale_done);
  EXPECT_EQ(mms->session_count(), 0u);
  EXPECT_EQ(mms->watch_count(), 0u);
}

TEST_F(MediaTest, MmsOpenReplyAfterDemotionKeepsNothing) {
  // An open whose MDS reply lands after a demotion: the viewer still gets
  // its ticket, but the demoted replica keeps no session, no watch and no
  // admission grant. The stream stays on the MDS for the new primary's sync
  // to adopt.
  sim::Node& settop = harness_.AddSettop(1);
  sim::Process& viewer = settop.Spawn("viewer");
  sim::Process& p = harness_.SpawnProcessOn(0, "mms-replica");
  MmsService::Options opts;
  opts.admission_pool_bps = 48'000'000;
  auto* mms = p.Emplace<MmsService>(p.runtime(), p.executor(),
                                    harness_.ClientFor(p), opts, &metrics());
  mms->Start();
  bool recovered = false;
  mms->RecoverState([&recovered](Status s) { recovered = s.ok(); });
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(recovered);
  ASSERT_EQ(mms->session_count(), 0u);

  // "solo" lives on the second server only, so the MDS reply crosses the
  // network to this replica on the first.
  auto ticket = MmsProxy(viewer.runtime(), mms->ref())
                    .Open("solo", settop.host(), wire::ObjectRef(), 0);
  // Step until the MDS has the open: its reply is now in flight.
  const uint64_t opens = metrics().Get("mds.open");
  for (int step = 0; step < 50'000 && metrics().Get("mds.open") == opens;
       ++step) {
    cluster().RunFor(Duration::Micros(100));  // Under one link latency.
  }
  ASSERT_EQ(metrics().Get("mds.open"), opens + 1);
  ASSERT_FALSE(ticket.is_ready());
  EXPECT_EQ(mms->admission().reserved_bps(), 3'000'000);
  mms->OnDemotedRole();
  cluster().RunFor(Duration::Seconds(3));

  ASSERT_TRUE(ticket.is_ready() && ticket.result().ok())
      << ticket.result().status();
  EXPECT_EQ(mms->session_count(), 0u);
  EXPECT_EQ(mms->watch_count(), 0u);
  EXPECT_EQ(mms->admission().reserved_bps(), 0);
  EXPECT_EQ(metrics().Get("mms.open_after_demotion"), 1u);
}

TEST_F(MediaTest, LostMdsCloseIsResentNotReadopted) {
  // A viewer's close whose MDS Close is lost leaves the stream playing on the
  // MDS. The MMS's next sync round must send the Close again rather than
  // adopt the stream back: an adopted stream nobody watches pins the
  // settop's bandwidth for as long as the settop lives.
  TestSettop s = MakeSettop(1);
  s.vod->PlayMovie("solo", [](Status) {});  // Served by the second server.
  cluster().RunFor(Duration::Seconds(10));
  ASSERT_TRUE(s.vod->playing());

  sim::Process& probe = harness_.SpawnProcessOn(0, "probe");
  auto mms_ref = harness_.ClientFor(probe).Resolve(std::string(kMmsName));
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(mms_ref.is_ready() && mms_ref.result().ok());
  uint32_t mms_host = mms_ref.result().value().endpoint.host;
  ASSERT_NE(mms_host, harness_.HostOf(1));

  // Cut the MMS off from the MDS for one Close timeout.
  cluster().network().Partition(mms_host, harness_.HostOf(1), true);
  s.vod->Stop();
  cluster().RunFor(Duration::Seconds(3));
  cluster().network().HealAllPartitions();
  cluster().RunFor(Duration::Seconds(12));

  auto load = LoadOfMds(1);
  ASSERT_TRUE(load.ok()) << load.status();
  EXPECT_EQ(load->active_streams, 0u);
  auto held = MmsProxy(probe.runtime(), mms_ref.result().value()).ListSessions();
  cluster().RunFor(Duration::Seconds(1));
  ASSERT_TRUE(held.is_ready() && held.result().ok());
  EXPECT_EQ(*held.result(), 0u);
  EXPECT_GE(metrics().Get("mms.close_resent"), 1u);
}

TEST_F(MediaTest, CmgrFailoverKeepsAllocationTable) {
  // The CMgr backup holds nothing: an open-and-stop cycle sends no CMgr a
  // call from another CMgr. Open a movie, then fail neighborhood 1's primary
  // CMgr. The promoted backup rebuilds its table from the trunk replicas
  // (Section 10.1: volatile state is rebuilt by querying), so it holds what
  // the live trunks reserve for its neighborhood, and a release through it
  // works.
  std::vector<wire::Endpoint> cmgrs = EndpointsOf("cmgrd-1");
  for (const wire::Endpoint& e : EndpointsOf("cmgrd-2")) {
    cmgrs.push_back(e);
  }
  ASSERT_EQ(cmgrs.size(), 4u);
  size_t cmgr_to_cmgr = 0, allocates = 0;
  cluster().network().SetTap([&](const wire::Endpoint& src,
                                 const wire::Endpoint& dst,
                                 const wire::Message& msg) {
    if (msg.kind == wire::MsgKind::kRequest && IsOneOf(cmgrs, dst)) {
      cmgr_to_cmgr += IsOneOf(cmgrs, src);
      allocates += msg.method_id == kCmgrMethodAllocate;
    }
  });
  TestSettop s = MakeSettop(1);
  s.vod->PlayMovie("T2", [](Status) {});
  cluster().RunFor(Duration::Seconds(10));
  ASSERT_TRUE(s.vod->playing());
  s.vod->Stop();
  cluster().RunFor(Duration::Seconds(5));
  cluster().network().SetTap(nullptr);
  EXPECT_EQ(allocates, 1u);
  EXPECT_EQ(cmgr_to_cmgr, 0u);

  s.vod->PlayMovie("T2", [](Status) {});
  cluster().RunFor(Duration::Seconds(10));
  ASSERT_TRUE(s.vod->playing());

  sim::Process& probe = harness_.SpawnProcessOn(0, "probe");
  auto cmgr_ref = harness_.ClientFor(probe).Resolve("svc/cmgr/1");
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(cmgr_ref.is_ready() && cmgr_ref.result().ok());
  uint32_t primary_host = cmgr_ref.result().value().endpoint.host;
  auto csc_ref = harness_.ClientFor(probe).Resolve(std::string(svc::kCscName));
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(csc_ref.is_ready() && csc_ref.result().ok());
  auto unassign = svc::CscProxy(probe.runtime(), csc_ref.result().value())
                      .Unassign("cmgrd-1", primary_host);
  cluster().RunFor(Duration::Seconds(30));  // CSC stop + audit + backup bind.
  ASSERT_TRUE(unassign.is_ready() && unassign.result().ok())
      << unassign.result().status();

  auto new_ref = harness_.ClientFor(probe).Resolve("svc/cmgr/1");
  cluster().RunFor(Duration::Seconds(5));
  ASSERT_TRUE(new_ref.is_ready() && new_ref.result().ok())
      << new_ref.result().status();
  EXPECT_NE(new_ref.result().value().endpoint.host, primary_host);

  // The rebuilt table is exactly what the trunks reserve for neighborhood 1.
  auto connections =
      CmgrProxy(probe.runtime(), new_ref.result().value()).ListConnections();
  std::vector<Future<std::vector<ConnectionGrant>>> reserved;
  for (size_t i = 0; i < harness_.server_count(); ++i) {
    auto trunk =
        harness_.ClientFor(probe).Resolve(TrunkName(harness_.HostOf(i)));
    cluster().RunFor(Duration::Seconds(1));
    ASSERT_TRUE(trunk.is_ready() && trunk.result().ok());
    reserved.push_back(
        TrunkProxy(probe.runtime(), trunk.result().value()).ListGrants(1));
  }
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(connections.is_ready() && connections.result().ok());
  std::vector<ConnectionGrant> on_trunks;
  for (const auto& grants : reserved) {
    ASSERT_TRUE(grants.is_ready() && grants.result().ok());
    on_trunks.insert(on_trunks.end(), grants.result()->begin(),
                     grants.result()->end());
  }
  std::vector<ConnectionGrant> table = connections.result().value();
  auto by_id = [](const ConnectionGrant& a, const ConnectionGrant& b) {
    return a.connection_id < b.connection_id;
  };
  std::sort(table.begin(), table.end(), by_id);
  std::sort(on_trunks.begin(), on_trunks.end(), by_id);
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table, on_trunks);
  uint32_t server_host = table.front().server_host;

  // And the settop can release through the new primary.
  s.vod->Stop();
  cluster().RunFor(Duration::Seconds(5));
  auto after =
      CmgrProxy(probe.runtime(), new_ref.result().value()).ListConnections();
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(after.is_ready() && after.result().ok());
  EXPECT_TRUE(after.result().value().empty());

  // The release reached the serving server's trunk, which the new primary
  // had never called before.
  auto trunk_ref = harness_.ClientFor(probe).Resolve(TrunkName(server_host));
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(trunk_ref.is_ready() && trunk_ref.result().ok());
  auto usage = TrunkProxy(probe.runtime(), trunk_ref.result().value()).Usage();
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(usage.is_ready() && usage.result().ok());
  EXPECT_EQ(usage.result()->reserved_bps, 0);
}

// --- Grant reclamation at the trunk replica ------------------------------------

TEST_F(MediaTest, OrphanedGrantIsReclaimedThroughItsCmgr) {
  // A grant whose open never reached an MDS: no session claims it, so the
  // serving server's trunk releases it through the neighborhood's CMgr
  // within two audits past the grace.
  uint32_t settop_host = harness_.AddSettop(1).host();
  sim::Process& probe = harness_.SpawnProcessOn(0, "probe");
  auto cmgr_ref = harness_.ClientFor(probe).Resolve(CmgrName(1));
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(cmgr_ref.is_ready() && cmgr_ref.result().ok());
  auto grant = CmgrProxy(probe.runtime(), cmgr_ref.result().value())
                   .Allocate(settop_host, harness_.HostOf(0), 3'000'000,
                             /*allow_partial=*/false);
  cluster().RunFor(Duration::Seconds(1));
  ASSERT_TRUE(grant.is_ready() && grant.result().ok());
  ASSERT_EQ(TrunkReservedBps(0).value(), 3'000'000);

  cluster().RunFor(Duration::Seconds(37));  // 40 s after the grant.
  auto grants = GrantsOf(1);
  ASSERT_TRUE(grants.ok()) << grants.status();
  EXPECT_TRUE(grants->empty());
  EXPECT_EQ(TrunkReservedBps(0).value(), 0);
  EXPECT_EQ(metrics().Get("cmgr.grant_reclaimed"), 1u);
}

TEST_F(MediaTest, TrunkOnlyReservationIsDropped) {
  // A reservation no CMgr committed (the CMgr died between Reserve and its
  // commit): the CMgr answers the trunk's release with NOT_FOUND and the
  // trunk drops the reservation itself.
  ConnectionGrant grant;
  grant.connection_id = 77;
  grant.settop_host = harness_.AddSettop(2).host();
  grant.server_host = harness_.HostOf(1);
  grant.downstream_bps = 3'000'000;
  sim::Process& probe = harness_.SpawnProcessOn(0, "probe");
  auto trunk_ref = harness_.ClientFor(probe).Resolve(TrunkName(grant.server_host));
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(trunk_ref.is_ready() && trunk_ref.result().ok());
  auto reserved =
      TrunkProxy(probe.runtime(), trunk_ref.result().value()).Reserve(grant);
  cluster().RunFor(Duration::Seconds(1));
  ASSERT_TRUE(reserved.is_ready() && reserved.result().ok());
  ASSERT_EQ(TrunkReservedBps(1).value(), 3'000'000);

  cluster().RunFor(Duration::Seconds(37));
  EXPECT_EQ(TrunkReservedBps(1).value(), 0);
  EXPECT_EQ(metrics().Get("cmgr.grant_reclaimed"), 1u);
}

TEST_F(MediaTest, TrunkKeepsAReservationWhoseCmgrIsNotBound) {
  // A lookup of svc/cmgr/<nb> that finds no primary (as mid-fail-over) also
  // reads NOT_FOUND, but it is not the CMgr saying it holds no such grant:
  // the trunk keeps the reservation. This cluster has no neighborhood 3.
  ConnectionGrant grant;
  grant.connection_id = 78;
  grant.settop_host = MakeSettopHost(3, 1);
  grant.server_host = harness_.HostOf(1);
  grant.downstream_bps = 3'000'000;
  sim::Process& probe = harness_.SpawnProcessOn(0, "probe");
  auto trunk_ref = harness_.ClientFor(probe).Resolve(TrunkName(grant.server_host));
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(trunk_ref.is_ready() && trunk_ref.result().ok());
  auto reserved =
      TrunkProxy(probe.runtime(), trunk_ref.result().value()).Reserve(grant);
  cluster().RunFor(Duration::Seconds(60));
  ASSERT_TRUE(reserved.is_ready() && reserved.result().ok());
  EXPECT_EQ(TrunkReservedBps(1).value(), 3'000'000);
  EXPECT_EQ(metrics().Get("cmgr.grant_reclaimed"), 0u);
}

TEST_F(MediaTest, RestartedTrunkRelistsItsReservations) {
  // A restarted trunk replica asks every neighborhood's CMgr for the grants
  // on its server, so a playing stream's bandwidth is reserved again, and
  // the viewer's stop releases it.
  TestSettop s = MakeSettop(1);
  s.vod->PlayMovie("T2", [](Status) {});
  cluster().RunFor(Duration::Seconds(10));
  ASSERT_TRUE(s.vod->playing());
  size_t serving_index = s.vod->mds_host() == harness_.HostOf(0) ? 0 : 1;
  ASSERT_EQ(TrunkReservedBps(serving_index).value(), 3'000'000);

  sim::Process* trunkd =
      harness_.server(serving_index).FindProcessByName("trunkd");
  ASSERT_NE(trunkd, nullptr);
  harness_.server(serving_index).Kill(trunkd->pid());
  cluster().RunFor(Duration::Seconds(30));  // SSC restart, then the list.
  EXPECT_TRUE(s.vod->playing());
  EXPECT_EQ(TrunkReservedBps(serving_index).value(), 3'000'000);

  s.vod->Stop();
  cluster().RunFor(Duration::Seconds(5));
  EXPECT_EQ(TrunkReservedBps(serving_index).value(), 0);
  EXPECT_EQ(metrics().Get("cmgr.grant_reclaimed"), 0u);
}

TEST_F(MediaTest, TrunkListsItsGrantsByNeighborhood) {
  // listGrants answers with the reservations whose settop is in the asked
  // neighborhood, and rejects a request without one.
  sim::Process& process = harness_.SpawnProcessOn(0, "trunkcheck");
  auto* trunk = process.Emplace<TrunkService>(
      process.runtime(), process.executor(), harness_.ClientFor(process),
      /*server_index=*/0, /*neighborhoods=*/2, 200'000'000);
  auto call = [trunk](uint32_t method, const wire::Bytes& args) {
    Status status;
    wire::Bytes reply;
    trunk->Dispatch(method, args, rpc::CallContext{},
                    [&](Status s, wire::Bytes b) {
                      status = std::move(s);
                      reply = std::move(b);
                    });
    return std::make_pair(status, reply);
  };
  ConnectionGrant grants[2];
  for (uint8_t nb : {1, 2}) {
    ConnectionGrant& grant = grants[nb - 1];
    grant.connection_id = nb;
    grant.settop_host = MakeSettopHost(nb, 1);
    grant.server_host = harness_.HostOf(0);
    grant.downstream_bps = 3'000'000;
    ASSERT_TRUE(call(kTrunkMethodReserve, rpc::EncodeArgs(grant)).first.ok());
  }
  auto [status, reply] = call(kTrunkMethodListGrants, rpc::EncodeArgs(uint8_t{2}));
  ASSERT_TRUE(status.ok()) << status;
  std::vector<ConnectionGrant> listed;
  ASSERT_TRUE(wire::DecodeValue(reply, &listed));
  EXPECT_EQ(listed, std::vector<ConnectionGrant>{grants[1]});
  EXPECT_EQ(call(kTrunkMethodListGrants, {}).first.code(),
            StatusCode::kInvalidArgument);
}

TEST_F(MediaTest, PlayingViewerKeepsItsGrant) {
  TestSettop s = MakeSettop(1);
  s.vod->PlayMovie("T2", [](Status) {});
  cluster().RunFor(Duration::Seconds(120));
  EXPECT_TRUE(s.vod->playing());
  auto grants = GrantsOf(1);
  ASSERT_TRUE(grants.ok()) << grants.status();
  EXPECT_EQ(grants->size(), 1u);
  EXPECT_EQ(metrics().Get("cmgr.grant_reclaimed"), 0u);
}

TEST_F(MediaTest, GrantAuditStaysOnTheServer) {
  // Each trunk audits its grants with one Sync per tick (10 s) to the MDS on
  // its own server; no CMgr asks any MDS anything or lists svc/mds.
  std::vector<wire::Endpoint> cmgrs = EndpointsOf("cmgrd-1");
  for (const wire::Endpoint& e : EndpointsOf("cmgrd-2")) {
    cmgrs.push_back(e);
  }
  const std::vector<wire::Endpoint> trunks = EndpointsOf("trunkd");
  const std::vector<wire::Endpoint> mds = EndpointsOf("mdsd");
  ASSERT_EQ(cmgrs.size(), 4u);
  ASSERT_EQ(trunks.size(), 2u);
  ASSERT_EQ(mds.size(), 2u);

  TestSettop s = MakeSettop(1);
  s.vod->PlayMovie("T2", [](Status) {});
  cluster().RunFor(Duration::Seconds(5));
  ASSERT_TRUE(s.vod->playing());

  const uint64_t naming_type =
      wire::TypeIdFromName(naming::kNamingContextInterface);
  const uint64_t mds_type = wire::TypeIdFromName(kMdsInterface);
  size_t cmgr_mds_requests = 0, cmgr_mds_lists = 0, remote_syncs = 0;
  std::vector<size_t> syncs(trunks.size(), 0);
  cluster().network().SetTap([&](const wire::Endpoint& src,
                                 const wire::Endpoint& dst,
                                 const wire::Message& msg) {
    if (msg.kind != wire::MsgKind::kRequest) {
      return;
    }
    if (IsOneOf(cmgrs, src)) {
      cmgr_mds_requests += IsOneOf(mds, dst);
      naming::Name name;
      cmgr_mds_lists += msg.type_id == naming_type &&
                        msg.method_id == naming::kNcMethodListRepl &&
                        rpc::DecodeArgs(msg.payload, &name) &&
                        name == naming::Name{"svc", "mds"};
    }
    for (size_t i = 0; i < trunks.size(); ++i) {
      if (src == trunks[i] && msg.type_id == mds_type &&
          msg.method_id == kMdsMethodSync) {
        ++syncs[i];
        remote_syncs += dst.host != src.host;
      }
    }
  });
  cluster().RunFor(Duration::Seconds(30));
  cluster().network().SetTap(nullptr);

  EXPECT_EQ(cmgr_mds_requests, 0u);
  EXPECT_EQ(cmgr_mds_lists, 0u);
  EXPECT_EQ(remote_syncs, 0u);
  for (size_t i = 0; i < trunks.size(); ++i) {
    EXPECT_LE(syncs[i], 3u) << "trunk " << i;
    if (trunks[i].host == s.vod->mds_host()) {
      EXPECT_GT(syncs[i], 0u) << "the serving trunk audited nothing";
    }
  }
}

// --- One stream per viewer sink ----------------------------------------------

TEST_F(MediaTest, ResentOpenLeavesOneSession) {
  // The viewer's CMgr does not answer the MMS's first Allocate, so the
  // Allocate succeeds on its second attempt, past the settop's 2 s call
  // timeout. The settop's binding layer sends the open again and both opens
  // complete: the viewer's newest open replaces the abandoned one, which
  // would otherwise keep a stream and 3 Mb/s of trunk for as long as the
  // settop lives.
  TestSettop s = MakeSettop(1);
  uint64_t opens = metrics().Get("mms.open");
  const uint64_t cmgr_type = wire::TypeIdFromName(kCmgrInterface);
  auto dropped = DropFirstMessage([cmgr_type](const wire::Endpoint&,
                                              const wire::Endpoint&,
                                              const wire::Message& msg) {
    return msg.kind == wire::MsgKind::kRequest && msg.type_id == cmgr_type &&
           msg.method_id == kCmgrMethodAllocate;
  });
  s.vod->PlayMovie("T2", [](Status) {});
  cluster().RunFor(Duration::Seconds(10));
  cluster().network().SetTap(nullptr);
  ASSERT_TRUE(*dropped);
  ASSERT_TRUE(s.vod->playing());
  ASSERT_EQ(metrics().Get("mms.open"), opens + 2) << "the open was not re-sent";

  sim::Process& probe = harness_.SpawnProcessOn(0, "probe");
  auto mms_ref = harness_.ClientFor(probe).Resolve(std::string(kMmsName));
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(mms_ref.is_ready() && mms_ref.result().ok());
  auto hosts = MmsProxy(probe.runtime(), mms_ref.result().value())
                   .ListSessionHosts();
  cluster().RunFor(Duration::Seconds(1));
  ASSERT_TRUE(hosts.is_ready() && hosts.result().ok());
  EXPECT_EQ(std::count(hosts.result()->begin(), hosts.result()->end(),
                       s.node->host()),
            1);
  EXPECT_EQ(TrunkReservedBps(0).value() + TrunkReservedBps(1).value(),
            3'000'000);
}

TEST_F(MediaTest, LostTicketOrphanIsClosedForItsSink) {
  // The first MDS Open reply to the MMS is lost: the MMS marks that replica
  // dead, releases the grant and opens the title on the other replica. The
  // first replica still holds the orphan for the same sink. The next sync
  // round finds two streams for one sink, keeps the one the MMS holds and
  // closes the orphan.
  sim::Node& settop = harness_.AddSettop(1);
  sim::Process& p = settop.Spawn("viewer");
  auto mms_ref = harness_.ClientFor(p).Resolve(std::string(kMmsName));
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(mms_ref.is_ready() && mms_ref.result().ok());
  MmsProxy mms(p.runtime(), mms_ref.result().value());
  // A sink the MDS never delivers to: nothing plays either stream.
  wire::ObjectRef sink;
  sink.endpoint = p.endpoint();
  sink.incarnation = p.incarnation();
  sink.type_id = wire::TypeIdFromName(kMediaSinkInterface);
  sink.object_id = 1;

  // MDS Open calls seen, by (caller host, caller port, call id).
  const uint64_t mds_type = wire::TypeIdFromName(kMdsInterface);
  std::set<std::tuple<uint32_t, uint16_t, uint64_t>> open_calls;
  auto dropped = DropFirstMessage([&open_calls, mds_type](
                                      const wire::Endpoint& src,
                                      const wire::Endpoint& dst,
                                      const wire::Message& msg) {
    if (msg.kind == wire::MsgKind::kRequest && msg.type_id == mds_type &&
        msg.method_id == kMdsMethodOpen) {
      open_calls.insert({src.host, src.port, msg.call_id});
    }
    return msg.kind == wire::MsgKind::kReply &&
           open_calls.count({dst.host, dst.port, msg.call_id}) != 0;
  });
  auto ticket = mms.Open("T2", settop.host(), sink, 0);
  cluster().RunFor(Duration::Seconds(3));
  cluster().network().SetTap(nullptr);
  ASSERT_TRUE(*dropped);
  ASSERT_EQ(metrics().Get("mms.mds_marked_dead"), 1u);
  ASSERT_EQ(metrics().Get("mds.open"), 2u);  // The orphan, then the session.

  cluster().RunFor(Duration::Seconds(7));  // One sync round plus the close.
  auto load1 = LoadOfMds(0);
  auto load2 = LoadOfMds(1);
  ASSERT_TRUE(load1.ok() && load2.ok());
  EXPECT_EQ(load1->active_streams + load2->active_streams, 1u);
  auto held = mms.ListSessions();
  cluster().RunFor(Duration::Seconds(1));
  ASSERT_TRUE(held.is_ready() && held.result().ok());
  EXPECT_EQ(*held.result(), 1u);
  auto grants = GrantsOf(1);
  ASSERT_TRUE(grants.ok()) << grants.status();
  EXPECT_EQ(grants->size(), 1u);
  EXPECT_EQ(TrunkReservedBps(0).value() + TrunkReservedBps(1).value(),
            3'000'000);
}

// --- Live resharding (ROADMAP "Shard rebalancing") ----------------------------

// Boots the MMS sharded 2-way, then publishes a v2 map growing it to 4
// shards while movies play. The handoff contract: every moved session leaves
// its source shard's table (mms.session_handoff counts exactly the moved
// set), is adopted by exactly one destination primary (per-shard session
// counts sum to the viewer count — a double adoption would overshoot, a lost
// session undershoot), playback never stops, and a close through the new
// owner releases the MDS stream (nothing leaked).
class MediaReshardTest : public MediaTest {
 protected:
  static constexpr uint32_t kInitialShards = 2;
  static constexpr uint32_t kGrownShards = 4;

  MediaReshardTest() : MediaTest(ShardedDeployment()) {}

  static MediaDeployment ShardedDeployment() {
    MediaDeployment deploy = DefaultDeployment();
    deploy.mms_shards = kInitialShards;
    deploy.mms_replicas = 2;
    return deploy;
  }

  Result<wire::ShardMap> ReadPublishedMap() {
    sim::Process& probe = harness_.SpawnProcessOn(0, "map-probe");
    auto f = harness_.ClientFor(probe).Resolve(
        wire::ShardMapPath(std::string(kMmsName)));
    cluster().RunFor(Duration::Seconds(2));
    if (!f.is_ready() || !f.result().ok()) {
      return NotFoundError("no published map");
    }
    if (!wire::IsShardMapRef(f.result().value())) {
      return InternalError("not a shard map ref");
    }
    return wire::DecodeShardMapRef(f.result().value());
  }

  // Sessions each shard primary holds, by 0-based shard index.
  Result<uint32_t> SessionsOnShard(uint32_t shard, const wire::ShardMap& map) {
    sim::Process& probe = harness_.SpawnProcessOn(
        0, "mms-probe-" + std::to_string(shard) + "-" +
               std::to_string(++probe_serial_));
    auto ref = harness_.ClientFor(probe).Resolve(
        wire::ShardPath(std::string(kMmsName), shard, map));
    cluster().RunFor(Duration::Seconds(2));
    if (!ref.is_ready() || !ref.result().ok()) {
      return ref.is_ready() ? ref.result().status()
                            : DeadlineExceededError("resolve timed out");
    }
    auto sessions =
        MmsProxy(probe.runtime(), ref.result().value()).ListSessions();
    cluster().RunFor(Duration::Seconds(2));
    if (!sessions.is_ready()) {
      return DeadlineExceededError("no session count");
    }
    return sessions.result();
  }

  int probe_serial_ = 0;
};

TEST_F(MediaReshardTest, LiveGrowHandsOffSessionsExactlyOnce) {
  // Four viewers spread over both neighborhoods, all playing.
  constexpr int kViewers = 4;
  std::vector<TestSettop> settops;
  for (int i = 0; i < kViewers; ++i) {
    settops.push_back(MakeSettop(static_cast<uint8_t>(1 + i % 2)));
    settops.back().vod->PlayMovie("T2", [](Status) {});
  }
  cluster().RunFor(Duration::Seconds(12));
  for (const TestSettop& s : settops) {
    ASSERT_TRUE(s.vod->playing());
  }

  auto v1 = ReadPublishedMap();
  ASSERT_TRUE(v1.ok()) << v1.status();
  ASSERT_EQ(v1->version, 1u);
  ASSERT_EQ(v1->shard_count, kInitialShards);

  // How many sessions actually change shards under the successor map — the
  // deterministic sim makes this a fixed, computable set.
  wire::ShardMap v2 = wire::NextShardMap(*v1, kGrownShards);
  uint64_t expected_moves = 0;
  for (const TestSettop& s : settops) {
    uint32_t host = s.node->host();
    expected_moves += wire::ShardOf(host, *v1) != wire::ShardOf(host, v2);
  }

  // Publish the successor map: the live cutover begins.
  sim::Process& ctl = harness_.SpawnProcessOn(0, "reshard-ctl");
  auto published = std::make_shared<Result<wire::ShardMap>>(
      DeadlineExceededError("publish pending"));
  naming::PublishShardMap(
      ctl.executor(), harness_.ClientFor(ctl), std::string(kMmsName), v2,
      [published](Result<wire::ShardMap> r) { *published = std::move(r); });
  cluster().RunFor(Duration::Seconds(5));
  ASSERT_TRUE(published->ok()) << published->status();
  ASSERT_EQ(**published, v2);

  uint64_t chunks_before[kViewers];
  for (int i = 0; i < kViewers; ++i) {
    chunks_before[i] = settops[static_cast<size_t>(i)].vod->chunks_received();
  }

  // Cutover window: server ShardHosts poll the map, new shard lifecycles
  // elect, sources drain, destinations adopt, client routers re-fetch.
  cluster().RunFor(Duration::Seconds(45));

  auto now = ReadPublishedMap();
  ASSERT_TRUE(now.ok()) << now.status();
  EXPECT_EQ(now->version, 2u);
  EXPECT_EQ(now->shard_count, kGrownShards);

  // Playback never stopped for anyone.
  for (int i = 0; i < kViewers; ++i) {
    EXPECT_TRUE(settops[static_cast<size_t>(i)].vod->playing())
        << "viewer " << i;
    EXPECT_GT(settops[static_cast<size_t>(i)].vod->chunks_received(),
              chunks_before[i])
        << "viewer " << i;
  }

  // Exactly-once ownership: every session lives in exactly one shard
  // primary's table. The moved set drained from its sources...
  uint32_t total = 0;
  for (uint32_t shard = 0; shard < kGrownShards; ++shard) {
    auto count = SessionsOnShard(shard, v2);
    ASSERT_TRUE(count.ok()) << "shard " << shard + 1 << ": " << count.status();
    total += *count;
  }
  EXPECT_EQ(total, static_cast<uint32_t>(kViewers));
  EXPECT_EQ(metrics().Get("mms.session_handoff"), expected_moves);
  if (expected_moves > 0) {
    EXPECT_GE(metrics().Get("mms.session_adopted"), expected_moves);
  }

  // Closing through the new owners reclaims every stream: nothing leaked.
  for (TestSettop& s : settops) {
    s.vod->Stop();
  }
  cluster().RunFor(Duration::Seconds(10));
  auto load1 = LoadOfMds(0);
  auto load2 = LoadOfMds(1);
  ASSERT_TRUE(load1.ok() && load2.ok());
  EXPECT_EQ(load1->active_streams + load2->active_streams, 0u);
}

class MediaSurfTest : public MediaTest {
 protected:
  MediaSurfTest() : MediaTest(SurfDeployment()) {}

  static MediaDeployment SurfDeployment() {
    MediaDeployment deploy = DefaultDeployment();
    deploy.mds_capacity_bps = 400'000'000;
    // Frequent rounds: more closes land while a sync reply is in flight.
    deploy.mms.mds_refresh_interval = Duration::Millis(500);
    return deploy;
  }
};

TEST_F(MediaSurfTest, SurfingLeavesNoSessionsBehind) {
  // Viewers change channel every 0.3-1.5 s while the MMS primary runs a
  // sync round every 0.5 s, so closes keep landing while a reply the MDS
  // wrote before the close is still in flight. The round must not re-adopt
  // such a stream: its settop stays alive, so the adopted session's watch
  // would never fire and the session would outlive every viewer.
  Rng rng(7);
  std::vector<settop::VodApp*> viewers;
  for (int i = 0; i < 32; ++i) {
    sim::Node& settop = harness_.AddSettop(static_cast<uint8_t>(1 + i % 2));
    sim::Process& p = settop.Spawn("viewer");
    viewers.push_back(p.Emplace<settop::VodApp>(
        p.runtime(), p.executor(), harness_.ClientFor(p),
        settop::VodApp::Options(), &metrics()));
  }
  bool surfing = true;
  std::function<void(size_t)> dwell = [&](size_t i) {
    cluster().scheduler().ScheduleAfter(
        Duration::Millis(300 + static_cast<int64_t>(rng.Below(1200))),
        [&, i] {
          if (!surfing) {
            return;
          }
          if (viewers[i]->playing()) {
            viewers[i]->Stop();
            viewers[i]->PlayMovie(rng.Below(2) == 0 ? "T2" : "solo",
                                  [](Status) {});
          }
          dwell(i);
        });
  };
  for (size_t i = 0; i < viewers.size(); ++i) {
    viewers[i]->PlayMovie("T2", [](Status) {});
    dwell(i);
  }
  cluster().RunFor(Duration::Seconds(120));
  surfing = false;
  for (settop::VodApp* vod : viewers) {
    vod->Stop();
  }
  cluster().RunFor(Duration::Seconds(30));

  sim::Process& probe = harness_.SpawnProcessOn(0, "probe");
  auto ref = harness_.ClientFor(probe).Resolve(std::string(kMmsName));
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(ref.is_ready() && ref.result().ok());
  auto left = MmsProxy(probe.runtime(), ref.result().value()).ListSessions();
  cluster().RunFor(Duration::Seconds(1));
  ASSERT_TRUE(left.is_ready() && left.result().ok());
  EXPECT_EQ(*left.result(), 0u);
  auto load1 = LoadOfMds(0);
  auto load2 = LoadOfMds(1);
  ASSERT_TRUE(load1.ok() && load2.ok());
  EXPECT_EQ(load1->active_streams + load2->active_streams, 0u);
  // The race did happen: the fix had closes to keep from re-adoption.
  EXPECT_GT(metrics().Get("vod.stopped"), 1000u);
  EXPECT_GT(metrics().Get("mms.session_closing_skipped"), 0u);
}

// --- A neighborhood's server crashes and stays down -------------------------------
//
// Four servers, one neighborhood each. Server 3 heads neighborhood 3: its
// settops boot from it and read from its name-service replica first, and it
// runs that neighborhood's CMgr primary (the standby is on server 4) and an
// MDS. The MMS runs on servers 1 and 2. Nothing restores server 3, so a
// settop that only asked its home replica could never resolve a name again.
class MediaHomeCrashTest : public MediaTest {
 protected:
  static constexpr uint8_t kNeighborhood = 3;

  MediaHomeCrashTest() : MediaHomeCrashTest(CrashDeployment()) {}
  explicit MediaHomeCrashTest(const MediaDeployment& deploy)
      : MediaTest(deploy, CrashHarnessOptions()) {}

  static MediaDeployment CrashDeployment() {
    MediaDeployment deploy = DefaultDeployment();
    // On the server that crashes and on server 1.
    deploy.movies.push_back(
        {MovieInfo{"local", 3'000'000, MovieBytes(3'000'000, 3600)}, {2, 0}});
    return deploy;
  }

  // On the paper's fail-over clocks, as in bench_failover's E1e: the CMgr
  // standby takes over about 10 s after the crash.
  static svc::HarnessOptions CrashHarnessOptions() {
    svc::HarnessOptions opts = MakeHarnessOptions();
    opts.server_count = 4;
    opts.neighborhood_count = 4;
    opts.ns.audit_interval = Duration::Seconds(10);
    opts.ras.peer_poll_interval = Duration::Seconds(5);
    opts.ras.peer_failures_to_dead = 1;
    opts.ras.rpc_timeout = Duration::Seconds(1);
    opts.binder.retry_interval = Duration::Seconds(10);
    return opts;
  }

  sim::Node& home() { return harness_.server(kNeighborhood - 1); }

  // A VodApp that keeps retrying through the CMgr's fail-over.
  settop::VodApp* StartVod(const TestSettop& s) {
    settop::VodApp::Options opts;
    opts.mms_rebind.max_attempts = 50;
    opts.mms_rebind.initial_backoff = Duration::Millis(500);
    opts.mms_rebind.backoff_multiplier = 1.2;
    opts.mms_rebind.deadline = Duration::Seconds(60);
    return s.process->Emplace<settop::VodApp>(
        s.process->runtime(), s.process->executor(), s.am->name_client(), opts,
        &metrics());
  }

  struct Viewer {
    settop::VodApp* vod = nullptr;
    uint32_t host = 0;
  };

  // Two viewers of "local": the least-loaded pick puts one on each replica,
  // so one of them streams from the server that crashes. Returns that one.
  Viewer StartVictim() {
    TestSettop a = BootSettop(kNeighborhood);
    TestSettop b = BootSettop(kNeighborhood);
    Viewer viewers[] = {{StartVod(a), a.node->host()},
                        {StartVod(b), b.node->host()}};
    for (const Viewer& viewer : viewers) {
      viewer.vod->PlayMovie("local", [](Status) {});
      cluster().RunFor(Duration::Seconds(2));
    }
    cluster().RunFor(Duration::Seconds(8));
    Viewer victim;
    for (const Viewer& viewer : viewers) {
      EXPECT_TRUE(viewer.vod->playing());
      if (viewer.vod->mds_host() == home().host()) {
        victim = viewer;
      }
    }
    return victim;
  }
};

TEST_F(MediaHomeCrashTest, ColdOpenResolvesPastTheDeadHomeReplica) {
  TestSettop s = BootSettop(kNeighborhood);
  ASSERT_EQ(s.am->boot_params().ns_replicas.front(), home().host());
  home().Crash();
  Time crashed = cluster().Now();

  // A fresh VodApp: its open resolves svc/mms with nothing cached.
  settop::VodApp* vod = StartVod(s);
  uint64_t failovers = metrics().Get("naming.resolve_failover");
  vod->PlayMovie("T2", [](Status) {});
  while (vod->chunks_received() == 0 &&
         cluster().Now() - crashed < Duration::Seconds(30)) {
    cluster().RunFor(Duration::Millis(250));
  }
  EXPECT_GT(vod->chunks_received(), 0u)
      << "still waiting " << (cluster().Now() - crashed).ToString()
      << " after the crash";
  EXPECT_TRUE(vod->playing());
  EXPECT_GT(metrics().Get("naming.resolve_failover"), failovers);
}

TEST_F(MediaHomeCrashTest, PlayingViewerResumesBeforeAnyRestore) {
  Viewer victim = StartVictim();
  ASSERT_NE(victim.vod, nullptr);
  home().Crash();
  Time crashed = cluster().Now();
  cluster().RunFor(Duration::Seconds(1));
  uint64_t chunks = victim.vod->chunks_received();
  while (victim.vod->chunks_received() == chunks &&
         cluster().Now() - crashed < Duration::Seconds(40)) {
    cluster().RunFor(Duration::Millis(250));
  }
  EXPECT_GT(victim.vod->chunks_received(), chunks)
      << "no chunk " << (cluster().Now() - crashed).ToString()
      << " after the crash";
  EXPECT_TRUE(victim.vod->playing());
  EXPECT_EQ(victim.vod->mds_host(), harness_.HostOf(0));
}

TEST_F(MediaHomeCrashTest, InterruptedGrantIsReleasedThroughTheCmgrFailover) {
  // The viewer's reopen closes its dead session, and the MMS's Release of
  // that session's grant meets the neighborhood's CMgr primary dead with
  // server 3. The Release must outlast the standby's takeover: the grant
  // audit cannot reclaim a grant on a server that is down, so a dropped
  // Release would keep the settop's bandwidth until a restore.
  Viewer victim = StartVictim();
  ASSERT_NE(victim.vod, nullptr);
  sim::Process& probe = harness_.SpawnProcessOn(0, "probe");
  auto primary = harness_.ClientFor(probe).Resolve(CmgrName(kNeighborhood));
  cluster().RunFor(Duration::Seconds(1));
  ASSERT_TRUE(primary.is_ready() && primary.result().ok());
  ASSERT_EQ(primary.result()->endpoint.host, home().host());

  home().Crash();
  cluster().RunFor(Duration::Seconds(40));
  auto standby = harness_.ClientFor(probe).Resolve(CmgrName(kNeighborhood));
  cluster().RunFor(Duration::Seconds(1));
  ASSERT_TRUE(standby.is_ready() && standby.result().ok())
      << standby.result().status();
  ASSERT_EQ(standby.result()->endpoint.host, harness_.HostOf(3));
  auto grants =
      CmgrProxy(probe.runtime(), standby.result().value()).ListConnections();
  cluster().RunFor(Duration::Seconds(1));
  ASSERT_TRUE(grants.is_ready() && grants.result().ok());
  for (const ConnectionGrant& grant : grants.result().value()) {
    EXPECT_FALSE(grant.settop_host == victim.host &&
                 grant.server_host == home().host())
        << "connection " << grant.connection_id
        << " on the crashed server still held";
  }
}

TEST_F(MediaHomeCrashTest, RestartedCmgrThatWinsItsBindingBackHasItsTable) {
  // Neighborhood 1's primary CMgr process is killed, and its SSC restart
  // wins the binding back before the backup's next 10 s bind retry. It must
  // serve with the grants the trunks hold, not an empty table: the live
  // grant is listed, it counts against the settop's 6 Mb/s cap, and its
  // release succeeds.
  TestSettop s = MakeSettop(1);
  s.vod->PlayMovie("T2", [](Status) {});
  cluster().RunFor(Duration::Seconds(10));
  ASSERT_TRUE(s.vod->playing());
  auto before = GrantsOf(1);
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_EQ(before->size(), 1u);
  const ConnectionGrant grant = before->front();

  sim::Process& probe = harness_.SpawnProcessOn(0, "probe");
  auto primary = harness_.ClientFor(probe).Resolve(CmgrName(1));
  cluster().RunFor(Duration::Seconds(1));
  ASSERT_TRUE(primary.is_ready() && primary.result().ok());
  const wire::ObjectRef killed_ref = primary.result().value();
  sim::Node& node =
      harness_.server(killed_ref.endpoint.host == harness_.HostOf(0) ? 0 : 1);
  // Killed 8 s into the stream, the process's restart binds between the
  // audit's unbind and the backup's retry (checked below).
  cluster().RunFor(Duration::Seconds(4));
  uint64_t promotions = metrics().Get("cmgr.became_primary");
  node.Kill(node.FindProcessByName("cmgrd-1")->pid());
  Time killed = cluster().Now();
  while (metrics().Get("cmgr.became_primary") == promotions &&
         cluster().Now() - killed < Duration::Seconds(30)) {
    cluster().RunFor(Duration::Millis(50));
  }
  auto restarted = harness_.ClientFor(probe).Resolve(CmgrName(1));
  cluster().RunFor(Duration::Millis(100));
  ASSERT_TRUE(restarted.is_ready() && restarted.result().ok());
  ASSERT_EQ(restarted.result()->endpoint.host, killed_ref.endpoint.host)
      << "the backup won the binding";
  ASSERT_NE(restarted.result().value(), killed_ref);

  CmgrProxy cmgr(probe.runtime(), restarted.result().value());
  auto listed = cmgr.ListConnections();
  auto over_cap = cmgr.Allocate(grant.settop_host, harness_.HostOf(0),
                                4'000'000, /*allow_partial=*/false);
  cluster().RunFor(Duration::Millis(500));
  ASSERT_TRUE(listed.is_ready() && listed.result().ok());
  EXPECT_EQ(listed.result().value(), std::vector<ConnectionGrant>{grant});
  ASSERT_TRUE(over_cap.is_ready());
  EXPECT_TRUE(IsResourceExhausted(over_cap.result().status()))
      << over_cap.result().status();
  auto released = cmgr.Release(grant.connection_id);
  cluster().RunFor(Duration::Millis(500));
  ASSERT_TRUE(released.is_ready());
  EXPECT_TRUE(released.result().ok()) << released.result().status();

  // Only the primary lists its table: a backup's is not served.
  const uint32_t backup_host = harness_.HostOf(
      killed_ref.endpoint.host == harness_.HostOf(0) ? 1 : 0);
  auto objects = svc::SscProxy(probe.runtime(), svc::SscRefAt(backup_host))
                     .ListObjects();
  cluster().RunFor(Duration::Millis(500));
  ASSERT_TRUE(objects.is_ready() && objects.result().ok());
  const std::vector<wire::Endpoint> backups = EndpointsOf("cmgrd-1");
  wire::ObjectRef backup;
  for (const wire::ObjectRef& ref : *objects.result()) {
    if (ref.endpoint.host == backup_host && IsOneOf(backups, ref.endpoint)) {
      backup = ref;
    }
  }
  ASSERT_EQ(backup.endpoint.host, backup_host);
  auto unserved = CmgrProxy(probe.runtime(), backup).ListConnections();
  cluster().RunFor(Duration::Millis(500));
  ASSERT_TRUE(unserved.is_ready());
  EXPECT_TRUE(IsUnavailable(unserved.result().status()))
      << unserved.result().status();
}

// The MMS's sync round runs every 20 s, slower than the name service
// unbinds a dead server's objects.
class MediaHomeCrashSlowSyncTest : public MediaHomeCrashTest {
 protected:
  MediaHomeCrashSlowSyncTest() : MediaHomeCrashTest(SlowSyncDeployment()) {}

  static MediaDeployment SlowSyncDeployment() {
    MediaDeployment deploy = CrashDeployment();
    deploy.mms.mds_refresh_interval = Duration::Seconds(20);
    return deploy;
  }

  // Crashes server 3 just after the MMS's round has heard from its MDS, so
  // the MMS lists that MDS as alive until its next round, 20 s later.
  void CrashJustAfterMmsSync() {
    sim::Process& probe = harness_.SpawnProcessOn(0, "probe");
    auto mms = harness_.ClientFor(probe).Resolve(std::string(kMmsName));
    cluster().RunFor(Duration::Seconds(1));
    ASSERT_TRUE(mms.is_ready() && mms.result().ok());
    const uint32_t mms_host = mms.result()->endpoint.host;
    // The MMS's Sync request to server 3's MDS, then its reply.
    uint64_t sync_call = 0;
    bool synced = false;
    cluster().network().SetTap([&, mms_host, mds_host = home().host()](
                                   const wire::Endpoint& src,
                                   const wire::Endpoint& dst,
                                   const wire::Message& msg) {
      if (msg.kind == wire::MsgKind::kRequest && src.host == mms_host &&
          dst.host == mds_host &&
          msg.type_id == wire::TypeIdFromName(kMdsInterface) &&
          msg.method_id == kMdsMethodSync) {
        sync_call = msg.call_id;
      } else if (msg.kind == wire::MsgKind::kReply && sync_call != 0 &&
                 msg.call_id == sync_call && src.host == mds_host) {
        synced = true;
      }
    });
    for (int step = 0; step < 250 && !synced; ++step) {
      cluster().RunFor(Duration::Millis(100));
    }
    cluster().network().SetTap(nullptr);
    ASSERT_TRUE(synced);
    home().Crash();
  }
};

TEST_F(MediaHomeCrashSlowSyncTest, MmsStopsOfferingAnMdsTheNameServiceUnbound) {
  // "local" is on servers 3 and 1, and one stream of it on server 1 makes
  // server 3 the MMS's least-loaded pick. Server 3 crashes just after the
  // MMS's round has heard from its MDS, and the name service unbinds that
  // MDS before the next round, so no Sync to it ever fails. The next round
  // must stop offering it: a later open goes to server 1 instead of failing
  // on the dead server's unbound trunk (NOT_FOUND, which no viewer retries).
  TestSettop a = BootSettop(1);
  settop::VodApp* first = StartVod(a);
  first->PlayMovie("local", [](Status) {});
  cluster().RunFor(Duration::Seconds(3));
  ASSERT_TRUE(first->playing());
  ASSERT_EQ(first->mds_host(), harness_.HostOf(0));

  ASSERT_NO_FATAL_FAILURE(CrashJustAfterMmsSync());
  cluster().RunFor(Duration::Seconds(25));  // Unbound, then one more round.

  TestSettop b = BootSettop(1);
  settop::VodApp* second = StartVod(b);
  Status opened = OkStatus();
  second->PlayMovie("local", [&opened](Status s) { opened = s; });
  cluster().RunFor(Duration::Seconds(5));
  EXPECT_TRUE(opened.ok()) << opened;
  EXPECT_TRUE(second->playing());
  EXPECT_EQ(second->mds_host(), harness_.HostOf(0));
}

TEST_F(MediaHomeCrashSlowSyncTest, ReopenTriesTheQuietReplicaLast) {
  // A viewer of neighborhood 1, whose CMgr survives, streams "local" from
  // server 3, the less loaded of its two replicas. Server 3 crashes just
  // after an MMS round, so the viewer's reopen reaches an MMS that still
  // lists server 3's MDS and would pick it first. An open there stalls on
  // the dead server's trunk past the settop's 2 s Open timeout, and the
  // settop sends it again. The reopen names server 3 as the MDS that went
  // quiet, so the MMS tries server 1 first: one Open, answered, and the
  // viewer is dark for little more than its data-gap timeout.
  std::vector<settop::VodApp*> vods;
  std::vector<uint32_t> hosts;
  for (int i = 0; i < 3; ++i) {
    TestSettop s = BootSettop(1);
    vods.push_back(StartVod(s));
    hosts.push_back(s.node->host());
    vods.back()->PlayMovie("local", [](Status) {});
    cluster().RunFor(Duration::Seconds(2));
  }
  // Equal loads pick server 1, so server 1 streams to the first and third
  // viewers and server 3 to the second.
  settop::VodApp* victim = vods[1];
  ASSERT_EQ(vods[0]->mds_host(), harness_.HostOf(0));
  ASSERT_EQ(victim->mds_host(), home().host());
  ASSERT_EQ(vods[2]->mds_host(), harness_.HostOf(0));

  const uint32_t victim_host = hosts[1];
  size_t opens_sent = 0;
  ASSERT_NO_FATAL_FAILURE(CrashJustAfterMmsSync());
  const Time crashed = cluster().Now();
  cluster().network().SetTap([&](const wire::Endpoint& src,
                                 const wire::Endpoint&,
                                 const wire::Message& msg) {
    if (msg.kind == wire::MsgKind::kRequest && src.host == victim_host &&
        msg.type_id == wire::TypeIdFromName(kMmsInterface) &&
        msg.method_id == kMmsMethodOpen) {
      ++opens_sent;
    }
  });
  const uint64_t reordered = metrics().Get("mms.open_quiet_last");
  const uint64_t chunks = victim->chunks_received();
  while (victim->chunks_received() == chunks &&
         cluster().Now() - crashed < Duration::Seconds(15)) {
    cluster().RunFor(Duration::Millis(100));
  }
  const Duration dark = cluster().Now() - crashed;
  cluster().network().SetTap(nullptr);

  EXPECT_TRUE(victim->playing());
  EXPECT_EQ(victim->mds_host(), harness_.HostOf(0));
  EXPECT_EQ(opens_sent, 1u) << "the settop timed out on its Open and sent it "
                               "again";
  EXPECT_LT(dark, settop::VodApp::Options().data_gap_timeout +
                      Duration::Seconds(1))
      << "dark " << dark.ToString();
  EXPECT_EQ(metrics().Get("mms.open_quiet_last"), reordered + 1);
}

class MediaReorderTest : public MediaTest {
 protected:
  MediaReorderTest() : MediaTest(ReorderDeployment()) {}

  static MediaDeployment ReorderDeployment() {
    MediaDeployment deploy = DefaultDeployment();
    deploy.mds_capacity_bps = 400'000'000;
    // A pool turns on the shard's admission ledger so it can be audited.
    deploy.mms_admission_pool_bps = 400'000'000;
    deploy.mms.mds_refresh_interval = Duration::Millis(500);
    return deploy;
  }
};

TEST_F(MediaReorderTest, SyncReplyOvertakingAnOpenReplyLeavesOneSession) {
  // Reorder faults hold replies back while the primary syncs every 0.5 s, so
  // a sync reply the MDS wrote after an open can reach the MMS before that
  // open's reply. Both describe one stream: the MMS must hold it once and
  // charge its admission pool for it once.
  constexpr int64_t kBitrateBps = 3'000'000;
  cluster().network().SeedFaultRng(5);
  std::vector<settop::VodApp*> viewers;
  for (int i = 0; i < 16; ++i) {
    sim::Node& settop = harness_.AddSettop(static_cast<uint8_t>(1 + i % 2));
    sim::Process& p = settop.Spawn("viewer");
    viewers.push_back(p.Emplace<settop::VodApp>(
        p.runtime(), p.executor(), harness_.ClientFor(p),
        settop::VodApp::Options(), &metrics()));
  }
  sim::Process& probe = harness_.SpawnProcessOn(0, "probe");
  auto ref = harness_.ClientFor(probe).Resolve(std::string(kMmsName));
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(ref.is_ready() && ref.result().ok());
  MmsProxy mms(probe.runtime(), ref.result().value());

  for (int batch = 0; batch < 12; ++batch) {
    sim::NetworkFaultOptions faults;
    faults.reorder_rate = 0.5;
    faults.reorder_hold_min = Duration::Millis(20);
    faults.reorder_hold_max = Duration::Millis(200);
    cluster().network().SetFaultInjection(faults);
    for (size_t i = 0; i < viewers.size(); ++i) {
      cluster().scheduler().ScheduleAfter(
          Duration::Millis(static_cast<int64_t>(37 * i)), [&, i] {
            viewers[i]->PlayMovie(i % 3 == 0 ? "solo" : "T2", [](Status) {});
          });
    }
    cluster().RunFor(Duration::Seconds(3));
    cluster().network().ClearFaultInjection();
    cluster().RunFor(Duration::Seconds(2));  // A few fault-free rounds.

    auto held = mms.ListSessions();
    auto admission = mms.GetAdmission();
    cluster().RunFor(Duration::Seconds(1));
    ASSERT_TRUE(held.is_ready() && held.result().ok());
    ASSERT_TRUE(admission.is_ready() && admission.result().ok());
    auto load1 = LoadOfMds(0);
    auto load2 = LoadOfMds(1);
    ASSERT_TRUE(load1.ok() && load2.ok());
    uint32_t streams = load1->active_streams + load2->active_streams;
    EXPECT_EQ(*held.result(), streams) << "batch " << batch;
    EXPECT_EQ(admission.result()->reserved_bps, streams * kBitrateBps)
        << "batch " << batch;

    for (settop::VodApp* vod : viewers) {
      vod->Stop();
    }
    cluster().RunFor(Duration::Seconds(2));
  }
  // The race did happen.
  EXPECT_GT(metrics().Get("mms.open_overtaken"), 0u);
}

}  // namespace
}  // namespace itv::media
