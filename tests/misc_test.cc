// Coverage for the smaller substrate surfaces: stub helpers, metrics,
// logging sinks, the real event loop's fd watching, and admission edge cases
// that the integration suites do not isolate.

#include <gtest/gtest.h>
#include <unistd.h>

#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/media/factories.h"
#include "src/net/event_loop.h"
#include "src/ras/audit_client.h"
#include "src/rpc/stub_helpers.h"
#include "src/settop/vod_app.h"
#include "src/svc/harness.h"

namespace itv {
namespace {

// --- Stub helpers ---------------------------------------------------------------

TEST(StubHelpersTest, EncodeDecodeArgsRoundTrip) {
  std::string s = "movie";
  uint32_t u = 7;
  std::vector<int64_t> v{1, -2, 3};
  wire::Bytes b = rpc::EncodeArgs(s, u, v);

  std::string s2;
  uint32_t u2 = 0;
  std::vector<int64_t> v2;
  ASSERT_TRUE(rpc::DecodeArgs(b, &s2, &u2, &v2));
  EXPECT_EQ(s2, s);
  EXPECT_EQ(u2, u);
  EXPECT_EQ(v2, v);
}

TEST(StubHelpersTest, DecodeArgsRejectsTrailingAndMissingBytes) {
  wire::Bytes b = rpc::EncodeArgs(uint32_t{1}, uint32_t{2});
  uint32_t a = 0;
  EXPECT_FALSE(rpc::DecodeArgs(b, &a));  // Trailing bytes.
  uint32_t x = 0, y = 0, z = 0;
  EXPECT_FALSE(rpc::DecodeArgs(b, &x, &y, &z));  // Missing bytes.
}

TEST(StubHelpersTest, EmptyArgListsWork) {
  wire::Bytes b = rpc::EncodeArgs();
  EXPECT_TRUE(b.empty());
  EXPECT_TRUE(rpc::DecodeArgs(b));
}

TEST(StubHelpersTest, ReplyFromFutureForwardsValueAndError) {
  Status got_status = OkStatus();
  wire::Bytes got_payload;
  rpc::ReplyFn reply = [&](Status s, wire::Bytes payload) {
    got_status = std::move(s);
    got_payload = std::move(payload);
  };

  Promise<int64_t> ok;
  rpc::ReplyFromFuture(reply, ok.future());
  ok.Set(int64_t{42});
  ASSERT_TRUE(got_status.ok());
  int64_t out = 0;
  ASSERT_TRUE(rpc::DecodeArgs(got_payload, &out));
  EXPECT_EQ(out, 42);

  Promise<int64_t> bad;
  rpc::ReplyFromFuture(reply, bad.future());
  bad.Set(NotFoundError("gone"));
  EXPECT_TRUE(IsNotFound(got_status));
}

// --- Metrics --------------------------------------------------------------------

TEST(MetricsTest, CountersGaugesAndPrefixSums) {
  Metrics m;
  m.Add("net.msg.request", 3);
  m.Add("net.msg.reply");
  m.Add("rpc.timeout");
  m.SetGauge("streams", 12);

  EXPECT_EQ(m.Get("net.msg.request"), 3u);
  EXPECT_EQ(m.Get("missing"), 0u);
  EXPECT_EQ(m.SumPrefix("net.msg."), 4u);
  EXPECT_EQ(m.SumPrefix("nothing."), 0u);
  EXPECT_EQ(m.GetGauge("streams"), 12);
  m.Reset();
  EXPECT_EQ(m.Get("net.msg.request"), 0u);
}

// --- Logging --------------------------------------------------------------------

TEST(LoggingTest, SinkReceivesFormattedRecordsAboveThreshold) {
  std::vector<std::pair<LogLevel, std::string>> captured;
  SetLogSink([&](LogLevel level, Time, const std::string*,
                 const std::string& message) {
    captured.emplace_back(level, message);
  });
  LogLevel before = MinLogLevel();
  SetMinLogLevel(LogLevel::kInfo);

  ITV_LOG(Debug) << "hidden";
  ITV_LOG(Info) << "shown " << 42;
  ITV_LOG(Error) << "also shown";

  SetMinLogLevel(before);
  SetLogSink(nullptr);

  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].first, LogLevel::kInfo);
  EXPECT_NE(captured[0].second.find("shown 42"), std::string::npos);
  EXPECT_EQ(captured[1].first, LogLevel::kError);
}

TEST(LoggingTest, TimeSourceStampsRecords) {
  Time seen;
  SetLogSink([&](LogLevel, Time t, const std::string*, const std::string&) {
    seen = t;
  });
  SetLogTimeSource([] { return Time::FromNanos(5'000'000'000); });
  LogLevel before = MinLogLevel();
  SetMinLogLevel(LogLevel::kInfo);
  ITV_LOG(Info) << "x";
  SetMinLogLevel(before);
  SetLogTimeSource(nullptr);
  SetLogSink(nullptr);
  EXPECT_EQ(seen, Time::FromNanos(5'000'000'000));
}

// --- EventLoop fd watching ---------------------------------------------------------

TEST(EventLoopFdTest, PipeReadinessDeliversCallbacks) {
  net::EventLoop loop;
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);

  std::string received;
  loop.WatchFd(fds[0], /*want_read=*/true, /*want_write=*/false,
               [&](bool readable, bool) {
                 if (!readable) {
                   return;
                 }
                 char buf[16];
                 ssize_t n = read(fds[0], buf, sizeof(buf));
                 if (n > 0) {
                   received.assign(buf, static_cast<size_t>(n));
                   loop.Stop();
                 }
               });
  loop.ScheduleAfter(Duration::Millis(5), [&] {
    ASSERT_EQ(write(fds[1], "ping", 4), 4);
  });
  loop.RunFor(Duration::Seconds(2));
  EXPECT_EQ(received, "ping");

  loop.UnwatchFd(fds[0]);
  close(fds[0]);
  close(fds[1]);
}

// --- Audit fail-safe ---------------------------------------------------------------

TEST(AuditFailSafeTest, UnreachableRasMeansEveryoneAlive) {
  // The name service must never unbind on missing evidence: if the local RAS
  // is down, the audit adapter reports every object alive.
  sim::Cluster cluster;
  sim::Node& node = cluster.AddServer("lonely");
  sim::Process& p = node.Spawn("nsd-like");
  ras::NamingAuditAdapter adapter(p.runtime(), ras::RasRefAt(node.host()));

  std::vector<wire::ObjectRef> refs(3);
  for (size_t i = 0; i < refs.size(); ++i) {
    refs[i].endpoint = {node.host(), 999};
    refs[i].incarnation = i + 1;
  }
  std::vector<uint8_t> alive;
  adapter.CheckObjects(refs, [&](std::vector<uint8_t> a) { alive = std::move(a); });
  cluster.RunFor(Duration::Seconds(5));
  ASSERT_EQ(alive.size(), 3u);
  EXPECT_EQ(alive, (std::vector<uint8_t>{1, 1, 1}));
}

// --- Determinism ---------------------------------------------------------------------
// The simulator's whole value is reproducibility: two identically-driven
// clusters must produce byte-identical metric histories.

TEST(DeterminismTest, IdenticalRunsProduceIdenticalMetrics) {
  auto run_once = [] {
    svc::HarnessOptions opts;
    opts.server_count = 3;
    opts.neighborhood_count = 3;
    svc::ClusterHarness harness(opts);
    media::MediaDeployment deploy;
    deploy.movies = media::SyntheticCatalog(5, 3, 2);
    deploy.rds_items = {{"vod", 1'000'000}};
    media::RegisterMediaServices(harness, deploy);
    harness.Boot();
    harness.cluster().RunFor(Duration::Seconds(10));

    // A little workload incl. a failure.
    for (uint8_t nb = 1; nb <= 3; ++nb) {
      sim::Node& settop = harness.AddSettop(nb);
      sim::Process& p = settop.Spawn("viewer");
      auto* vod = p.Emplace<settop::VodApp>(
          p.runtime(), p.executor(), harness.ClientFor(p),
          settop::VodApp::Options{}, &harness.metrics());
      vod->PlayMovie("movie-0", [](Status) {});
    }
    harness.cluster().RunFor(Duration::Seconds(10));
    sim::Process* mdsd = harness.server(0).FindProcessByName("mdsd");
    if (mdsd != nullptr) {
      harness.server(0).Kill(mdsd->pid());
    }
    harness.cluster().RunFor(Duration::Seconds(30));
    return harness.metrics().counters();
  };

  auto first = run_once();
  auto second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_GT(first.at("mms.open_ok"), 0u);
}

// --- Trunk (server-side) admission -------------------------------------------------

TEST(TrunkAdmissionTest, ServerTrunkCapacityLimitsAcrossSettops) {
  // Per-settop caps alone cannot protect a server's ATM trunk: many settops
  // of one neighborhood share it. With a 9 Mb/s trunk, three 3 Mb/s streams
  // from THREE different settops fit; the fourth is refused by the trunk.
  svc::HarnessOptions opts;
  opts.server_count = 1;
  opts.neighborhood_count = 1;
  svc::ClusterHarness harness(opts);
  media::MediaDeployment deploy;
  deploy.movies = {
      {media::MovieInfo{"T2", 3'000'000, int64_t{3'000'000} / 8 * 600}, {0}},
  };
  deploy.trunk_capacity_bps = 9'000'000;
  deploy.mds_capacity_bps = 48'000'000;  // Not the binding constraint here.
  media::RegisterMediaServices(harness, deploy);
  harness.Boot();
  harness.cluster().RunFor(Duration::Seconds(10));

  sim::Process& probe = harness.SpawnProcessOn(0, "probe");
  auto mms_ref = harness.ClientFor(probe).Resolve(std::string(media::kMmsName));
  harness.cluster().RunFor(Duration::Seconds(3));
  ASSERT_TRUE(mms_ref.is_ready() && mms_ref.result().ok());
  media::MmsProxy mms(probe.runtime(), mms_ref.result().value());

  int granted = 0;
  Status last = OkStatus();
  for (int i = 0; i < 4; ++i) {
    sim::Node& settop = harness.AddSettop(1);
    auto open = mms.Open("T2", settop.host(), wire::ObjectRef{}, 0);
    harness.cluster().RunFor(Duration::Seconds(1));
    ASSERT_TRUE(open.is_ready());
    if (open.result().ok()) {
      ++granted;
    } else {
      last = open.result().status();
    }
  }
  EXPECT_EQ(granted, 3);
  EXPECT_TRUE(IsResourceExhausted(last)) << last;
  EXPECT_GE(harness.metrics().Get("cmgr.trunk_exhausted"), 1u);
}

// --- MMS admission edge: every replica full --------------------------------------

TEST(MmsAdmissionTest, CapacityExhaustionIsResourceExhaustedNotNotFound) {
  svc::HarnessOptions opts;
  opts.server_count = 2;
  svc::ClusterHarness harness(opts);
  media::MediaDeployment deploy;
  // One title on both servers, but each MDS admits exactly ONE 3 Mb/s stream.
  deploy.movies = {
      {media::MovieInfo{"tiny", 3'000'000, int64_t{3'000'000} / 8 * 600}, {0, 1}},
  };
  deploy.mds_capacity_bps = 3'000'000;
  media::RegisterMediaServices(harness, deploy);
  harness.Boot();
  harness.cluster().RunFor(Duration::Seconds(10));

  sim::Process& probe = harness.SpawnProcessOn(0, "probe");
  auto mms_ref = harness.ClientFor(probe).Resolve(std::string(media::kMmsName));
  harness.cluster().RunFor(Duration::Seconds(3));
  ASSERT_TRUE(mms_ref.is_ready() && mms_ref.result().ok());
  media::MmsProxy mms(probe.runtime(), mms_ref.result().value());

  std::vector<Future<media::MmsTicket>> opens;
  for (int i = 0; i < 3; ++i) {
    sim::Node& settop = harness.AddSettop(1);
    opens.push_back(mms.Open("tiny", settop.host(), wire::ObjectRef{}, 0));
    harness.cluster().RunFor(Duration::Seconds(1));
  }
  harness.cluster().RunFor(Duration::Seconds(3));
  ASSERT_TRUE(opens[0].is_ready() && opens[0].result().ok())
      << opens[0].result().status();
  ASSERT_TRUE(opens[1].is_ready() && opens[1].result().ok())
      << opens[1].result().status();
  ASSERT_TRUE(opens[2].is_ready());
  EXPECT_TRUE(IsResourceExhausted(opens[2].result().status()))
      << opens[2].result().status();

  // And an unknown title is a catalog miss, not capacity.
  sim::Node& settop = harness.AddSettop(1);
  auto missing = mms.Open("no-such-movie", settop.host(), wire::ObjectRef{}, 0);
  harness.cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(missing.is_ready());
  EXPECT_TRUE(IsNotFound(missing.result().status()));
}

}  // namespace
}  // namespace itv
