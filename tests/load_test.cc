// Load subsystem tests: the AdmissionController's watermark hysteresis and
// grant/adopt/release ledger, the retry-after hint round-trip, the load
// board's staleness decay and out-of-order-sequence handling, and an
// end-to-end check that a booted media deployment populates the board.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/load/admission.h"
#include "src/load/load_board.h"
#include "src/media/factories.h"
#include "src/svc/harness.h"

namespace itv::load {
namespace {

// ---------------------------------------------------------------------------
// AdmissionController

TEST(AdmissionControllerTest, DisabledPoolAdmitsEverything) {
  AdmissionController admission;  // pool_bps == 0: admission off.
  EXPECT_FALSE(admission.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(admission.TryAdmit(1'000'000'000).ok());
  }
  EXPECT_EQ(admission.reserved_bps(), 0);
  EXPECT_EQ(admission.rejects(), 0u);
}

TEST(AdmissionControllerTest, PoolEnforcedAndPeakTracked) {
  AdmissionController::Options options;
  options.pool_bps = 10'000'000;
  AdmissionController admission(options);

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(admission.TryAdmit(3'000'000).ok());
  }
  EXPECT_EQ(admission.reserved_bps(), 9'000'000);
  EXPECT_EQ(admission.peak_granted_bps(), 9'000'000);

  Status shed = admission.TryAdmit(3'000'000);
  EXPECT_TRUE(IsResourceExhausted(shed));
  EXPECT_TRUE(admission.shedding());
  EXPECT_EQ(admission.rejects(), 1u);
  // The shed grant never entered the ledger.
  EXPECT_EQ(admission.reserved_bps(), 9'000'000);
  EXPECT_EQ(admission.peak_granted_bps(), 9'000'000);
}

TEST(AdmissionControllerTest, HysteresisShedsUntilLowWatermark) {
  AdmissionController::Options options;
  options.pool_bps = 10'000'000;
  options.high_watermark = 1.0;
  options.low_watermark = 0.5;
  AdmissionController admission(options);

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(admission.TryAdmit(1'000'000).ok());
  }
  EXPECT_TRUE(IsResourceExhausted(admission.TryAdmit(1'000'000)));
  EXPECT_TRUE(admission.shedding());

  // Draining to just above the low watermark keeps the shard shedding even
  // though the pool now has room for the grant.
  admission.Release(4'000'000);  // reserved 6M > low mark 5M
  EXPECT_TRUE(IsResourceExhausted(admission.TryAdmit(1'000'000)));
  EXPECT_TRUE(admission.shedding());

  // At or below the low watermark, admission resumes.
  admission.Release(1'000'000);  // reserved 5M == low mark
  EXPECT_TRUE(admission.TryAdmit(1'000'000).ok());
  EXPECT_FALSE(admission.shedding());
  EXPECT_EQ(admission.reserved_bps(), 6'000'000);
}

TEST(AdmissionControllerTest, AdoptAccountsButNeverRejectsOrMovesPeak) {
  AdmissionController::Options options;
  options.pool_bps = 10'000'000;
  AdmissionController admission(options);

  // An inherited ledger may exceed the pool (fail-over rebuild): it is
  // accounted, keeps new grants shedding, but never counts as granted.
  admission.Adopt(12'000'000);
  EXPECT_EQ(admission.reserved_bps(), 12'000'000);
  EXPECT_EQ(admission.peak_granted_bps(), 0);
  EXPECT_TRUE(IsResourceExhausted(admission.TryAdmit(1'000'000)));

  // Closes drain the inherited load and grants resume; peak only ever
  // reflects what THIS controller granted.
  admission.Release(12'000'000);
  EXPECT_TRUE(admission.TryAdmit(2'000'000).ok());
  EXPECT_EQ(admission.peak_granted_bps(), 2'000'000);
}

TEST(AdmissionControllerTest, ReleaseClampsAtZero) {
  AdmissionController::Options options;
  options.pool_bps = 10'000'000;
  AdmissionController admission(options);
  ASSERT_TRUE(admission.TryAdmit(1'000'000).ok());
  admission.Release(5'000'000);
  EXPECT_EQ(admission.reserved_bps(), 0);
}

TEST(AdmissionControllerTest, RetryAfterHintRoundTrip) {
  Status shed = ResourceExhaustedError(
      AppendRetryAfter("pool exhausted", Duration::Millis(2500)));
  EXPECT_EQ(RetryAfterHint(shed), Duration::Millis(2500));
  EXPECT_EQ(RetryAfterHint(OkStatus()), Duration());
  EXPECT_EQ(RetryAfterHint(ResourceExhaustedError("no hint here")),
            Duration());
}

// ---------------------------------------------------------------------------
// LoadBoardService: staleness decay and sequence handling, on simulated time.

class LoadBoardTest : public ::testing::Test {
 protected:
  LoadBoardTest() : harness_(MakeOptions()) {
    harness_.Boot();
    cluster().RunFor(Duration::Seconds(1));
    process_ = &harness_.SpawnProcessOn(0, "board");
    LoadBoardService::Options options;
    options.entry_ttl = Duration::Seconds(10);
    board_ = process_->Emplace<LoadBoardService>(
        process_->runtime(), process_->executor(), options,
        &harness_.metrics());
  }

  static svc::HarnessOptions MakeOptions() {
    svc::HarnessOptions opts;
    opts.server_count = 1;
    opts.start_csc = false;
    return opts;
  }

  sim::Cluster& cluster() { return harness_.cluster(); }

  static LoadReport Report(const std::string& reporter, uint64_t seq,
                           int64_t reserved = 1'000'000) {
    LoadReport report;
    report.reporter = reporter;
    report.active_streams = 1;
    report.reserved_bps = reserved;
    report.capacity_bps = 48'000'000;
    report.seq = seq;
    return report;
  }

  Status Publish(const LoadReport& report) {
    Status out = UnknownError("no reply");
    board_->Dispatch(kLoadBoardMethodReport, rpc::EncodeArgs(report),
                     rpc::CallContext{},
                     [&out](Status status, wire::Bytes) { out = status; });
    return out;
  }

  svc::ClusterHarness harness_;
  sim::Process* process_ = nullptr;
  LoadBoardService* board_ = nullptr;
};

TEST_F(LoadBoardTest, ServesFreshEntriesAndPrefixFilters) {
  ASSERT_TRUE(Publish(Report("svc/mds/1", 1)).ok());
  ASSERT_TRUE(Publish(Report("svc/mds/2", 1)).ok());
  ASSERT_TRUE(Publish(Report("svc/mms/3", 1)).ok());

  EXPECT_EQ(board_->SnapshotFresh("").size(), 3u);
  std::vector<LoadReport> mds = board_->SnapshotFresh("svc/mds/");
  ASSERT_EQ(mds.size(), 2u);
  EXPECT_EQ(mds[0].reporter, "svc/mds/1");
  EXPECT_EQ(mds[1].reporter, "svc/mds/2");
  EXPECT_EQ(board_->SnapshotFresh("svc/mms").size(), 1u);
}

TEST_F(LoadBoardTest, EntriesDecayPastTtl) {
  ASSERT_TRUE(Publish(Report("svc/mds/1", 1)).ok());
  cluster().RunFor(Duration::Seconds(8));
  // Refreshed entries survive; silent ones decay.
  ASSERT_TRUE(Publish(Report("svc/mds/1", 2)).ok());
  ASSERT_TRUE(Publish(Report("svc/mds/2", 1)).ok());
  cluster().RunFor(Duration::Seconds(8));
  ASSERT_TRUE(Publish(Report("svc/mds/1", 3)).ok());

  cluster().RunFor(Duration::Seconds(4));  // mds/2 now 12 s old, mds/1 4 s.
  std::vector<LoadReport> fresh = board_->SnapshotFresh("");
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].reporter, "svc/mds/1");
  EXPECT_EQ(fresh[0].seq, 3u);
  // The decayed entry was erased on the snapshot pass, not just filtered.
  EXPECT_EQ(board_->entry_count(), 1u);
}

TEST_F(LoadBoardTest, DropsOutOfOrderReportsWithinTtl) {
  ASSERT_TRUE(Publish(Report("svc/mds/1", 10, 5'000'000)).ok());
  // A delayed report from behind the current sequence is dropped.
  ASSERT_TRUE(Publish(Report("svc/mds/1", 4, 9'000'000)).ok());
  std::vector<LoadReport> fresh = board_->SnapshotFresh("");
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].seq, 10u);
  EXPECT_EQ(fresh[0].reserved_bps, 5'000'000);

  // Equal sequence refreshes in place (producers may re-publish a sample).
  ASSERT_TRUE(Publish(Report("svc/mds/1", 10, 6'000'000)).ok());
  EXPECT_EQ(board_->SnapshotFresh("")[0].reserved_bps, 6'000'000);
}

TEST_F(LoadBoardTest, RestartedProducerOverridesStaleSequence) {
  ASSERT_TRUE(Publish(Report("svc/mds/1", 1000)).ok());
  cluster().RunFor(Duration::Seconds(12));
  // Past the TTL the old sequence has no authority: a restarted producer
  // reporting from a lower (new-incarnation) sequence takes over.
  ASSERT_TRUE(Publish(Report("svc/mds/1", 7, 2'000'000)).ok());
  std::vector<LoadReport> fresh = board_->SnapshotFresh("");
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].seq, 7u);
}

TEST_F(LoadBoardTest, RejectsEmptyReporter) {
  EXPECT_FALSE(Publish(Report("", 1)).ok());
  EXPECT_EQ(board_->entry_count(), 0u);
}

// ---------------------------------------------------------------------------
// End to end: a booted media deployment feeds the board through the
// ServiceLifecycle reporters of its MMS shard primaries, and through nothing
// else (the MMS reads MDS load from its sync round, and no one reads CMgr
// load).

TEST(LoadBoardIntegrationTest, MediaDeploymentPopulatesBoard) {
  svc::HarnessOptions harness_options;
  harness_options.server_count = 2;
  svc::ClusterHarness harness(harness_options);
  media::MediaDeployment deploy;
  deploy.movies = {{media::MovieInfo{"T2", 3'000'000, 3'000'000 / 8 * 3600},
                    {0, 1}}};
  media::RegisterMediaServices(harness, deploy);
  harness.Boot();
  harness.cluster().RunFor(Duration::Seconds(15));

  sim::Process& probe = harness.SpawnProcessOn(0, "probe");
  auto ref = harness.ClientFor(probe).Resolve(std::string(kLoadBoardName));
  harness.cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(ref.is_ready() && ref.result().ok());

  LoadBoardProxy board(probe.runtime(), ref.result().value());
  auto all = board.Snapshot("");
  harness.cluster().RunFor(Duration::Seconds(1));
  ASSERT_TRUE(all.is_ready() && all.result().ok());

  size_t mms_reports = 0;
  for (const LoadReport& report : all.result().value()) {
    EXPECT_EQ(report.reporter.rfind("svc/mds/", 0), std::string::npos)
        << report.reporter;
    EXPECT_EQ(report.reporter.rfind("svc/cmgr/", 0), std::string::npos)
        << report.reporter;
    mms_reports += report.reporter.rfind("svc/mms", 0) == 0;
    EXPECT_GT(report.seq, 0u);
  }
  EXPECT_EQ(mms_reports, 1u);  // The unsharded MMS's one primary.
  EXPECT_EQ(mms_reports, all.result().value().size());
}

}  // namespace
}  // namespace itv::load
