// Service controllers + full-cluster integration (paper Sections 6 and 8):
// boot sequence, SSC restart-on-failure, CSC placement/fail-over, and the
// end-to-end server-failure recovery path.

#include <gtest/gtest.h>

#include "src/svc/csc.h"
#include "src/svc/harness.h"
#include "src/svc/settop_manager.h"
#include "src/svc/ssc.h"

namespace itv::svc {
namespace {

// A trivial registerable service type: exports one counter object and binds
// it under a primary/backup name.
inline constexpr std::string_view kCounterInterface = "itv.test.Counter";

class CounterSkeleton : public rpc::Skeleton {
 public:
  std::string_view interface_name() const override { return kCounterInterface; }
  void Dispatch(uint32_t method_id, const wire::Bytes& args,
                const rpc::CallContext& ctx, rpc::ReplyFn reply) override {
    if (method_id != 1) {
      return rpc::ReplyBadMethod(reply, method_id);
    }
    return rpc::ReplyWith(reply, ++count_);
  }

 private:
  uint64_t count_ = 0;
};

class CounterProxy : public rpc::Proxy {
 public:
  using Proxy::Proxy;
  Future<uint64_t> Increment() const {
    return rpc::DecodeReply<uint64_t>(Call(1, {}));
  }
};

void RegisterCounterType(ClusterHarness& harness) {
  harness.RegisterServiceType("counterd", [](const ServiceContext& ctx) {
    auto* skel = ctx.process.Emplace<CounterSkeleton>();
    wire::ObjectRef ref = ctx.process.runtime().Export(skel);
    ctx.StartLifecycle("svc/counter", ref);
  });
}

class SvcTest : public ::testing::Test {
 protected:
  explicit SvcTest(size_t servers = 2) : harness_(MakeOptions(servers)) {
    RegisterCounterType(harness_);
  }

  static HarnessOptions MakeOptions(size_t servers) {
    HarnessOptions opts;
    opts.server_count = servers;
    return opts;
  }

  sim::Cluster& cluster() { return harness_.cluster(); }

  template <typename T>
  Result<T> Wait(Future<T> f, Duration limit = Duration::Seconds(5)) {
    cluster().RunFor(limit);
    if (!f.is_ready()) {
      return DeadlineExceededError("future not ready");
    }
    return f.result();
  }

  Result<wire::ObjectRef> ResolveAs(sim::Process& p, const std::string& path,
                                    Duration limit = Duration::Seconds(5)) {
    return Wait(harness_.ClientFor(p).Resolve(path), limit);
  }

  ClusterHarness harness_;
};

TEST_F(SvcTest, BootBringsUpBaseServices) {
  harness_.Boot();
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_NE(harness_.server(i).FindProcessByName("ssc"), nullptr);
    EXPECT_NE(harness_.server(i).FindProcessByName("nsd"), nullptr);
    EXPECT_NE(harness_.server(i).FindProcessByName("rasd"), nullptr);
  }
  EXPECT_NE(harness_.server(0).FindProcessByName("dbd"), nullptr);

  sim::Process& client = harness_.SpawnProcessOn(0, "client");
  EXPECT_TRUE(ResolveAs(client, "svc/db").ok());
  // The CSC has started the settop manager from the database config.
  EXPECT_TRUE(ResolveAs(client, std::string(kSettopManagerName)).ok());
  // Per-server RAS replicas are published behind the by-caller-host selector.
  auto ras = ResolveAs(client, "svc/ras");
  ASSERT_TRUE(ras.ok());
  EXPECT_EQ(ras->endpoint.host, harness_.HostOf(0));
}

TEST_F(SvcTest, PerServerRasSelectorPicksLocalReplica) {
  harness_.Boot();
  sim::Process& on1 = harness_.SpawnProcessOn(1, "client1");
  auto ras = ResolveAs(on1, "svc/ras");
  ASSERT_TRUE(ras.ok());
  EXPECT_EQ(ras->endpoint.host, harness_.HostOf(1));
}

TEST_F(SvcTest, CscPrimaryIsExclusive) {
  harness_.Boot();
  sim::Process& client = harness_.SpawnProcessOn(0, "client");
  auto csc_ref = ResolveAs(client, std::string(kCscName));
  ASSERT_TRUE(csc_ref.ok());
  CscProxy csc(client.runtime(), *csc_ref);
  auto primary = Wait(csc.IsPrimary());
  ASSERT_TRUE(primary.ok());
  EXPECT_TRUE(*primary);
}

TEST_F(SvcTest, CscStartsServiceAssignedPreBoot) {
  harness_.AssignService("counterd", harness_.HostOf(1));
  harness_.Boot();
  cluster().RunFor(Duration::Seconds(5));

  EXPECT_NE(harness_.server(1).FindProcessByName("counterd"), nullptr);
  sim::Process& client = harness_.SpawnProcessOn(0, "client");
  auto counter_ref = ResolveAs(client, "svc/counter");
  ASSERT_TRUE(counter_ref.ok());
  CounterProxy counter(client.runtime(), *counter_ref);
  auto v = Wait(counter.Increment());
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 1u);
}

TEST_F(SvcTest, OperatorAssignStartsServiceAtRuntime) {
  harness_.Boot();
  ASSERT_EQ(harness_.server(0).FindProcessByName("counterd"), nullptr);

  sim::Process& ops = harness_.SpawnProcessOn(0, "ops");
  auto csc_ref = ResolveAs(ops, std::string(kCscName));
  ASSERT_TRUE(csc_ref.ok());
  CscProxy csc(ops.runtime(), *csc_ref);
  ASSERT_TRUE(Wait(csc.Assign("counterd", harness_.HostOf(0))).ok());
  cluster().RunFor(Duration::Seconds(5));
  EXPECT_NE(harness_.server(0).FindProcessByName("counterd"), nullptr);
}

TEST_F(SvcTest, OperatorMoveRelocatesService) {
  harness_.AssignService("counterd", harness_.HostOf(0));
  harness_.Boot();
  cluster().RunFor(Duration::Seconds(5));
  ASSERT_NE(harness_.server(0).FindProcessByName("counterd"), nullptr);

  sim::Process& ops = harness_.SpawnProcessOn(0, "ops");
  auto csc_ref = ResolveAs(ops, std::string(kCscName));
  ASSERT_TRUE(csc_ref.ok());
  CscProxy csc(ops.runtime(), *csc_ref);
  ASSERT_TRUE(Wait(csc.Assign("counterd", harness_.HostOf(1))).ok());
  ASSERT_TRUE(Wait(csc.Unassign("counterd", harness_.HostOf(0))).ok());
  cluster().RunFor(Duration::Seconds(8));

  EXPECT_EQ(harness_.server(0).FindProcessByName("counterd"), nullptr);
  EXPECT_NE(harness_.server(1).FindProcessByName("counterd"), nullptr);
}

TEST_F(SvcTest, SscRestartsCrashedServiceAndClientsRebind) {
  harness_.AssignService("counterd", harness_.HostOf(1));
  harness_.Boot();
  cluster().RunFor(Duration::Seconds(5));

  sim::Process* counterd = harness_.server(1).FindProcessByName("counterd");
  ASSERT_NE(counterd, nullptr);
  harness_.server(1).Kill(counterd->pid());
  cluster().RunFor(Duration::Seconds(2));

  // Restarted automatically by the SSC.
  sim::Process* restarted = harness_.server(1).FindProcessByName("counterd");
  ASSERT_NE(restarted, nullptr);
  EXPECT_GE(harness_.SscOn(1)->restarts_of("counterd"), 1u);

  // The old binding is audited out and the new instance binds; clients
  // re-resolve and reach the fresh object (count restarts from scratch —
  // no replicated state, paper Section 9.4).
  cluster().RunFor(Duration::Seconds(25));
  sim::Process& client = harness_.SpawnProcessOn(0, "client");
  auto counter_ref = ResolveAs(client, "svc/counter");
  ASSERT_TRUE(counter_ref.ok()) << counter_ref.status();
  CounterProxy counter(client.runtime(), *counter_ref);
  auto v = Wait(counter.Increment());
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(*v, 1u);
}

TEST_F(SvcTest, CscFailoverPromotesBackup) {
  harness_.Boot();
  // Find which server hosts the primary CSC.
  sim::Process& client = harness_.SpawnProcessOn(0, "client");
  auto csc_ref = ResolveAs(client, std::string(kCscName));
  ASSERT_TRUE(csc_ref.ok());
  uint32_t primary_host = csc_ref->endpoint.host;
  size_t primary_index = primary_host == harness_.HostOf(0) ? 0 : 1;

  sim::Process* cscd = harness_.server(primary_index).FindProcessByName("cscd");
  ASSERT_NE(cscd, nullptr);
  // Stop it through the SSC so it is NOT restarted (operator stop).
  SscProxy ssc(client.runtime(), SscRefAt(primary_host));
  ASSERT_TRUE(Wait(ssc.StopService("cscd")).ok());

  // Audit removes the dead binding; the backup's retry binds. With the
  // harness's 2 s bind retry + 10 s audit polls: well within 30 s.
  cluster().RunFor(Duration::Seconds(30));
  auto new_ref = ResolveAs(client, std::string(kCscName));
  ASSERT_TRUE(new_ref.ok()) << new_ref.status();
  EXPECT_NE(new_ref->endpoint.host, primary_host);
  CscProxy csc(client.runtime(), *new_ref);
  auto primary = Wait(csc.IsPrimary());
  ASSERT_TRUE(primary.ok());
  EXPECT_TRUE(*primary);
}

// The paper's headline failure story (Section 8): a whole server crashes;
// primary/backup services re-home; clients recover by re-resolving.
class ThreeServerSvcTest : public SvcTest {
 protected:
  ThreeServerSvcTest() : SvcTest(3) {}
};

TEST_F(ThreeServerSvcTest, ServerCrashFailsOverPrimaryBackupServices) {
  harness_.Boot();
  cluster().RunFor(Duration::Seconds(5));

  sim::Process& client = harness_.SpawnProcessOn(2, "client");
  auto mgr_before = ResolveAs(client, std::string(kSettopManagerName));
  ASSERT_TRUE(mgr_before.ok());
  uint32_t crashed_host = mgr_before->endpoint.host;
  size_t crashed_index = 0;
  for (size_t i = 0; i < 3; ++i) {
    if (harness_.HostOf(i) == crashed_host) {
      crashed_index = i;
    }
  }

  harness_.server(crashed_index).Crash();

  // Recovery chain: RAS peer polls declare the host's objects dead (~10-15 s)
  // -> NS master audit unbinds (<=10 s) -> backup settopmgr bind retry (2 s).
  // If the crashed server hosted the NS master, re-election (~3 s) precedes.
  cluster().RunFor(Duration::Seconds(45));

  auto mgr_after = ResolveAs(client, std::string(kSettopManagerName),
                             Duration::Seconds(10));
  ASSERT_TRUE(mgr_after.ok()) << mgr_after.status();
  EXPECT_NE(mgr_after->endpoint.host, crashed_host);

  // The promoted replica actually serves.
  SettopManagerProxy mgr(client.runtime(), *mgr_after);
  auto count = Wait(mgr.Count());
  ASSERT_TRUE(count.ok()) << count.status();
}

// The paper's future-work extension (Sections 6.3, 8.1), implemented behind
// CscService::Options::auto_migrate: when a server stays unreachable, the
// CSC re-homes its services onto the survivors.
class AutoMigrateSvcTest : public ::testing::Test {
 protected:
  AutoMigrateSvcTest() : harness_(MakeOptions()) {
    RegisterCounterType(harness_);
  }

  static HarnessOptions MakeOptions() {
    HarnessOptions opts;
    opts.server_count = 3;
    opts.csc.auto_migrate = true;
    opts.csc.migrate_after_failures = 3;
    return opts;
  }

  ClusterHarness harness_;
};

TEST_F(AutoMigrateSvcTest, ServicesMigrateOffCrashedServer) {
  harness_.AssignService("counterd", harness_.HostOf(2));
  harness_.Boot();
  harness_.cluster().RunFor(Duration::Seconds(5));
  ASSERT_NE(harness_.server(2).FindProcessByName("counterd"), nullptr);

  harness_.server(2).Crash();
  // 3 failed pings at 2 s + RPC timeouts + a reconcile to start elsewhere.
  harness_.cluster().RunFor(Duration::Seconds(40));

  bool running_elsewhere =
      harness_.server(0).FindProcessByName("counterd") != nullptr ||
      harness_.server(1).FindProcessByName("counterd") != nullptr;
  EXPECT_TRUE(running_elsewhere);
  EXPECT_GE(harness_.metrics().Get("csc.migration"), 1u);

  // The service is reachable again through the name space (audit removed the
  // dead binding; the migrated instance bound).
  sim::Process& client = harness_.SpawnProcessOn(0, "client");
  auto ref = harness_.ClientFor(client).Resolve("svc/counter");
  harness_.cluster().RunFor(Duration::Seconds(5));
  ASSERT_TRUE(ref.is_ready() && ref.result().ok())
      << (ref.is_ready() ? ref.result().status().ToString() : "pending");
  EXPECT_NE(ref.result()->endpoint.host, harness_.HostOf(2));
}

TEST_F(AutoMigrateSvcTest, RecoveredServerIsNotDoublePlaced) {
  harness_.AssignService("counterd", harness_.HostOf(2));
  harness_.Boot();
  harness_.cluster().RunFor(Duration::Seconds(5));

  harness_.server(2).Crash();
  harness_.cluster().RunFor(Duration::Seconds(40));
  ASSERT_GE(harness_.metrics().Get("csc.migration"), 1u);

  // The server comes back; its assignment moved away, so the CSC must NOT
  // start counterd there again (it stays wherever it migrated to).
  harness_.server(2).Restart();
  harness_.StartSsc(2);
  harness_.cluster().RunFor(Duration::Seconds(15));
  EXPECT_EQ(harness_.server(2).FindProcessByName("counterd"), nullptr);

  size_t instances = 0;
  for (size_t i = 0; i < 3; ++i) {
    instances += harness_.server(i).FindProcessByName("counterd") != nullptr;
  }
  EXPECT_EQ(instances, 1u);
}

TEST_F(ThreeServerSvcTest, RecoveredServerIsRepopulatedByCsc) {
  harness_.AssignService("counterd", harness_.HostOf(2));
  harness_.Boot();
  cluster().RunFor(Duration::Seconds(5));
  ASSERT_NE(harness_.server(2).FindProcessByName("counterd"), nullptr);

  harness_.server(2).Crash();
  cluster().RunFor(Duration::Seconds(5));
  harness_.server(2).Restart();
  // "init" restarts the SSC on the recovered machine; the CSC detects the
  // new SSC and instructs it to start the appropriate services (Section 6.3).
  harness_.StartSsc(2);
  cluster().RunFor(Duration::Seconds(15));

  EXPECT_NE(harness_.server(2).FindProcessByName("counterd"), nullptr);
  EXPECT_NE(harness_.server(2).FindProcessByName("nsd"), nullptr);
}

}  // namespace
}  // namespace itv::svc
