// ServiceLifecycle role state machine tests: the name-space election (first
// bind wins, a backup takes over once the audit removes a dead primary, a
// graceful stop hands over without the audit and never evicts another
// primary, a live primary re-asserts a falsely removed binding and re-creates
// a lost parent context without demoting); promotion, demotion and
// re-promotion; failed recovery stepping back out of the election; a lost
// ready announcement sent again; and stop-during-recovery never promoting
// (the epoch guard).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "src/svc/harness.h"
#include "src/svc/lifecycle.h"
#include "src/svc/settop_manager.h"
#include "src/svc/ssc.h"

namespace itv::svc {
namespace {

constexpr std::string_view kPath = "svc/tgt";

class LifecycleTest : public ::testing::Test {
 protected:
  LifecycleTest() : harness_(MakeOptions()) {
    harness_.Boot();
    cluster().RunFor(Duration::Seconds(3));
    probe_ = &harness_.SpawnProcessOn(0, "probe");
  }

  static HarnessOptions MakeOptions() {
    HarnessOptions opts;
    opts.server_count = 3;
    opts.start_csc = false;  // Nothing here needs placement management.
    return opts;
  }

  // A tight bind retry so elections settle in a few simulated seconds.
  static ServiceLifecycle::Options FastOptions() {
    ServiceLifecycle::Options options;
    options.retry_interval = Duration::Seconds(1);
    return options;
  }

  struct Replica {
    sim::Process* process = nullptr;
    ServiceLifecycle* lifecycle = nullptr;
    wire::ObjectRef ref;
  };

  Replica Spawn(size_t server_index, const std::string& name,
                ServiceLifecycle::Hooks hooks = {},
                ServiceLifecycle::Options options = FastOptions(),
                std::string_view path = kPath) {
    Replica replica;
    replica.process = &harness_.SpawnProcessOn(server_index, name);
    auto* skeleton =
        replica.process->Emplace<SettopManagerService>(replica.process->executor());
    replica.ref = replica.process->runtime().Export(skeleton);
    replica.lifecycle = replica.process->Emplace<ServiceLifecycle>(
        *replica.process, harness_.ClientFor(*replica.process),
        std::string(path), replica.ref, options, &harness_.metrics());
    replica.lifecycle->Start(std::move(hooks));
    return replica;
  }

  Result<wire::ObjectRef> ResolveTarget(
      std::string_view path = kPath,
      Duration run = Duration::Seconds(2)) {
    auto f = harness_.ClientFor(*probe_).Resolve(std::string(path));
    cluster().RunFor(run);
    if (!f.is_ready()) {
      return DeadlineExceededError("resolve pending");
    }
    return f.result();
  }

  sim::Cluster& cluster() { return harness_.cluster(); }
  Metrics& metrics() { return harness_.metrics(); }

  ClusterHarness harness_;
  sim::Process* probe_ = nullptr;
};

TEST_F(LifecycleTest, FirstBinderWinsSecondTakesOverAfterUnbind) {
  Replica a = Spawn(1, "tgt-a");
  cluster().RunFor(Duration::Seconds(1));
  Replica b = Spawn(2, "tgt-b");
  cluster().RunFor(Duration::Seconds(2));
  EXPECT_TRUE(a.lifecycle->is_primary());
  EXPECT_EQ(b.lifecycle->role(), ServiceRole::kBackup);
  auto resolved = ResolveTarget();
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  EXPECT_EQ(*resolved, a.ref);

  // The primary dies: a dead process cannot re-assert, the audit finds its
  // object dead and unbinds it, and a later one of the backup's periodic
  // retries (its first lost to the primary) binds.
  harness_.server(1).Kill(a.process->pid());
  cluster().RunFor(Duration::Seconds(25));
  EXPECT_TRUE(b.lifecycle->is_primary());
  EXPECT_EQ(b.lifecycle->promotions(), 1u);
  resolved = ResolveTarget();
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  EXPECT_EQ(*resolved, b.ref);
}

TEST_F(LifecycleTest, StopUnbindsSoBackupWinsWithoutAudit) {
  Replica a = Spawn(1, "tgt-a");
  cluster().RunFor(Duration::Seconds(1));
  ServiceLifecycle::Options paper = FastOptions();
  paper.retry_interval = Duration::Seconds(10);
  Replica b = Spawn(2, "tgt-b", {}, paper);
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(a.lifecycle->is_primary());

  // A graceful stop (service shutting down in an orderly way) releases the
  // binding itself: no audit needed (the process lives on), so the name is
  // free briefly and the backup's next retry — not a 25 s fail-over — wins
  // it.
  a.lifecycle->Stop();
  EXPECT_EQ(a.lifecycle->role(), ServiceRole::kStopped);
  cluster().RunFor(Duration::Millis(500));
  EXPECT_TRUE(IsNotFound(ResolveTarget().status()));

  cluster().RunFor(Duration::Seconds(10));  // One backup retry.
  EXPECT_TRUE(b.lifecycle->is_primary());
  auto resolved = ResolveTarget();
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  EXPECT_EQ(*resolved, b.ref);
}

TEST_F(LifecycleTest, StopDoesNotUnbindAnotherPrimarysBinding) {
  Replica a = Spawn(1, "tgt-a");
  ServiceLifecycle::Options paper = FastOptions();
  paper.retry_interval = Duration::Seconds(10);
  Replica b = Spawn(2, "tgt-b", {}, paper);
  // Half-way between two of A's verifies (each second from its bind).
  cluster().RunFor(Duration::Millis(2500));
  ASSERT_TRUE(a.lifecycle->is_primary());

  // Between this replica losing the name and its stop, another replica bound
  // itself. The stop's unbind is conditional on the binding still being ours
  // — it must not evict the new primary.
  naming::NameClient nc = harness_.ClientFor(*probe_);
  auto unbound = nc.Unbind(std::string(kPath));
  auto rebound = nc.Bind(std::string(kPath), b.ref);
  cluster().RunFor(Duration::Millis(200));
  ASSERT_TRUE(unbound.is_ready() && unbound.result().ok());
  ASSERT_TRUE(rebound.is_ready() && rebound.result().ok());
  ASSERT_TRUE(a.lifecycle->is_primary());  // Its verify has not run yet.
  a.lifecycle->Stop();
  cluster().RunFor(Duration::Seconds(2));

  auto resolved = ResolveTarget();
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  EXPECT_EQ(*resolved, b.ref);
}

TEST_F(LifecycleTest, LivePrimaryReassertsAfterFalseUnbind) {
  Replica a = Spawn(1, "tgt-a");
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(a.lifecycle->is_primary());

  // A transient fault convinced the audit the primary was dead and its
  // binding was removed — but the process is alive. The verify loop must
  // notice the missing binding and re-assert it without ever demoting.
  auto unbound = harness_.ClientFor(*probe_).Unbind(std::string(kPath));
  cluster().RunFor(Duration::Seconds(25));
  ASSERT_TRUE(unbound.is_ready() && unbound.result().ok());

  EXPECT_TRUE(a.lifecycle->is_primary());
  EXPECT_EQ(a.lifecycle->demotions(), 0u);
  auto resolved = ResolveTarget();
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  EXPECT_EQ(*resolved, a.ref);
}

TEST_F(LifecycleTest, PrimaryRecreatesLostParentContextWithoutDemoting) {
  // A plain parent context, created by the lifecycle's own start-up step.
  constexpr std::string_view kGroup = "svc/tgtgroup";
  constexpr std::string_view kGroupPath = "svc/tgtgroup/tgt";
  const ServiceLifecycle::Options fast = FastOptions();
  Replica a = Spawn(1, "tgt-a", {}, fast, kGroupPath);
  cluster().RunFor(Duration::Seconds(3));
  ASSERT_TRUE(a.lifecycle->is_primary());

  // A name-service master fail-over can lose a context a replica created,
  // binding and all. Remove the binding and then its (now empty) parent,
  // back to back, so no verify re-asserts in between.
  naming::NameClient nc = harness_.ClientFor(*probe_);
  auto unbound = nc.Unbind(std::string(kGroupPath));
  auto dropped = nc.Unbind(std::string(kGroup));
  cluster().RunFor(fast.retry_interval * 2);
  ASSERT_TRUE(unbound.is_ready() && unbound.result().ok());
  ASSERT_TRUE(dropped.is_ready() && dropped.result().ok());

  // The primary's re-assert read NOT_FOUND at the parent, re-created it and
  // bound again, still primary.
  auto resolved = ResolveTarget(kGroupPath, Duration::Millis(100));
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  EXPECT_EQ(*resolved, a.ref);
  EXPECT_TRUE(a.lifecycle->is_primary());
  EXPECT_EQ(a.lifecycle->demotions(), 0u);
  EXPECT_EQ(a.lifecycle->promotions(), 1u);

  // A backup started after the loss takes over once the primary dies.
  Replica b = Spawn(2, "tgt-b", {}, fast, kGroupPath);
  cluster().RunFor(Duration::Seconds(2));
  EXPECT_EQ(b.lifecycle->role(), ServiceRole::kBackup);
  harness_.server(1).Kill(a.process->pid());
  cluster().RunFor(Duration::Seconds(25));
  EXPECT_TRUE(b.lifecycle->is_primary());
  resolved = ResolveTarget(kGroupPath);
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  EXPECT_EQ(*resolved, b.ref);
}

TEST_F(LifecycleTest, LostReplicatedParentComesBackReplicated) {
  // svc/mds is a replicated context the name-service master makes on
  // election, with its selector. A replica that finds it gone must not
  // re-create it as a plain context: the master makes it again, selector
  // and all.
  constexpr std::string_view kMdsPath = "svc/mds/9";
  Replica a = Spawn(1, "mds-9", {}, FastOptions(), kMdsPath);
  cluster().RunFor(Duration::Seconds(3));
  ASSERT_TRUE(a.lifecycle->is_primary());

  naming::NameClient nc = harness_.ClientFor(*probe_);
  auto unbound = nc.Unbind(std::string(kMdsPath));
  auto unselected = nc.Unbind("svc/mds/" + std::string(naming::kSelectorBindingName));
  auto dropped = nc.Unbind("svc/mds");
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(unbound.is_ready() && unbound.result().ok());
  ASSERT_TRUE(unselected.is_ready() && unselected.result().ok());
  ASSERT_TRUE(dropped.is_ready() && dropped.result().ok());

  auto listed = nc.List("svc");
  auto in_mds = nc.ListRepl("svc/mds");
  cluster().RunFor(Duration::Millis(100));
  ASSERT_TRUE(listed.is_ready() && listed.result().ok());
  bool replicated = false;
  for (const naming::Binding& binding : *listed.result()) {
    if (binding.name == "mds") {
      replicated = binding.kind == naming::BindingKind::kReplContext;
    }
  }
  EXPECT_TRUE(replicated);
  ASSERT_TRUE(in_mds.is_ready() && in_mds.result().ok());
  bool has_selector = false, has_replica = false;
  for (const naming::Binding& binding : *in_mds.result()) {
    has_selector |= binding.name == naming::kSelectorBindingName;
    has_replica |= binding.name == "9";
  }
  EXPECT_TRUE(has_selector);
  EXPECT_TRUE(has_replica);
  EXPECT_TRUE(a.lifecycle->is_primary());
  EXPECT_EQ(a.lifecycle->demotions(), 0u);
}

TEST_F(LifecycleTest, PromoteDemoteRepromote) {
  Replica a = Spawn(1, "tgt-a");
  cluster().RunFor(Duration::Seconds(3));
  ASSERT_TRUE(a.lifecycle->is_primary());
  EXPECT_EQ(a.lifecycle->promotions(), 1u);

  Replica b = Spawn(2, "tgt-b");
  cluster().RunFor(Duration::Seconds(2));
  EXPECT_EQ(b.lifecycle->role(), ServiceRole::kBackup);

  // Swap the binding to B out from under A — what a replica observes when an
  // audit false positive removed its binding and another replica's retry won
  // the re-election. Both naming ops are issued back-to-back so A's verify
  // probe cannot interleave and re-assert in between.
  naming::NameClient nc = harness_.ClientFor(*probe_);
  auto unbound = nc.Unbind(std::string(kPath));
  auto rebound = nc.Bind(std::string(kPath), b.ref);
  cluster().RunFor(Duration::Seconds(4));
  ASSERT_TRUE(unbound.is_ready() && unbound.result().ok());
  ASSERT_TRUE(rebound.is_ready() && rebound.result().ok());

  // A demoted (and settled back to Backup); B noticed the name points at it
  // and promoted.
  EXPECT_FALSE(a.lifecycle->is_primary());
  EXPECT_EQ(a.lifecycle->role(), ServiceRole::kBackup);
  EXPECT_EQ(a.lifecycle->demotions(), 1u);
  EXPECT_TRUE(b.lifecycle->is_primary());
  EXPECT_GE(metrics().Get("svc.role.demote[svc/tgt]"), 1u);

  // B leaves gracefully: its stop unbinds, and A re-promotes on its next
  // retry without waiting for any audit.
  b.lifecycle->Stop();
  cluster().RunFor(Duration::Seconds(4));
  EXPECT_TRUE(a.lifecycle->is_primary());
  EXPECT_EQ(a.lifecycle->promotions(), 2u);
  auto resolved = ResolveTarget();
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  EXPECT_EQ(*resolved, a.ref);
}

TEST_F(LifecycleTest, RecoverFailureReleasesBindingAndRetries) {
  int attempts = 0;
  ServiceLifecycle::Hooks hooks;
  hooks.recover = [&attempts](std::function<void(Status)> done) {
    ++attempts;
    done(attempts <= 2 ? InternalError("state source unreachable")
                       : OkStatus());
  };
  Replica a = Spawn(1, "tgt-a", std::move(hooks));

  // First recovery fails straight after the first bind win: the binding is
  // released and the replica is a plain backup — it never claimed
  // primaryship.
  cluster().RunFor(Duration::Millis(400));
  EXPECT_GE(a.lifecycle->recover_failures(), 1u);
  EXPECT_FALSE(a.lifecycle->is_primary());
  EXPECT_EQ(a.lifecycle->role(), ServiceRole::kBackup);
  EXPECT_EQ(a.lifecycle->promotions(), 0u);

  // Re-contests only after the 2 s back-off, then until recovery succeeds.
  cluster().RunFor(Duration::Millis(1400));
  EXPECT_EQ(attempts, 1);
  cluster().RunFor(Duration::Seconds(5));
  EXPECT_TRUE(a.lifecycle->is_primary());
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(a.lifecycle->recover_failures(), 2u);
  EXPECT_EQ(a.lifecycle->promotions(), 1u);
  EXPECT_GE(metrics().Get("svc.role.recover_fail[svc/tgt]"), 2u);
  auto resolved = ResolveTarget();
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  EXPECT_EQ(*resolved, a.ref);
}

TEST_F(LifecycleTest, LostReadyAnnouncementIsSentAgain) {
  // The replica's first notifyReady to its SSC is dropped. Unacknowledged,
  // it goes again, so the SSC lists the object and the naming audit, which
  // removes a binding whose SSC never heard of the object, keeps the
  // binding.
  const uint64_t ssc_type = wire::TypeIdFromName(kSscInterface);
  bool dropped = false, clear_next = false;
  sim::Network& net = cluster().network();
  net.SetTap([&](const wire::Endpoint&, const wire::Endpoint&,
                 const wire::Message& msg) {
    if (clear_next) {
      net.ClearFaultInjection();
      clear_next = false;
    }
    if (!dropped && msg.kind == wire::MsgKind::kRequest &&
        msg.type_id == ssc_type && msg.method_id == kSscMethodNotifyReady) {
      sim::NetworkFaultOptions drop;
      drop.drop_rate = 1.0;
      net.SetFaultInjection(drop);
      dropped = clear_next = true;
    }
  });
  Replica a = Spawn(1, "tgt-a");
  cluster().RunFor(Duration::Seconds(1));
  net.SetTap(nullptr);
  ASSERT_TRUE(dropped);

  cluster().RunFor(Duration::Seconds(30));  // Past two naming audits.
  auto objects = SscProxy(probe_->runtime(), SscRefAt(a.ref.endpoint.host))
                     .ListObjects();
  cluster().RunFor(Duration::Seconds(1));
  ASSERT_TRUE(objects.is_ready() && objects.result().ok());
  const std::vector<wire::ObjectRef>& listed = *objects.result();
  EXPECT_EQ(std::count(listed.begin(), listed.end(), a.ref), 1);
  EXPECT_TRUE(a.lifecycle->is_primary());
  EXPECT_EQ(a.lifecycle->promotions(), 1u);
  auto resolved = ResolveTarget();
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  EXPECT_EQ(*resolved, a.ref);
}

TEST_F(LifecycleTest, StopDuringRecoveryNeverPromotes) {
  std::function<void(Status)> captured;
  ServiceLifecycle::Hooks hooks;
  hooks.recover = [&captured](std::function<void(Status)> done) {
    captured = std::move(done);  // Recovery hangs until we complete it.
  };
  Replica a = Spawn(1, "tgt-a", std::move(hooks));
  cluster().RunFor(Duration::Seconds(2));
  ASSERT_TRUE(captured != nullptr);
  EXPECT_FALSE(a.lifecycle->is_primary());

  a.lifecycle->Stop();
  captured(OkStatus());  // The in-flight recovery completes after the stop.
  cluster().RunFor(Duration::Seconds(2));
  EXPECT_EQ(a.lifecycle->role(), ServiceRole::kStopped);
  EXPECT_EQ(a.lifecycle->promotions(), 0u);
  // The graceful stop released the binding it held during recovery.
  EXPECT_TRUE(IsNotFound(ResolveTarget().status()));
}

}  // namespace
}  // namespace itv::svc
