// ServiceLifecycle role state machine tests: promotion, demotion and
// re-promotion through the name-space election; failed recovery stepping
// back out of the election; a lost ready announcement sent again; and
// stop-during-recovery never promoting (the epoch guard).

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
    options.binder.retry_interval = Duration::Seconds(1);
    return options;
  }

  struct Replica {
    sim::Process* process = nullptr;
    ServiceLifecycle* lifecycle = nullptr;
    wire::ObjectRef ref;
  };

  Replica Spawn(size_t server_index, const std::string& name,
                ServiceLifecycle::Hooks hooks = {},
                ServiceLifecycle::Options options = FastOptions()) {
    Replica replica;
    replica.process = &harness_.SpawnProcessOn(server_index, name);
    auto* skeleton =
        replica.process->Emplace<SettopManagerService>(replica.process->executor());
    replica.ref = replica.process->runtime().Export(skeleton);
    replica.lifecycle = replica.process->Emplace<ServiceLifecycle>(
        *replica.process, harness_.ClientFor(*replica.process),
        std::string(kPath), replica.ref, options, &harness_.metrics());
    if (hooks.ready_objects.empty()) {
      hooks.ready_objects = {replica.ref};
    }
    replica.lifecycle->Start(std::move(hooks));
    return replica;
  }

  Result<wire::ObjectRef> ResolveTarget() {
    auto f = harness_.ClientFor(*probe_).Resolve(std::string(kPath));
    cluster().RunFor(Duration::Seconds(2));
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
