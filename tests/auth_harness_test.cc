// Authentication service as a cluster citizen: the KDC runs as an
// SSC-managed service, a third-party service enforces signed calls
// (paper Section 3.3: security "isolates third-party services running on
// the server machines"), and clients acquire tickets through the normal
// naming + bootstrap machinery.

#include <gtest/gtest.h>

#include "src/auth/auth_service.h"
#include "src/auth/policy.h"
#include "src/rpc/stub_helpers.h"
#include "src/svc/harness.h"

namespace itv::auth {
namespace {

inline constexpr std::string_view kVaultInterface = "itv.test.SecureVault";

class VaultSkeleton : public rpc::Skeleton {
 public:
  std::string_view interface_name() const override { return kVaultInterface; }
  void Dispatch(uint32_t method_id, const wire::Bytes& args,
                const rpc::CallContext& ctx, rpc::ReplyFn reply) override {
    if (method_id != 1) {
      return rpc::ReplyBadMethod(reply, method_id);
    }
    return rpc::ReplyWith(reply, "caller=" + ctx.caller.principal +
                                     " authenticated=" +
                                     (ctx.caller.authenticated ? "yes" : "no"));
  }
};

class AuthHarnessTest : public ::testing::Test {
 protected:
  AuthHarnessTest() : harness_(MakeOptions()) {
    deploy_secret_ = KeyFromString("orlando-deployment-secret");
    registry_.SetDeploymentSecret(deploy_secret_);
    kdc_secret_ = KeyFromString("kdc-secret");

    // The KDC as an SSC-managed service type on server 1.
    harness_.SetWellKnownPort("authd", kAuthPort);
    harness_.RegisterServiceType("authd", [this](const svc::ServiceContext& ctx) {
      auto* impl = ctx.process.Emplace<AuthServiceImpl>(registry_, kdc_secret_);
      auto* skeleton = ctx.process.Emplace<AuthSkeleton>(*impl);
      wire::ObjectRef ref = ctx.process.runtime().ExportAt(skeleton, 1);
      auto* policy = ctx.process.Emplace<KerberosPolicy>(
          PrincipalForEndpoint(ctx.process.endpoint()),
          DeriveKey(deploy_secret_,
                    PrincipalForEndpoint(ctx.process.endpoint())));
      policy->set_master_key_registry(&registry_);
      ctx.process.runtime().set_security_policy(policy);
      ctx.StartLifecycle("svc/auth", ref);
    });

    // A strict third-party service on server 2: unsigned calls rejected.
    harness_.RegisterServiceType("vaultd", [this](const svc::ServiceContext& ctx) {
      auto* skeleton = ctx.process.Emplace<VaultSkeleton>();
      wire::ObjectRef ref = ctx.process.runtime().Export(skeleton);
      KerberosPolicy::Options strict;
      strict.require_signed_requests = true;
      auto* policy = ctx.process.Emplace<KerberosPolicy>(
          PrincipalForEndpoint(ctx.process.endpoint()),
          DeriveKey(deploy_secret_,
                    PrincipalForEndpoint(ctx.process.endpoint())),
          strict);
      ctx.process.runtime().set_security_policy(policy);
      ctx.StartLifecycle("svc/vault", ref);
    });

    harness_.AssignService("authd", harness_.HostOf(0));
    harness_.AssignService("vaultd", harness_.HostOf(1));
    harness_.Boot();
    harness_.cluster().RunFor(Duration::Seconds(8));
  }

  static svc::HarnessOptions MakeOptions() {
    svc::HarnessOptions opts;
    opts.server_count = 2;
    return opts;
  }

  // A client process with a Kerberos policy wired to the cluster KDC.
  struct SecureClient {
    sim::Process* process;
    KerberosPolicy* policy;
  };
  SecureClient MakeClient(const std::string& principal) {
    sim::Node& settop = harness_.AddSettop(1);
    sim::Process& p = settop.Spawn("app");
    auto* policy = p.Emplace<KerberosPolicy>(
        principal, DeriveKey(deploy_secret_, principal));
    policy->ConfigureTicketSource(p.runtime(), AuthRefAt(harness_.HostOf(0)));
    policy->set_metrics(&harness_.metrics());
    p.runtime().set_security_policy(policy);
    return {&p, policy};
  }

  Result<wire::ObjectRef> ResolveVault(sim::Process& p) {
    auto f = harness_.ClientFor(p).Resolve("svc/vault");
    harness_.cluster().RunFor(Duration::Seconds(3));
    if (!f.is_ready()) {
      return DeadlineExceededError("pending");
    }
    return f.result();
  }

  Key deploy_secret_, kdc_secret_;
  KeyRegistry registry_;
  svc::ClusterHarness harness_;
};

TEST_F(AuthHarnessTest, TicketedClientIsAuthenticatedEndToEnd) {
  SecureClient client = MakeClient("settop/alice");
  auto vault = ResolveVault(*client.process);
  ASSERT_TRUE(vault.ok()) << vault.status();

  Status fetch = InternalError("unset");
  client.policy->PrefetchTicket(vault->endpoint, [&](Status s) { fetch = s; });
  harness_.cluster().RunFor(Duration::Seconds(5));
  ASSERT_TRUE(fetch.ok()) << fetch;

  auto f = rpc::DecodeReply<std::string>(
      client.process->runtime().Invoke(*vault, 1, {}));
  harness_.cluster().RunFor(Duration::Seconds(3));
  ASSERT_TRUE(f.is_ready());
  ASSERT_TRUE(f.result().ok()) << f.result().status();
  EXPECT_EQ(*f.result(), "caller=settop/alice authenticated=yes");
}

TEST_F(AuthHarnessTest, UnsignedCallRejectedThenRecoversAfterTicketFetch) {
  SecureClient client = MakeClient("settop/bob");
  auto vault = ResolveVault(*client.process);
  ASSERT_TRUE(vault.ok());

  // First call races the background ticket fetch: rejected as unsigned.
  auto first = rpc::DecodeReply<std::string>(
      client.process->runtime().Invoke(*vault, 1, {}));
  harness_.cluster().RunFor(Duration::Seconds(5));
  ASSERT_TRUE(first.is_ready());
  EXPECT_TRUE(IsPermissionDenied(first.result().status()));

  // By now the policy has the ticket; calls are signed.
  auto second = rpc::DecodeReply<std::string>(
      client.process->runtime().Invoke(*vault, 1, {}));
  harness_.cluster().RunFor(Duration::Seconds(3));
  ASSERT_TRUE(second.is_ready());
  ASSERT_TRUE(second.result().ok()) << second.result().status();
  EXPECT_EQ(*second.result(), "caller=settop/bob authenticated=yes");
}

TEST_F(AuthHarnessTest, KdcRestartDoesNotStrandClients) {
  SecureClient alice = MakeClient("settop/alice");
  auto vault = ResolveVault(*alice.process);
  ASSERT_TRUE(vault.ok());

  // Kill the KDC; the SSC restarts it; its keytab re-derives from the
  // deployment secret, and the bootstrap reference keeps addressing it.
  sim::Process* authd = harness_.server(0).FindProcessByName("authd");
  ASSERT_NE(authd, nullptr);
  harness_.server(0).Kill(authd->pid());
  harness_.cluster().RunFor(Duration::Seconds(3));
  ASSERT_NE(harness_.server(0).FindProcessByName("authd"), nullptr);

  Status fetch = InternalError("unset");
  alice.policy->PrefetchTicket(vault->endpoint, [&](Status s) { fetch = s; });
  harness_.cluster().RunFor(Duration::Seconds(5));
  ASSERT_TRUE(fetch.ok()) << fetch;

  auto f = rpc::DecodeReply<std::string>(
      alice.process->runtime().Invoke(*vault, 1, {}));
  harness_.cluster().RunFor(Duration::Seconds(3));
  ASSERT_TRUE(f.is_ready());
  ASSERT_TRUE(f.result().ok()) << f.result().status();
}

}  // namespace
}  // namespace itv::auth
