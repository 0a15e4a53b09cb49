// Object-exchange layer tests: invocation, errors, stale references, NACKs
// and timeouts, exercised over the simulated cluster (the rebinding library
// on top has its own suite, binding_test.cc). The Echo interface below
// follows the same hand-written stub pattern as the real services
// (idl/README.md).

#include <gtest/gtest.h>

#include <string>

#include "src/rpc/runtime.h"
#include "src/rpc/stub_helpers.h"
#include "src/sim/cluster.h"

namespace itv::rpc {
namespace {

// --- Echo stubs --------------------------------------------------------------

inline constexpr std::string_view kEchoInterface = "itv.test.Echo";

enum EchoMethod : uint32_t {
  kEchoMethodEcho = 1,
  kEchoMethodAdd = 2,
  kEchoMethodFail = 3,
  kEchoMethodWhoAmI = 4,
  kEchoMethodNever = 5,  // Never replies (tests client timeouts).
};

class EchoImpl {
 public:
  virtual ~EchoImpl() = default;
  virtual std::string Echo(const std::string& s) = 0;
  virtual int64_t Add(int64_t a, int64_t b) = 0;
  virtual Status Fail() = 0;
  virtual std::string WhoAmI(const CallContext& ctx) = 0;
};

class EchoSkeleton : public Skeleton {
 public:
  explicit EchoSkeleton(EchoImpl& impl) : impl_(impl) {}

  std::string_view interface_name() const override { return kEchoInterface; }

  void Dispatch(uint32_t method_id, const wire::Bytes& args,
                const CallContext& ctx, ReplyFn reply) override {
    switch (method_id) {
      case kEchoMethodEcho: {
        std::string s;
        if (!DecodeArgs(args, &s)) {
          return ReplyBadArgs(reply);
        }
        return ReplyWith(reply, impl_.Echo(s));
      }
      case kEchoMethodAdd: {
        int64_t a = 0, b = 0;
        if (!DecodeArgs(args, &a, &b)) {
          return ReplyBadArgs(reply);
        }
        return ReplyWith(reply, impl_.Add(a, b));
      }
      case kEchoMethodFail:
        return ReplyError(reply, impl_.Fail());
      case kEchoMethodWhoAmI:
        return ReplyWith(reply, impl_.WhoAmI(ctx));
      case kEchoMethodNever:
        return;  // Deliberately drop the reply.
      default:
        return ReplyBadMethod(reply, method_id);
    }
  }

 private:
  EchoImpl& impl_;
};

class EchoProxy : public Proxy {
 public:
  using Proxy::Proxy;

  Future<std::string> Echo(const std::string& s, CallOptions opts = {}) const {
    return DecodeReply<std::string>(Call(kEchoMethodEcho, EncodeArgs(s), opts));
  }
  Future<int64_t> Add(int64_t a, int64_t b) const {
    return DecodeReply<int64_t>(Call(kEchoMethodAdd, EncodeArgs(a, b)));
  }
  Future<void> Fail() const {
    return DecodeEmptyReply(Call(kEchoMethodFail, {}));
  }
  Future<std::string> WhoAmI() const {
    return DecodeReply<std::string>(Call(kEchoMethodWhoAmI, {}));
  }
  Future<void> Never(CallOptions opts) const {
    return DecodeEmptyReply(Call(kEchoMethodNever, {}, opts));
  }
};

class TestEcho : public EchoImpl {
 public:
  std::string Echo(const std::string& s) override { return s; }
  int64_t Add(int64_t a, int64_t b) override { return a + b; }
  Status Fail() override { return NotFoundError("nope"); }
  std::string WhoAmI(const CallContext& ctx) override {
    return ctx.caller.principal + "@" + ctx.caller_endpoint.ToString();
  }
};

// --- Fixture -----------------------------------------------------------------

class RpcTest : public ::testing::Test {
 protected:
  RpcTest() {
    server_ = &cluster_.AddServer("forge");
    client_node_ = &cluster_.AddServer("kiln");
    server_proc_ = &server_->Spawn("echo", 700);
    client_proc_ = &client_node_->Spawn("client");
    echo_ = server_proc_->Emplace<TestEcho>();
    skeleton_ = server_proc_->Emplace<EchoSkeleton>(*echo_);
    echo_ref_ = server_proc_->runtime().Export(skeleton_);
  }

  EchoProxy MakeProxy() { return EchoProxy(client_proc_->runtime(), echo_ref_); }

  template <typename T>
  Result<T> Wait(Future<T> f, Duration limit = Duration::Seconds(30)) {
    cluster_.RunUntil(cluster_.Now() + limit);
    if (!f.is_ready()) {
      return DeadlineExceededError("future not ready in test");
    }
    return f.result();
  }

  sim::Cluster cluster_;
  sim::Node* server_ = nullptr;
  sim::Node* client_node_ = nullptr;
  sim::Process* server_proc_ = nullptr;
  sim::Process* client_proc_ = nullptr;
  TestEcho* echo_ = nullptr;
  EchoSkeleton* skeleton_ = nullptr;
  wire::ObjectRef echo_ref_;
};

TEST_F(RpcTest, BasicInvocation) {
  auto r = Wait(MakeProxy().Echo("hello"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, "hello");
}

TEST_F(RpcTest, MultiArgumentCall) {
  auto r = Wait(MakeProxy().Add(40, 2));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST_F(RpcTest, ApplicationErrorPropagates) {
  auto r = Wait(MakeProxy().Fail());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(IsNotFound(r.status()));
  EXPECT_EQ(r.status().message(), "nope");
}

TEST_F(RpcTest, CallerIdentityReachesServant) {
  auto r = Wait(MakeProxy().WhoAmI());
  ASSERT_TRUE(r.ok());
  // Default per-process policy stamps "node/process".
  EXPECT_TRUE(r->starts_with("kiln/client@"));
}

TEST_F(RpcTest, UnknownMethodIsUnimplemented) {
  auto raw = client_proc_->runtime().Invoke(echo_ref_, 999, {});
  cluster_.RunFor(Duration::Seconds(1));
  ASSERT_TRUE(raw.is_ready());
  EXPECT_EQ(raw.result().status().code(), StatusCode::kUnimplemented);
}

TEST_F(RpcTest, MalformedArgsRejected) {
  // Add expects two i64s; send a short payload.
  auto raw = client_proc_->runtime().Invoke(echo_ref_, kEchoMethodAdd,
                                            EncodeArgs(int64_t{1}));
  cluster_.RunFor(Duration::Seconds(1));
  ASSERT_TRUE(raw.is_ready());
  EXPECT_EQ(raw.result().status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RpcTest, TypeMismatchRejected) {
  wire::ObjectRef bad = echo_ref_;
  bad.type_id = wire::TypeIdFromName("itv.SomethingElse");
  auto raw = client_proc_->runtime().Invoke(bad, kEchoMethodEcho,
                                            EncodeArgs(std::string("x")));
  cluster_.RunFor(Duration::Seconds(1));
  ASSERT_TRUE(raw.is_ready());
  EXPECT_EQ(raw.result().status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RpcTest, NullRefFailsImmediately) {
  EchoProxy proxy(client_proc_->runtime(), wire::ObjectRef{});
  auto f = proxy.Echo("x");
  ASSERT_TRUE(f.is_ready());
  EXPECT_EQ(f.result().status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RpcTest, DeadProcessYieldsUnavailable) {
  server_->Kill(server_proc_->pid());
  cluster_.RunUntilIdle();
  auto r = Wait(MakeProxy().Echo("x"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(IsUnavailable(r.status()));
}

TEST_F(RpcTest, StaleIncarnationYieldsUnavailable) {
  // Kill and restart the service on the same well-known port: the old
  // reference must NOT reach the new incarnation (paper Section 3.2.1).
  server_->Kill(server_proc_->pid());
  cluster_.RunUntilIdle();
  sim::Process& proc2 = server_->Spawn("echo", 700);
  auto* echo2 = proc2.Emplace<TestEcho>();
  auto* skel2 = proc2.Emplace<EchoSkeleton>(*echo2);
  wire::ObjectRef new_ref = proc2.runtime().Export(skel2);

  auto stale = Wait(MakeProxy().Echo("x"));
  ASSERT_FALSE(stale.ok());
  EXPECT_TRUE(IsUnavailable(stale.status()));

  EchoProxy fresh(client_proc_->runtime(), new_ref);
  auto ok = Wait(fresh.Echo("y"));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, "y");
}

TEST_F(RpcTest, CrashedNodeYieldsDeadlineExceeded) {
  server_->Crash();
  cluster_.RunUntilIdle();
  CallOptions opts;
  opts.timeout = Duration::Seconds(2);
  auto r = Wait(MakeProxy().Echo("x", opts), Duration::Seconds(5));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(IsDeadlineExceeded(r.status()));
}

TEST_F(RpcTest, DroppedReplyTimesOut) {
  CallOptions opts;
  opts.timeout = Duration::Seconds(1);
  auto r = Wait(MakeProxy().Never(opts), Duration::Seconds(5));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(IsDeadlineExceeded(r.status()));
  EXPECT_EQ(cluster_.metrics().Get("rpc.timeout"), 1u);
}

TEST_F(RpcTest, PartitionedNetworkTimesOut) {
  cluster_.network().Partition(server_->host(), client_node_->host(), true);
  CallOptions opts;
  opts.timeout = Duration::Seconds(1);
  auto r = Wait(MakeProxy().Echo("x", opts), Duration::Seconds(5));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(IsDeadlineExceeded(r.status()));

  cluster_.network().Partition(server_->host(), client_node_->host(), false);
  auto r2 = Wait(MakeProxy().Echo("back"));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, "back");
}

TEST_F(RpcTest, ConcurrentCallsComplete) {
  EchoProxy proxy = MakeProxy();
  std::vector<Future<int64_t>> futures;
  futures.reserve(50);
  for (int i = 0; i < 50; ++i) {
    futures.push_back(proxy.Add(i, 1000));
  }
  cluster_.RunFor(Duration::Seconds(2));
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(futures[i].is_ready());
    ASSERT_TRUE(futures[i].result().ok());
    EXPECT_EQ(*futures[i].result(), i + 1000);
  }
}

TEST_F(RpcTest, UnexportMakesObjectUnavailable) {
  server_proc_->runtime().Unexport(echo_ref_);
  auto r = Wait(MakeProxy().Echo("x"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(IsUnavailable(r.status()));
}

TEST_F(RpcTest, MetricsCountTraffic) {
  (void)Wait(MakeProxy().Echo("x"));
  Metrics& m = cluster_.metrics();
  EXPECT_EQ(m.Get("rpc.request.sent"), 1u);
  EXPECT_EQ(m.Get("rpc.request.recv"), 1u);
  EXPECT_EQ(m.Get("rpc.reply.sent"), 1u);
  EXPECT_EQ(m.Get("rpc.reply.recv"), 1u);
  EXPECT_GE(m.Get("net.msg.total"), 2u);
}

}  // namespace
}  // namespace itv::rpc
