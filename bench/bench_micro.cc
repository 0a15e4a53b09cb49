// Experiment E8 — micro-costs of the OCS primitives (google-benchmark).
//
// The paper's development-velocity and response-time stories rest on the
// primitives being cheap: marshalling, dispatch, signing, selector
// evaluation, and name resolution. These microbenchmarks put real numbers
// on each layer of the stack as built here.

#include <benchmark/benchmark.h>

#include "bench/bench_report.h"
#include "src/auth/auth_service.h"
#include "src/auth/chacha20.h"
#include "src/auth/hmac.h"
#include "src/auth/sha256.h"
#include "src/naming/context_tree.h"
#include "src/naming/selector.h"
#include "src/rpc/stub_helpers.h"
#include "src/sim/cluster.h"

namespace itv {
namespace {

// --- Wire layer ---------------------------------------------------------------

void BM_EncodeMessage(benchmark::State& state) {
  wire::Message msg;
  msg.kind = wire::MsgKind::kRequest;
  msg.call_id = 42;
  msg.object_id = 1;
  msg.method_id = 3;
  msg.auth.principal = "settop/11.1.0.1";
  msg.payload.assign(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::EncodeMessage(msg));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeMessage)->Arg(64)->Arg(1024)->Arg(65536);

void BM_DecodeMessage(benchmark::State& state) {
  wire::Message msg;
  msg.payload.assign(static_cast<size_t>(state.range(0)), 0xab);
  wire::Bytes encoded = wire::EncodeMessage(msg);
  for (auto _ : state) {
    wire::Message out;
    benchmark::DoNotOptimize(wire::DecodeMessage(encoded, &out));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecodeMessage)->Arg(64)->Arg(1024)->Arg(65536);

// Append-into-existing-buffer encode, as the TCP transport frames messages.
void BM_EncodeMessageTo(benchmark::State& state) {
  wire::Message msg;
  msg.kind = wire::MsgKind::kRequest;
  msg.call_id = 42;
  msg.auth.principal = "settop/11.1.0.1";
  msg.payload.assign(static_cast<size_t>(state.range(0)), 0xab);
  wire::Bytes buffer;
  for (auto _ : state) {
    wire::Writer w(std::move(buffer));
    wire::EncodeMessageTo(msg, w);
    buffer = w.TakeBytes();
    benchmark::DoNotOptimize(buffer.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeMessageTo)->Arg(64)->Arg(1024)->Arg(65536);

void BM_EncodeArgs(benchmark::State& state) {
  std::string title = "T2";
  uint32_t host = 0x0b010001;
  wire::ObjectRef sink;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rpc::EncodeArgs(title, host, sink));
  }
}
BENCHMARK(BM_EncodeArgs);

// --- Crypto -----------------------------------------------------------------

void BM_Sha256(benchmark::State& state) {
  wire::Bytes data(static_cast<size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(auth::Sha256Of(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_HmacSignCall(benchmark::State& state) {
  auth::Key key = auth::KeyFromString("bench");
  wire::Message msg;
  msg.payload.assign(512, 0x77);
  for (auto _ : state) {
    benchmark::DoNotOptimize(auth::HmacSha256(key, msg.SignedPortion()));
  }
}
BENCHMARK(BM_HmacSignCall);

// Streaming sign-over-spans: no SignedPortion() temporary, as the auth
// policy now signs every call.
void BM_HmacSignCallStream(benchmark::State& state) {
  auth::Key key = auth::KeyFromString("bench");
  wire::Message msg;
  msg.payload.assign(512, 0x77);
  for (auto _ : state) {
    auth::HmacSha256Stream hmac(key);
    msg.ForEachSignedSpan(
        [&hmac](const void* data, size_t n) { hmac.Update(data, n); });
    benchmark::DoNotOptimize(hmac.Finish());
  }
}
BENCHMARK(BM_HmacSignCallStream);

void BM_ChaCha20(benchmark::State& state) {
  auth::Key key = auth::KeyFromString("bench");
  wire::Bytes data(static_cast<size_t>(state.range(0)), 0x33);
  for (auto _ : state) {
    auth::ChaCha20Crypt(key, 7, &data);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(1024)->Arg(65536);

void BM_TicketSealUnseal(benchmark::State& state) {
  auth::Key server = auth::KeyFromString("server");
  auth::TicketContents contents{7, "settop/11.1.0.1", auth::KeyFromString("s")};
  for (auto _ : state) {
    wire::Bytes blob = auth::SealTicketBlob(server, contents);
    benchmark::DoNotOptimize(auth::UnsealTicketBlobWithId(server, 7, blob));
  }
}
BENCHMARK(BM_TicketSealUnseal);

// --- Naming ------------------------------------------------------------------

void BM_ContextTreeApplyBind(benchmark::State& state) {
  int i = 0;
  naming::ContextTree tree;
  naming::NameUpdate mkdir;
  mkdir.op = naming::NameOp::kBindNewContext;
  mkdir.path = {"svc"};
  (void)tree.Apply(mkdir);
  for (auto _ : state) {
    naming::NameUpdate bind;
    bind.op = naming::NameOp::kBind;
    bind.path = {"svc", "x" + std::to_string(i++)};
    bind.ref.incarnation = 1;
    benchmark::DoNotOptimize(tree.Apply(bind));
  }
}
BENCHMARK(BM_ContextTreeApplyBind);

void BM_BuiltinSelectorNeighborhood(benchmark::State& state) {
  std::vector<std::string> names{"1", "2", "3", "4", "5", "6"};
  std::vector<wire::ObjectRef> refs(6);
  uint64_t rr = 0;
  uint32_t caller = MakeSettopHost(4, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(naming::EvalBuiltinSelector(
        naming::BuiltinSelector::kNeighborhood, caller, names, refs, &rr));
  }
}
BENCHMARK(BM_BuiltinSelectorNeighborhood);

// --- Simulated RPC round trip ---------------------------------------------------

class PingSkeleton : public rpc::Skeleton {
 public:
  std::string_view interface_name() const override { return "itv.Ping"; }
  void Dispatch(uint32_t, const wire::Bytes&, const rpc::CallContext&,
                rpc::ReplyFn reply) override {
    rpc::ReplyOk(reply);
  }
};

void BM_SimRpcRoundTrip(benchmark::State& state) {
  sim::Cluster cluster;
  sim::Node& a = cluster.AddServer("a");
  sim::Node& b = cluster.AddServer("b");
  sim::Process& server = a.Spawn("server", 700);
  sim::Process& client = b.Spawn("client");
  auto* skeleton = server.Emplace<PingSkeleton>();
  wire::ObjectRef ref = server.runtime().Export(skeleton);
  for (auto _ : state) {
    auto f = client.runtime().Invoke(ref, 1, {});
    cluster.RunFor(Duration::Millis(10));
    if (!f.is_ready() || !f.result().ok()) {
      state.SkipWithError("rpc failed");
      return;
    }
  }
}
BENCHMARK(BM_SimRpcRoundTrip);

// --- Report section ----------------------------------------------------------
// Hand-timed numbers for the merged bench report (bench_report.h); the
// google-benchmark table above is for humans, these are for the perf
// baseline and CI artifact.

void WriteReport() {
  using itv::bench::MeasureNsPerOp;
  auth::Key key = auth::KeyFromString("bench");

  wire::Message msg;
  msg.kind = wire::MsgKind::kRequest;
  msg.call_id = 42;
  msg.object_id = 1;
  msg.method_id = 3;
  msg.auth.principal = "settop/11.1.0.1";
  msg.payload.assign(1024, 0xab);
  wire::Bytes encoded = wire::EncodeMessage(msg);

  itv::bench::ReportSection report("bench_micro");
  report.Set("encode_ns_1024", MeasureNsPerOp([&] {
               benchmark::DoNotOptimize(wire::EncodeMessage(msg));
             }));
  wire::Bytes buffer;
  report.Set("encode_to_ns_1024", MeasureNsPerOp([&] {
               wire::Writer w(std::move(buffer));
               wire::EncodeMessageTo(msg, w);
               buffer = w.TakeBytes();
               benchmark::DoNotOptimize(buffer.data());
             }));
  report.Set("decode_ns_1024", MeasureNsPerOp([&] {
               wire::Message out;
               benchmark::DoNotOptimize(wire::DecodeMessage(encoded, &out));
             }));
  report.Set("sign_ns_1024", MeasureNsPerOp([&] {
               benchmark::DoNotOptimize(
                   auth::HmacSha256(key, msg.SignedPortion()));
             }));
  report.Set("sign_stream_ns_1024", MeasureNsPerOp([&] {
               auth::HmacSha256Stream hmac(key);
               msg.ForEachSignedSpan([&hmac](const void* data, size_t n) {
                 hmac.Update(data, n);
               });
               benchmark::DoNotOptimize(hmac.Finish());
             }));
  // The issue's headline unit: one message encoded and signed, end to end.
  report.Set("encode_sign_ns_1024", MeasureNsPerOp([&] {
               wire::Writer w(std::move(buffer));
               wire::EncodeMessageTo(msg, w);
               buffer = w.TakeBytes();
               auth::HmacSha256Stream hmac(key);
               msg.ForEachSignedSpan([&hmac](const void* data, size_t n) {
                 hmac.Update(data, n);
               });
               benchmark::DoNotOptimize(hmac.Finish());
             }));
  report.SetInt("payload_bytes", 1024);
  report.WriteMerged();
}

}  // namespace
}  // namespace itv

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  itv::WriteReport();
  return 0;
}
