// signed_rpc_tcp: the one workload on real sockets. Three NameServer
// replicas and an auth KDC each get their own TcpTransport on one
// net::EventLoop; four closed-loop clients, each connected to replica
// i mod 3, call with every request signed by auth::KerberosPolicy (the
// paper's default) and no resolution cache. The mix is 90% Resolve of a
// uniformly random pre-bound name and 10% Bind/Unbind of a per-client name:
// reads stay on the local replica, writes pay master forwarding and
// replication (paper Section 4.6). This is where wire encode/decode, HMAC
// signing, TCP framing and the event loop run; the simulator passes message
// structs unsigned.

#include <cstdio>
#include <memory>
#include <vector>

#include "itvbench/bench.h"
#include "itvbench/hops.h"
#include "itvbench/profiler.h"
#include "src/auth/auth_service.h"
#include "src/auth/policy.h"
#include "src/common/logging.h"
#include "src/common/rand.h"
#include "src/naming/name_client.h"
#include "src/naming/name_server.h"
#include "src/net/event_loop.h"
#include "src/net/tcp_transport.h"

namespace itvbench {
namespace {

using itv::Duration;
namespace auth = itv::auth;
namespace naming = itv::naming;
namespace net = itv::net;
namespace rpc = itv::rpc;
namespace wire = itv::wire;

// Time spent inside the decorated layers, accumulated across every process.
struct LayerClock {
  double send_s = 0;      // Transport::Send (encode, frame, write).
  double receive_s = 0;   // Receive callbacks (runtime dispatch and below).
  double auth_s = 0;      // The four policy hooks.
  double nested_s = 0;    // Sends and hooks that ran inside a receive.
  int receive_depth = 0;
};

// Counts and times every message at the transport boundary, and feeds the
// hop meter when tracing.
class MeteredTransport : public rpc::Transport {
 public:
  MeteredTransport(net::EventLoop& loop, itv::Metrics* metrics,
                   LayerClock* clock, HopMeter* hops)
      : inner_(loop, 0, metrics), loop_(loop), clock_(clock), hops_(hops) {}

  void Send(const wire::Endpoint& dst, wire::Message msg) override {
    if (clock_ == nullptr) {
      inner_.Send(dst, std::move(msg));
      return;
    }
    if (hops_ != nullptr) {
      hops_->OnSend(inner_.local_endpoint(), dst, msg, loop_.Now(),
                    Duration());
    }
    double t0 = WallNow();
    inner_.Send(dst, std::move(msg));
    double spent = WallNow() - t0;
    clock_->send_s += spent;
    if (clock_->receive_depth > 0) {
      clock_->nested_s += spent;
    }
  }

  void SetReceiver(Receiver receiver) override {
    if (clock_ == nullptr || receiver == nullptr) {
      inner_.SetReceiver(std::move(receiver));
      return;
    }
    inner_.SetReceiver([this, receiver = std::move(receiver)](wire::Message m) {
      double t0 = WallNow();
      ++clock_->receive_depth;
      receiver(std::move(m));
      --clock_->receive_depth;
      if (clock_->receive_depth == 0) {
        clock_->receive_s += WallNow() - t0;
      }
    });
  }

  wire::Endpoint local_endpoint() const override {
    return inner_.local_endpoint();
  }

 private:
  net::TcpTransport inner_;
  net::EventLoop& loop_;
  LayerClock* clock_;
  HopMeter* hops_;
};

// Runs `f`, charging its wall time to the policy hooks.
template <typename F>
auto TimedAuth(LayerClock* clock, F&& f) {
  if (clock == nullptr) {
    return f();
  }
  double t0 = WallNow();
  auto result = f();
  double spent = WallNow() - t0;
  clock->auth_s += spent;
  if (clock->receive_depth > 0) {
    clock->nested_s += spent;
  }
  return result;
}

// Times the four security hooks of the wrapped policy.
class MeteredPolicy : public rpc::SecurityPolicy {
 public:
  MeteredPolicy(rpc::SecurityPolicy& inner, LayerClock* clock)
      : inner_(inner), clock_(clock) {}

  itv::Status ProtectRequest(const wire::Endpoint& dst,
                             wire::Message* m) override {
    return TimedAuth(clock_, [&] { return inner_.ProtectRequest(dst, m); });
  }
  itv::Result<rpc::CallerInfo> AdmitRequest(wire::Message* m) override {
    return TimedAuth(clock_, [&] { return inner_.AdmitRequest(m); });
  }
  itv::Status ProtectReply(uint64_t ticket_id, wire::Message* reply) override {
    return TimedAuth(clock_,
                     [&] { return inner_.ProtectReply(ticket_id, reply); });
  }
  itv::Status CheckReply(uint64_t ticket_id, wire::Message* reply) override {
    return TimedAuth(clock_,
                     [&] { return inner_.CheckReply(ticket_id, reply); });
  }

 private:
  rpc::SecurityPolicy& inner_;
  LayerClock* clock_;
};

// One "process": a socket, its signing policy and its ORB. `name` is the
// principal; empty means the canonical principal of the socket's endpoint
// (what a client asking for a ticket to this process names).
struct Endpoint {
  Endpoint(net::EventLoop& loop, itv::Metrics* metrics, LayerClock* clock,
           HopMeter* hops, std::string name, const auth::Key& secret,
           uint64_t incarnation)
      : transport(loop, metrics, clock, hops),
        principal(name.empty()
                      ? auth::PrincipalForEndpoint(transport.local_endpoint())
                      : std::move(name)),
        policy(principal, auth::DeriveKey(secret, principal)),
        metered(policy, clock),
        runtime(loop, transport, incarnation, &metered, metrics) {
    policy.set_metrics(metrics);
  }
  MeteredTransport transport;
  std::string principal;
  auth::KerberosPolicy policy;
  MeteredPolicy metered;
  rpc::ObjectRuntime runtime;
};

class SignedRpcTcp {
 public:
  static constexpr size_t kReplicas = 3;
  static constexpr size_t kClients = 4;
  static constexpr size_t kNames = 10'000;
  static constexpr double kWriteShare = 0.1;
  static constexpr size_t kWaitSamples = 1 << 16;

  explicit SignedRpcTcp(const Config& config)
      : config_(config),
        rng_(config.seed),
        names_(std::max<size_t>(200, static_cast<size_t>(kNames * config.scale))) {
    if (config.trace) {
      hops_ = std::make_unique<HopMeter>();
    }
  }

  // Boots the KDC and the replicas, waits for a master, binds every name and
  // connects the clients (tickets included).
  void SetUp() {
    LayerClock* clock = config_.trace ? &clock_ : nullptr;
    secret_ = auth::KeyFromString("itv_bench deployment secret");
    registry_.SetDeploymentSecret(secret_);

    kdc_ = std::make_unique<Endpoint>(loop_, &metrics_, clock, hops_.get(), "",
                                      secret_, 1);
    kdc_->policy.set_master_key_registry(&registry_);
    kdc_impl_ = std::make_unique<auth::AuthServiceImpl>(
        registry_, auth::KeyFromString("itv_bench kdc secret"));
    kdc_skeleton_ = std::make_unique<auth::AuthSkeleton>(*kdc_impl_);
    wire::ObjectRef auth_ref = kdc_->runtime.Export(kdc_skeleton_.get());

    std::vector<wire::Endpoint> peers;
    for (size_t i = 0; i < kReplicas; ++i) {
      auto ep = std::make_unique<Endpoint>(loop_, &metrics_, clock, hops_.get(),
                                           "", secret_, 10 + i);
      ep->policy.ConfigureTicketSource(ep->runtime, auth_ref);
      peers.push_back(ep->transport.local_endpoint());
      servers_.push_back(std::move(ep));
    }
    for (size_t i = 0; i < kReplicas; ++i) {
      naming::NameServerOptions opts;
      opts.replica_id = static_cast<uint32_t>(i + 1);
      opts.peers = peers;
      opts.initial_contexts = {{"svc"}, {"bench"}};
      // Fast elections keep set-up short; the measured phase never elects.
      opts.heartbeat_interval = Duration::Millis(100);
      opts.election_timeout = Duration::Millis(300);
      replicas_.push_back(std::make_unique<naming::NameServer>(
          servers_[i]->runtime, loop_, opts, &metrics_));
      replicas_.back()->Start();
    }

    for (size_t c = 0; c < kClients; ++c) {
      auto ep = std::make_unique<Endpoint>(loop_, &metrics_, clock, hops_.get(),
                                           "bench/client-" + std::to_string(c),
                                           secret_, 100 + c);
      ep->policy.ConfigureTicketSource(ep->runtime, auth_ref);
      clients_.push_back(std::move(ep));
    }

    // Every replica must answer a write (the master is elected and the
    // "bench" context exists) before the names are bound.
    bool ready = false;
    for (int attempt = 0; attempt < 100 && !ready; ++attempt) {
      ready = true;
      for (size_t c = 0; c < kClients && ready; ++c) {
        std::string probe = "bench/probe-" + std::to_string(attempt) + "-" +
                            std::to_string(c);
        ready = Await(Client(c).Bind(probe, RefFor(1'000'000 + c))).ok();
      }
      if (!ready) {
        loop_.RunFor(Duration::Millis(50));
      }
    }
    ITV_CHECK(ready) << "name service did not elect a master";

    // Bind the read set through all clients, 64 writes in flight at a time.
    size_t next = 0;
    size_t in_flight = 0;
    size_t failures = 0;
    std::function<void(size_t)> issue = [&](size_t c) {
      if (next >= names_) {
        return;
      }
      size_t i = next++;
      ++in_flight;
      Client(c).Bind(NameOf(i), RefFor(i))
          .OnReady([&, c](const itv::Result<void>& r) {
            --in_flight;
            failures += !r.ok();
            issue(c);
          });
    };
    for (size_t w = 0; w < 64; ++w) {
      issue(w % kClients);
    }
    double deadline = WallNow() + 60;
    while ((in_flight > 0 || next < names_) && WallNow() < deadline) {
      loop_.RunFor(Duration::Millis(5));
    }
    ITV_CHECK(in_flight == 0 && next == names_ && failures == 0)
        << "binding the read set failed: " << failures << " errors";
  }

  Report Measure(const std::vector<double>& setups) {
    Report report;
    // Warm-up: the loop runs the same mix for 2 s before anything counts.
    for (size_t c = 0; c < kClients; ++c) {
      state_.push_back(ClientState{});
      IssueNext(c);
    }
    loop_.RunFor(Duration::Seconds(2));

    measuring_ = true;
    if (hops_) {
      hops_->ResetCounts();
    }
    clock_ = LayerClock{};
    uint64_t frames0 = metrics_.Get("net.msg.total");
    uint64_t unsigned0 = metrics_.Get("auth.call_unsigned");
    std::unique_ptr<CpuProfiler> profiler;
    if (config_.trace) {
      profiler = std::make_unique<CpuProfiler>();
      profiler->Start();
    }
    // Throughput and mean wait are medians over quarter-second slices, at the
    // reference machine's speed (bench.h). Throughput counts calls per CPU
    // second; the wait of a slice counts only the share of it the process
    // was on a CPU.
    double wall0 = WallNow();
    double cpu0 = CpuNow();
    std::vector<double> slice_rates;
    std::vector<double> slice_waits;
    std::vector<double> slowdowns;
    Slicer slicer;
    while (WallNow() - wall0 < config_.seconds) {
      uint64_t done0 = completed_;
      double wait0 = wait_sum_ms_;
      loop_.RunFor(Duration::Seconds(Slicer::kSliceS));
      Slice slice = slicer.Close();
      slowdowns.push_back(slice.slowdown);
      if (completed_ > done0) {
        double calls = static_cast<double>(completed_ - done0);
        slice_rates.push_back(calls / slice.ref_cpu_s());
        double wait = (wait_sum_ms_ - wait0) / calls;
        slice_waits.push_back(wait * slice.cpu_s / slice.wall_s /
                              slice.slowdown);
      }
    }
    double wall_s = WallNow() - wall0;
    double cpu_s = CpuNow() - cpu0;
    if (profiler) {
      profiler->Stop();
    }
    measuring_ = false;
    uint64_t frames = metrics_.Get("net.msg.total") - frames0;
    uint64_t unsigned_calls = metrics_.Get("auth.call_unsigned") - unsigned0;

    // Let the calls in flight land (they are not counted).
    stopping_ = true;
    double deadline = WallNow() + 5;
    while (InFlight() > 0 && WallNow() < deadline) {
      loop_.RunFor(Duration::Millis(5));
    }

    report.Set("setup_s", Median(setups), "s");
    report.Set("ops_per_s", Median(slice_rates), "1/s");
    report.Set("wait_ms", Median(slice_waits), "ms");
    report.Set("msgs_per_op",
               completed_ > 0 ? static_cast<double>(frames) /
                                    static_cast<double>(completed_)
                              : 0,
               "msgs");
    report.Set("peak_rss_mb", PeakRssMb(), "MiB");
    report.attempted = completed_ + failed_;
    report.failed = failed_;
    report.Check(wrong_ == 0, std::to_string(wrong_) +
                                  " resolves returned a ref other than the one "
                                  "bound at their path");
    report.Check(failed_writes_ == 0,
                 std::to_string(failed_writes_) + " writes failed");
    report.Check(unsigned_calls == 0, std::to_string(unsigned_calls) +
                                          " calls went out unsigned");
    report.Check(InFlight() == 0, "calls still in flight after the run");
    char buf[240];
    std::snprintf(buf, sizeof(buf),
                  "%llu calls (%llu reads, %llu writes) in %.2f wall-s "
                  "(%.2f CPU-s, machine %.3fx the reference time); wall wait "
                  "p50 %.1f us, p99 %.1f us",
                  static_cast<unsigned long long>(completed_),
                  static_cast<unsigned long long>(reads_),
                  static_cast<unsigned long long>(writes_), wall_s, cpu_s,
                  Median(slowdowns), Percentile(wait_samples_ms_, 50) * 1000,
                  Percentile(wait_samples_ms_, 99) * 1000);
    report.Note(buf);

    if (config_.trace) {
      double ops = static_cast<double>(completed_);
      ReportHops(report, *hops_, ops);
      report.Set("auth.hook_time_share", clock_.auth_s / wall_s, "fraction");
      report.Set("net.send_time_share", clock_.send_s / wall_s, "fraction");
      report.Set("rpc.dispatch_time_share",
                 (clock_.receive_s - clock_.nested_s) / wall_s, "fraction");
      for (const auto& [layer, share] : profiler->Shares()) {
        report.Set(layer + ".cpu_share", share, "fraction");
      }
      report.Set("trace.dropped", 0, "count");
      report.Set("trace.ops_per_s", Median(slice_rates), "1/s");
      report.Note("per-hop table (wall time; request send to reply send):");
      for (const std::string& row : hops_->Table(ops, "ms")) {
        report.Note("  " + row);
      }
      report.Note("CPU samples: " + std::to_string(profiler->samples()));
    }
    return report;
  }

 private:
  struct ClientState {
    bool bound = false;       // Whether the client's own name is bound.
    uint64_t generation = 0;  // Distinguishes successive binds of that name.
    bool in_flight = false;
  };

  naming::NameClient Client(size_t c) {
    const wire::Endpoint& ns = servers_[c % kReplicas]->transport.local_endpoint();
    return naming::NameClient(clients_[c]->runtime, ns.host, ns.port);
  }

  static std::string NameOf(size_t i) { return "bench/n" + std::to_string(i); }

  // The ref bound at NameOf(i): a distinct, recognisable reference per name.
  static wire::ObjectRef RefFor(uint64_t i) {
    wire::ObjectRef ref;
    ref.endpoint = {net::kLoopbackHost, 9};
    ref.incarnation = 7;
    ref.type_id = wire::TypeIdFromName("itv.bench.Object");
    ref.object_id = i + 1;
    return ref;
  }

  template <typename T>
  itv::Result<T> Await(itv::Future<T> f) {
    double deadline = WallNow() + 5;
    while (!f.is_ready() && WallNow() < deadline) {
      loop_.RunFor(Duration::Millis(2));
    }
    if (!f.is_ready()) {
      return itv::DeadlineExceededError("timed out");
    }
    return f.result();
  }

  size_t InFlight() const {
    size_t n = 0;
    for (const ClientState& s : state_) {
      n += s.in_flight;
    }
    return n;
  }

  void Done(size_t c, double started, bool ok) {
    state_[c].in_flight = false;
    if (measuring_) {
      if (ok) {
        ++completed_;
        double wait_ms = (WallNow() - started) * 1000.0;
        wait_sum_ms_ += wait_ms;
        if (wait_samples_ms_.size() < kWaitSamples) {
          wait_samples_ms_.push_back(wait_ms);
        }
      } else {
        ++failed_;
      }
    }
    if (!stopping_) {
      IssueNext(c);
    }
  }

  void IssueNext(size_t c) {
    ClientState& s = state_[c];
    s.in_flight = true;
    double started = WallNow();
    naming::NameClient client = Client(c);
    if (!rng_.Bernoulli(kWriteShare)) {
      size_t i = rng_.Below(names_);
      reads_ += measuring_;
      client.Resolve(NameOf(i)).OnReady(
          [this, c, i, started](const itv::Result<wire::ObjectRef>& r) {
            if (r.ok() && !(*r == RefFor(i))) {
              ++wrong_;
            }
            Done(c, started, r.ok());
          });
      return;
    }
    writes_ += measuring_;
    std::string name = "bench/client-" + std::to_string(c);
    auto on_write = [this, c, started](const itv::Result<void>& r) {
      if (r.ok()) {
        state_[c].bound = !state_[c].bound;
      } else {
        ++failed_writes_;
      }
      Done(c, started, r.ok());
    };
    if (s.bound) {
      client.Unbind(name).OnReady(on_write);
    } else {
      ++s.generation;
      client.Bind(name, RefFor(names_ + 16 * s.generation + c)).OnReady(on_write);
    }
  }

  Config config_;
  itv::Rng rng_;
  size_t names_;
  net::EventLoop loop_;
  itv::Metrics metrics_;
  LayerClock clock_;
  std::unique_ptr<HopMeter> hops_;
  auth::Key secret_{};
  auth::KeyRegistry registry_;
  std::unique_ptr<Endpoint> kdc_;
  std::unique_ptr<auth::AuthServiceImpl> kdc_impl_;
  std::unique_ptr<auth::AuthSkeleton> kdc_skeleton_;
  std::vector<std::unique_ptr<Endpoint>> servers_;
  std::vector<std::unique_ptr<naming::NameServer>> replicas_;
  std::vector<std::unique_ptr<Endpoint>> clients_;

  std::vector<ClientState> state_;
  bool measuring_ = false;
  bool stopping_ = false;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t failed_writes_ = 0;
  uint64_t wrong_ = 0;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  double wait_sum_ms_ = 0;
  // The first calls' wall times, for the printed percentiles. Capped, so the
  // driver's own memory does not grow with throughput and move peak_rss_mb.
  std::vector<double> wait_samples_ms_;
};

}  // namespace

Report RunSignedRpcTcp(const Config& config) {
  std::vector<double> setups;
  std::unique_ptr<SignedRpcTcp> workload = SetUp<SignedRpcTcp>(config, &setups);
  Report report = workload->Measure(setups);
  if (config.trace) {
    report.Set("settop.kb_per_settop", 0, "KiB");
    report.Set("media.trunk_leak_mbps", 0, "Mb/s");
    // The sim-only layers idle on sockets.
    for (const char* name :
         {"rpc.nacks_per_op", "rpc.timeouts_per_op", "rpc.rebinds_per_op",
          "rpc.resolve_cache_hit_ratio", "load.shed_per_op",
          "load.sibling_retries_per_op", "media.open_rejects_per_op",
          "settop.reopens_per_op", "settop.viewer_retries_per_op",
          "sim.events_per_op",
          "ras.detect_share", "naming.unbind_share", "svc.rebind_share",
          "svc.recover_share", "media.stale_sessions"}) {
      if (report.metrics.count(name) == 0) {
        std::string n = name;
        bool fraction = n.find("share") != std::string::npos ||
                        n.find("ratio") != std::string::npos;
        report.Set(name, 0, fraction ? "fraction" : "count");
      }
    }
  }
  return report;
}

}  // namespace itvbench
