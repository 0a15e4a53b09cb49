// The three simulated workloads: prime_time (cold opens at peak load),
// channel_surf (warm re-opens) and server_crash (availability at Orlando
// scale). Each builds a ClusterHarness with the media stack, drives viewers
// through settop::VodApp on virtual time, and measures from outside:
//
//   - every message is seen at sim::Network::SetTap (Observer below), which
//     times each open from its due time to the delivery of its Movie.Play
//     reply, and each interrupted viewer's gap between media chunks;
//   - sim-time metrics cover the ops due inside a fixed sim horizon, so they
//     are exact for a seed; the measured phase then runs on until the wall
//     budget is spent, and the wall-clock metrics cover all of it.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <unordered_map>

#include "itvbench/bench.h"
#include "itvbench/hops.h"
#include "itvbench/profiler.h"
#include "src/common/rand.h"
#include "src/common/trace.h"
#include "src/media/factories.h"
#include "src/rpc/binding_table.h"
#include "src/settop/vod_app.h"
#include "src/svc/harness.h"
#include "src/svc/settop_manager.h"

namespace itvbench {
namespace {

using itv::Duration;
using itv::Rng;
using itv::Status;
using itv::Time;
namespace media = itv::media;
namespace settop = itv::settop;
namespace sim = itv::sim;
namespace svc = itv::svc;
namespace wire = itv::wire;

const uint64_t kSinkType = wire::TypeIdFromName(media::kMediaSinkInterface);
const uint64_t kMovieType = wire::TypeIdFromName(media::kMovieInterface);

// The harness uses sim::NetworkOptions' defaults; the tap sees a message when
// it is sent, so delivery is that plus the link latency.
Duration LinkLatency(uint32_t a, uint32_t b) {
  static const sim::NetworkOptions kNetwork;
  return (itv::IsSettopHost(a) || itv::IsSettopHost(b))
             ? kNetwork.server_settop_latency
             : kNetwork.server_server_latency;
}

uint64_t EndpointKey(const wire::Endpoint& ep) {
  return (static_cast<uint64_t>(ep.host) << 16) | ep.port;
}

struct Viewer {
  sim::Node* node = nullptr;
  sim::Process* process = nullptr;
  settop::VodApp* vod = nullptr;
  uint64_t key = 0;
  std::string title;
  // The open in progress: when it was due, whether it counts toward the
  // sim-time metrics, and the Movie.Play call whose reply completes it.
  bool opening = false;
  bool counted = false;
  Time due;
  uint64_t play_call = 0;
  itv::trace::TraceContext trace;
  // Data plane: delivery time of the latest media chunk, and the state of an
  // interruption by a server crash.
  Time last_chunk;
  bool interrupted = false;
  bool interruption_counted = false;
  Time chunk_before;
};

// Watches every message the cluster routes.
class Observer {
 public:
  Observer(sim::Cluster& cluster, HopMeter* hops)
      : cluster_(cluster), hops_(hops) {
    cluster_.network().SetTap(
        [this](const wire::Endpoint& src, const wire::Endpoint& dst,
               const wire::Message& msg) { OnMessage(src, dst, msg); });
  }
  ~Observer() { cluster_.network().SetTap(nullptr); }
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  void Track(Viewer& v) {
    v.key = EndpointKey(v.process->endpoint());
    viewers_[v.key] = &v;
  }
  void Untrack(Viewer& v) { viewers_.erase(v.key); }
  // Ends per-hop metering (the measured phase is over).
  void DetachHops() { hops_ = nullptr; }

  uint64_t sink_requests() const { return sink_requests_; }
  // Control plane: everything except MediaSink requests and their replies
  // (every sink request is answered: settops never crash here).
  uint64_t control() const { return total_ - 2 * sink_requests_; }

  std::function<void(Viewer&, Time)> on_open;
  // Runs before the viewer's last_chunk moves to the new delivery time.
  std::function<void(Viewer&, Time)> on_chunk;

 private:
  Viewer* Find(const wire::Endpoint& ep) {
    auto it = viewers_.find(EndpointKey(ep));
    return it == viewers_.end() ? nullptr : it->second;
  }

  void OnMessage(const wire::Endpoint& src, const wire::Endpoint& dst,
                 const wire::Message& msg) {
    ++total_;
    Time now = cluster_.Now();
    Duration link = LinkLatency(src.host, dst.host);
    if (hops_ != nullptr) {
      hops_->OnSend(src, dst, msg, now, link);
    }
    if (msg.kind == wire::MsgKind::kRequest) {
      if (msg.type_id == kSinkType) {
        ++sink_requests_;
        if (msg.method_id == media::kSinkMethodOnData) {
          if (Viewer* v = Find(dst)) {
            if (on_chunk) {
              on_chunk(*v, now + link);
            }
            v->last_chunk = now + link;
          }
        }
      } else if (msg.type_id == kMovieType &&
                 msg.method_id == media::kMovieMethodPlay) {
        if (Viewer* v = Find(src); v != nullptr && v->opening) {
          v->play_call = msg.call_id;
        }
      }
    } else if (msg.kind == wire::MsgKind::kReply &&
               itv::IsSettopHost(dst.host) &&
               msg.status == itv::StatusCode::kOk) {
      if (Viewer* v = Find(dst); v != nullptr && v->opening &&
                                 v->play_call == msg.call_id && on_open) {
        on_open(*v, now + link);
      }
    }
  }

  sim::Cluster& cluster_;
  HopMeter* hops_;
  std::unordered_map<uint64_t, Viewer*> viewers_;
  uint64_t total_ = 0;
  uint64_t sink_requests_ = 0;
};

// Runs the cluster until `f` is ready (bounded), like a client blocking on it.
template <typename T>
itv::Result<T> WaitOn(sim::Cluster& cluster, itv::Future<T> f,
                      Duration limit = Duration::Seconds(10)) {
  Time deadline = cluster.Now() + limit;
  while (!f.is_ready() && cluster.Now() < deadline) {
    cluster.RunFor(Duration::Millis(10));
  }
  if (!f.is_ready()) {
    return itv::DeadlineExceededError("bench wait timed out");
  }
  return f.result();
}

std::map<std::string, uint64_t> CounterSnapshot(const itv::Metrics& metrics) {
  return {metrics.counters().begin(), metrics.counters().end()};
}

// --- The measured phase ---------------------------------------------------------

struct Window {
  Time start;
  Time horizon_end;  // Sim-time metrics cover ops due before this.
  double wall_s = 0;
  double cpu_s = 0;
  double sim_s = 0;
  // Sim seconds per CPU second at the reference machine's speed, median over
  // slices (bench.h).
  double sim_speed = 0;
  double slowdown = 1;  // Median over slices.
  uint64_t control_in_horizon = 0;
  uint64_t events = 0;
};

// Runs exactly `horizon` of sim time (the deterministic part), then on until
// `seconds` of wall time have passed since the start. The cluster advances
// in one-sim-second steps, cut into quarter-second slices.
Window RunWindow(sim::Cluster& cluster, const Observer& observer,
                 Duration horizon, double seconds) {
  Window w;
  w.start = cluster.Now();
  w.horizon_end = w.start + horizon;
  double wall0 = WallNow();
  double cpu0 = CpuNow();
  uint64_t control0 = observer.control();
  uint64_t events0 = cluster.scheduler().executed_events();
  std::vector<double> speeds;
  std::vector<double> slowdowns;
  Slicer slicer;
  Time slice_start = w.start;
  auto close = [&] {
    Slice slice = slicer.Close();
    speeds.push_back((cluster.Now() - slice_start).seconds() / slice.ref_cpu_s());
    slowdowns.push_back(slice.slowdown);
    slice_start = cluster.Now();
  };
  auto step = [&](Time until) {
    cluster.RunUntil(until);
    if (slicer.Due()) {
      close();
    }
  };
  while (cluster.Now() < w.horizon_end) {
    step(std::min(w.horizon_end, cluster.Now() + Duration::Seconds(1)));
  }
  w.control_in_horizon = observer.control() - control0;
  while (WallNow() - wall0 < seconds) {
    step(cluster.Now() + Duration::Seconds(1));
  }
  if (speeds.empty()) {
    close();
  }
  w.wall_s = WallNow() - wall0;
  w.cpu_s = CpuNow() - cpu0;
  w.sim_s = (cluster.Now() - w.start).seconds();
  w.sim_speed = Median(speeds);
  w.slowdown = Median(slowdowns);
  w.events = cluster.scheduler().executed_events() - events0;
  return w;
}

// --- Correctness audits over RPC -------------------------------------------------

struct Audit {
  bool reachable = true;
  std::map<uint32_t, int> session_hosts;  // settop host -> sessions held
  uint64_t sessions = 0;
  bool pool_sound = true;
  int64_t trunk_reserved_bps = 0;
};

Audit AuditCluster(svc::ClusterHarness& harness, sim::Process& probe,
                   const wire::ShardMap& map) {
  Audit audit;
  sim::Cluster& cluster = harness.cluster();
  itv::naming::NameClient nc(probe.runtime(),
                             harness.NsHostFor(probe.host()));
  for (uint32_t s = 0; s < map.shard_count; ++s) {
    auto ref = WaitOn(cluster, nc.Resolve(wire::ShardPath(media::kMmsName, s, map)));
    if (!ref.ok()) {
      audit.reachable = false;
      continue;
    }
    media::MmsProxy mms(probe.runtime(), *ref);
    auto hosts = WaitOn(cluster, mms.ListSessionHosts());
    auto admission = WaitOn(cluster, mms.GetAdmission());
    if (!hosts.ok() || !admission.ok()) {
      audit.reachable = false;
      continue;
    }
    for (uint32_t host : *hosts) {
      ++audit.session_hosts[host];
      ++audit.sessions;
    }
    if (admission->pool_bps > 0 &&
        admission->peak_granted_bps > admission->pool_bps) {
      audit.pool_sound = false;
    }
  }
  for (size_t i = 0; i < harness.server_count(); ++i) {
    auto ref = WaitOn(cluster, nc.Resolve(media::TrunkName(harness.HostOf(i))));
    if (!ref.ok()) {
      audit.reachable = false;
      continue;
    }
    auto usage =
        WaitOn(cluster, media::TrunkProxy(probe.runtime(), *ref).Usage());
    if (!usage.ok()) {
      audit.reachable = false;
      continue;
    }
    audit.trunk_reserved_bps += usage->reserved_bps;
  }
  return audit;
}

// --- Reporting --------------------------------------------------------------------

struct Ops {
  std::vector<double> wait_ms;  // Sim-time waits of the ops in the horizon.
  uint64_t in_horizon = 0;      // Ops due before the horizon end.
  uint64_t in_window = 0;       // All ops due in the measured phase.
  uint64_t failed = 0;
};

// Tracing state of one traced run: the hop meter, the CPU sampler and the
// cluster trace buffer sized so nothing is dropped.
struct Tracing {
  HopMeter hops;
  CpuProfiler profiler;
};

void ReportEndToEnd(Report& report, const Ops& ops, const Window& w,
                    double work_per_sim_s, double msgs_per_op,
                    const std::vector<double>& setups) {
  report.Set("setup_s", Median(setups), "s");
  report.Set("ops_per_s", work_per_sim_s * w.sim_speed, "1/s");
  report.Set("wait_ms", Mean(ops.wait_ms), "ms");
  report.Set("msgs_per_op", msgs_per_op, "msgs");
  report.Set("peak_rss_mb", PeakRssMb(), "MiB");
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "ops in horizon %llu (wait samples %zu), ops in window %llu, "
                "wait p50 %.3f ms, p99 %.3f ms, max %.3f ms",
                static_cast<unsigned long long>(ops.in_horizon),
                ops.wait_ms.size(),
                static_cast<unsigned long long>(ops.in_window),
                Percentile(ops.wait_ms, 50), Percentile(ops.wait_ms, 99),
                Percentile(ops.wait_ms, 100));
  report.Note(buf);
  std::snprintf(buf, sizeof(buf),
                "window: %.1f sim-s in %.2f wall-s (%.2f CPU-s), %llu events, "
                "machine %.3fx the reference time",
                w.sim_s, w.wall_s, w.cpu_s,
                static_cast<unsigned long long>(w.events), w.slowdown);
  report.Note(buf);
}

// Per-layer metrics shared by the sim workloads. `ops` is the number of ops
// in the measured phase; `before` and `after` are the cluster counters at its
// start and end.
void ReportLayers(Report& report, Tracing& tracing, svc::ClusterHarness& harness,
                  const std::map<std::string, uint64_t>& before,
                  const std::map<std::string, uint64_t>& after,
                  const Window& w, double ops, double work_per_sim_s,
                  double settop_kb, double viewer_retries,
                  const std::string& out_dir, const std::string& workload) {
  auto per_op = [&](double n) { return ops > 0 ? n / ops : 0.0; };
  auto delta = [&](const char* name) {
    auto a = after.find(name);
    auto b = before.find(name);
    return static_cast<double>((a == after.end() ? 0 : a->second) -
                               (b == before.end() ? 0 : b->second));
  };
  const HopMeter& hops = tracing.hops;
  ReportHops(report, hops, ops);
  report.Set("rpc.nacks_per_op", per_op(delta("rpc.nack.recv")), "count");
  report.Set("rpc.timeouts_per_op", per_op(delta("rpc.timeout")), "count");
  report.Set("rpc.rebinds_per_op", per_op(delta("rebind.count")), "count");
  double hits = delta("resolve.cache.hit");
  double misses = delta("resolve.cache.miss");
  report.Set("rpc.resolve_cache_hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "fraction");
  report.Set("load.shed_per_op", per_op(delta("mms.admission_shed")), "count");
  report.Set("load.sibling_retries_per_op", per_op(delta("vod.sibling_retry")),
             "count");
  report.Set("media.open_rejects_per_op",
             per_op(delta("mms.open_no_replica") + delta("mms.open_exhausted") +
                    delta("mms.cmgr_denied")),
             "count");
  report.Set("settop.reopens_per_op", per_op(delta("vod.reopen")), "count");
  report.Set("settop.viewer_retries_per_op", per_op(viewer_retries), "count");
  report.Set("settop.kb_per_settop", settop_kb, "KiB");
  report.Set("sim.events_per_op", per_op(static_cast<double>(w.events)), "count");
  // The sim has no sockets or signing: the TCP-only time shares are 0.
  report.Set("auth.hook_time_share", 0, "fraction");
  report.Set("net.send_time_share", 0, "fraction");
  report.Set("rpc.dispatch_time_share", 0, "fraction");
  for (const auto& [layer, share] : tracing.profiler.Shares()) {
    report.Set(layer + ".cpu_share", share, "fraction");
  }
  const itv::trace::TraceBuffer& buffer = harness.cluster().trace_buffer();
  report.Set("trace.dropped", static_cast<double>(buffer.dropped()), "count");
  report.Set("trace.ops_per_s", work_per_sim_s * w.sim_speed, "1/s");
  report.Check(buffer.dropped() == 0, "trace buffer dropped events");

  std::vector<std::string> table = hops.Table(ops, "ms");
  report.Note("per-hop table (sim time; request send to reply delivery):");
  for (const std::string& row : table) {
    report.Note("  " + row);
  }
  std::string json = itv::trace::ChromeTraceJson(buffer);
  std::string error;
  report.Check(itv::trace::ValidateChromeTrace(json, &error),
               "Chrome trace is invalid: " + error);
  std::ofstream(out_dir + "/" + workload + ".trace.json") << json;
  report.Note("wrote " + out_dir + "/" + workload + ".trace.json (" +
              std::to_string(buffer.size()) + " events, " +
              std::to_string(tracing.profiler.samples()) + " CPU samples)");
}

// Turns tracing on for the measured phase (or off for an untraced run).
void ConfigureTraceBuffer(sim::Cluster& cluster, bool trace) {
  cluster.trace_buffer().set_capacity(trace ? size_t{1} << 22 : 0);
}

media::MediaDeployment BaseDeployment(size_t servers, int64_t mds_bps,
                                      int64_t trunk_bps) {
  media::MediaDeployment deploy;
  deploy.movies = media::SyntheticCatalog(/*count=*/100, servers, /*replicas=*/2);
  deploy.mds_capacity_bps = mds_bps;
  deploy.trunk_capacity_bps = trunk_bps;
  // One chunk per second per stream (the Orlando bench's cadence): the data
  // plane is not what these workloads measure.
  deploy.mds_chunk_period = Duration::Seconds(1);
  return deploy;
}

size_t Scaled(size_t n, double scale, size_t floor = 1) {
  return std::max(floor, static_cast<size_t>(static_cast<double>(n) * scale));
}

// Common skeleton of a sim workload: the harness, the observer on its
// network, the optional tracing state, the op log and the freeze flag that
// ends the open loop after the measured phase.
class SimWorkload {
 public:
  explicit SimWorkload(const Config& config)
      : config_(config), rng_(config.seed) {
    if (config.trace) {
      tracing_ = std::make_unique<Tracing>();
    }
  }
  virtual ~SimWorkload() = default;
  SimWorkload(const SimWorkload&) = delete;
  SimWorkload& operator=(const SimWorkload&) = delete;

 protected:
  sim::Cluster& cluster() { return harness_->cluster(); }

  void Boot(const svc::HarnessOptions& opts,
            const media::MediaDeployment& deploy, Duration settle) {
    harness_ = std::make_unique<svc::ClusterHarness>(opts);
    media::RegisterMediaServices(*harness_, deploy);
    ConfigureTraceBuffer(cluster(), false);
    harness_->Boot();
    cluster().RunFor(settle);
    observer_ = std::make_unique<Observer>(
        cluster(), tracing_ ? &tracing_->hops : nullptr);
    observer_->on_open = [this](Viewer& v, Time t) { OnOpened(v, t); };
  }

  Viewer& AddViewer(sim::Node& node, const settop::VodApp::Options& vopts) {
    viewers_.push_back(std::make_unique<Viewer>());
    Viewer& v = *viewers_.back();
    v.node = &node;
    v.process = &node.Spawn("viewer");
    v.vod = v.process->Emplace<settop::VodApp>(
        v.process->runtime(), v.process->executor(),
        harness_->ClientFor(*v.process), vopts, &harness_->metrics());
    observer_->Track(v);
    return v;
  }

  // Starts an op: `title` opens on `v` now. Ops started while measuring
  // count toward the window, and toward the sim-time metrics when due
  // before the horizon end. One measured open in 16 is traced, rooted at
  // the viewer's own tracer.
  void StartOpen(Viewer& v, const std::string& title) {
    Time now = cluster().Now();
    v.opening = true;
    v.play_call = 0;
    v.due = now;
    v.counted = measuring_ && now < horizon_end_;
    v.trace = {};
    if (measuring_) {
      ++ops_.in_window;
      ops_.in_horizon += v.counted;
    }
    itv::trace::Tracer& tracer = v.process->tracer();
    if (tracing_ && measuring_ && ops_.in_window % 16 == 0) {
      v.trace = tracer.StartTrace();
    }
    itv::trace::ScopedContext scoped(&tracer, v.trace);
    v.title = title;
    Play(v);
  }

  void Play(Viewer& v) {
    Viewer* vp = &v;
    v.vod->PlayMovie(v.title, [this, vp](Status status) {
      if (!status.ok()) {
        OnPlayFailed(*vp);
      }
    });
  }

  // PlayMovie gave up (the open failed, or a reopen after a dead stream
  // did). By default the op fails.
  virtual void OnPlayFailed(Viewer& v) {
    if (v.opening) {
      v.opening = false;
      ++ops_.failed;
    }
  }

  void OnOpened(Viewer& v, Time delivered) {
    v.opening = false;
    if (v.counted) {
      ops_.wait_ms.push_back((delivered - v.due).seconds() * 1000.0);
    }
    if (v.trace.valid()) {
      v.process->tracer().SpanAt(v.trace, "bench.open", v.due, delivered);
    }
  }

  // Opens still unfinished after the drain count as failed.
  void FailUnfinishedOpens() {
    for (auto& v : viewers_) {
      if (v->opening) {
        v->opening = false;
        ++ops_.failed;
      }
    }
  }

  void BeginMeasuring() {
    measuring_ = true;
    horizon_end_ = cluster().Now() + horizon_;
    counters_ = CounterSnapshot(harness_->metrics());
    if (tracing_) {
      tracing_->hops.ResetCounts();
      ConfigureTraceBuffer(cluster(), true);
      tracing_->profiler.Start();
    }
  }

  Window MeasureWindow() {
    Window w = RunWindow(cluster(), *observer_, horizon_, config_.seconds);
    counters_after_ = CounterSnapshot(harness_->metrics());
    if (tracing_) {
      tracing_->profiler.Stop();
      observer_->DetachHops();
    }
    frozen_ = true;
    measuring_ = false;
    return w;
  }

  void StopAll() {
    stopped_ = true;
    for (auto& v : viewers_) {
      if (v->vod != nullptr) {
        v->vod->Stop();
      }
    }
  }

  // Ends every sim workload. What a viewer would notice fails the run: a
  // playing viewer whose stream went quiet or whose session no MMS shard
  // holds, a shard that granted past its pool, media still flowing after
  // every viewer stopped. Leftovers in the MMS session tables and the trunk
  // ledgers after everyone stopped are reported as counts: the seed leaves
  // some (a primary's refresh can re-adopt a session closing under it, and
  // server crashes leave trunk reserved).
  void CheckAndTearDown(Report& report, const wire::ShardMap& map) {
    sim::Process& probe = harness_->SpawnProcessOn(0, "bench-probe");
    Time now = cluster().Now();
    Audit live = AuditCluster(*harness_, probe, map);
    size_t playing = 0, silent = 0, unheld = 0, doubled = 0;
    for (const auto& v : viewers_) {
      if (v->vod == nullptr || !v->vod->playing()) {
        continue;
      }
      ++playing;
      silent += now - v->last_chunk > Duration::Seconds(3);
      auto it = live.session_hosts.find(v->node->host());
      int held = it == live.session_hosts.end() ? 0 : it->second;
      unheld += held == 0;
      doubled += held > 1;
    }
    std::string of = " of " + std::to_string(playing) + " playing viewers ";
    report.Check(live.reachable, "every MMS shard and trunk answered the audit");
    report.Check(silent == 0, std::to_string(silent) + of +
                                  "received no media chunk in the last 3 s");
    report.Check(unheld == 0,
                 std::to_string(unheld) + of + "have no session on any MMS shard");
    report.Check(live.pool_sound, "no MMS shard granted past its admission pool");

    StopAll();
    cluster().RunFor(Duration::Seconds(30));
    uint64_t chunks = observer_->sink_requests();
    cluster().RunFor(Duration::Seconds(10));
    chunks = observer_->sink_requests() - chunks;
    report.Check(chunks == 0, std::to_string(chunks) +
                                  " media chunks sent 30 s after every viewer "
                                  "stopped");
    Audit idle = AuditCluster(*harness_, probe, map);
    report.Check(idle.reachable, "every MMS shard and trunk answered after idle");
    report.Set("media.stale_sessions", static_cast<double>(idle.sessions),
               "count");
    report.Set("media.trunk_leak_mbps",
               static_cast<double>(idle.trunk_reserved_bps) / 1e6, "Mb/s");
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "audit: %zu%sheld twice; after stopping: %llu MMS sessions "
                  "left, %.1f Mb/s of trunk still reserved",
                  doubled, of.c_str(),
                  static_cast<unsigned long long>(idle.sessions),
                  static_cast<double>(idle.trunk_reserved_bps) / 1e6);
    report.Note(buf);
  }

  // Reports the per-layer metrics when tracing and fills attempted/failed.
  // `layer_ops` is what the per-layer metrics count per (the workload's op
  // in the measured phase).
  void Finish(Report& report, const Window& w, double work_per_sim_s,
              double layer_ops, double settop_kb, double viewer_retries,
              const char* workload) {
    if (tracing_) {
      ReportLayers(report, *tracing_, *harness_, counters_, counters_after_, w,
                   layer_ops,
                   work_per_sim_s, settop_kb, viewer_retries, config_.out_dir,
                   workload);
    }
    report.attempted = ops_.in_window;
    report.failed = ops_.failed;
  }

  std::string Title(size_t titles) {
    return "movie-" + std::to_string(rng_.Below(titles));
  }

  Config config_;
  Rng rng_;
  Duration horizon_;
  std::unique_ptr<Tracing> tracing_;
  std::unique_ptr<svc::ClusterHarness> harness_;
  std::unique_ptr<Observer> observer_;
  std::vector<std::unique_ptr<Viewer>> viewers_;
  // Cluster counters at the start and the end of the measured phase.
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, uint64_t> counters_after_;
  Time horizon_end_;
  bool measuring_ = false;
  bool frozen_ = false;
  bool stopped_ = false;  // Every viewer has been told to stop.
  Ops ops_;
};

// --- prime_time ---------------------------------------------------------------------
//
// Cold opens at peak load. Each arrival is a new settop process, so every
// open pays a name resolve, a ".shards" fetch, MMS -> CMgr -> trunk -> MDS,
// admission, and sometimes a shed plus a sibling retry. Titles follow a Zipf
// popularity curve (title skew governs VoD load), and settop hosts lean
// toward MMS shard 0 so that shard sheds and the load board steers retries
// to its siblings.

class PrimeTime : public SimWorkload {
 public:
  static constexpr size_t kServers = 16;
  static constexpr uint32_t kShards = 4;
  static constexpr double kArrivalsPerS = 12;
  static constexpr double kMeanHoldS = 60;
  static constexpr double kHotShardShare = 0.4;
  // 260 streams per shard: below the ~290 that shard 0's settops hold at
  // once, so shard 0 stays saturated. Sibling-opened sessions are handed back
  // to their home shard and keep its ledger over the pool, so nearly every
  // shard-0 arrival is shed and retried on a sibling; that regime repeats
  // from seed to seed, where a pool just above the mean sheds 6-30%.
  static constexpr int64_t kShardPoolBps = 780'000'000;
  static constexpr double kZipfSkew = 0.8;
  static constexpr size_t kTitles = 100;
  static constexpr double kHorizonS = 1200;

  explicit PrimeTime(const Config& config)
      : SimWorkload(config), map_{kShards, wire::kDefaultShardSalt} {
    horizon_ = Duration::Seconds(kHorizonS * config.scale);
  }

  void SetUp() {
    svc::HarnessOptions opts;
    opts.server_count = kServers;
    opts.neighborhood_count = kServers;
    // 400 Mb/s per MDS keeps the Zipf-hot titles' servers out of the way, so
    // the shard admission pool is what binds.
    media::MediaDeployment deploy =
        BaseDeployment(kServers, 400'000'000, 800'000'000);
    deploy.mms_shards = kShards;
    deploy.mms_replicas = 4;
    deploy.load_board = true;
    deploy.mms_admission_pool_bps = kShardPoolBps;
    Boot(opts, deploy, Duration::Seconds(15));

    // A pool of settop hosts per MMS shard (about 1,000 each, several times
    // the ~300 the hot shard holds at once); each arrival draws a free host.
    for (size_t i = 0; i < 4096; ++i) {
      sim::Node& node =
          harness_->AddSettop(static_cast<uint8_t>(1 + i % kServers));
      free_hosts_[wire::ShardOf(node.host(), map_)].push_back(&node);
    }
    // The idle cluster's control-plane background, subtracted per op.
    uint64_t before = observer_->control();
    cluster().RunFor(Duration::Seconds(20));
    background_per_s_ =
        static_cast<double>(observer_->control() - before) / 20.0;
    // Warm-up: three mean hold times of arrivals bring the viewer population
    // to its steady state before anything is measured.
    ScheduleArrival(cluster().Now());
    cluster().RunFor(Duration::Seconds(3 * kMeanHoldS));
  }

  Report Measure(const std::vector<double>& setups) {
    Report report;
    BeginMeasuring();
    Window w = MeasureWindow();
    cluster().RunFor(Duration::Seconds(30));  // Opens in flight may finish.
    FailUnfinishedOpens();

    double msgs_per_op =
        ops_.in_horizon == 0
            ? 0
            : (static_cast<double>(w.control_in_horizon) -
               background_per_s_ * horizon_.seconds()) /
                  static_cast<double>(ops_.in_horizon);
    ReportEndToEnd(report, ops_, w, kArrivalsPerS, msgs_per_op, setups);
    uint64_t sheds = counters_after_["mms.admission_shed"] -
                     counters_["mms.admission_shed"];
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "shed opens %llu (%.1f%% of ops), failed opens %llu, idle "
                  "background %.1f ctl msgs/s",
                  static_cast<unsigned long long>(sheds),
                  100.0 * static_cast<double>(sheds) /
                      std::max<double>(1, static_cast<double>(ops_.in_window)),
                  static_cast<unsigned long long>(ops_.failed),
                  background_per_s_);
    report.Note(buf);
    Finish(report, w, kArrivalsPerS, static_cast<double>(ops_.in_window), 0, 0,
           "prime_time");
    CheckAndTearDown(report, map_);
    return report;
  }

 private:
  void ScheduleArrival(Time when) {
    cluster().scheduler().ScheduleAt(when, [this] { Arrive(); });
  }

  void Arrive() {
    if (frozen_) {
      return;
    }
    Time now = cluster().Now();
    ScheduleArrival(now +
                    Duration::Seconds(rng_.Exponential(1.0 / kArrivalsPerS)));
    uint32_t shard = rng_.Bernoulli(kHotShardShare)
                         ? 0
                         : 1 + static_cast<uint32_t>(rng_.Below(kShards - 1));
    std::string title =
        "movie-" + std::to_string(rng_.Zipf(kTitles, kZipfSkew));
    double hold_s = rng_.Exponential(kMeanHoldS);
    std::vector<sim::Node*>& pool = free_hosts_[shard];
    ITV_CHECK(!pool.empty()) << "settop pool of shard " << shard << " is empty";
    size_t pick = rng_.Below(pool.size());
    sim::Node* node = pool[pick];
    pool[pick] = pool.back();
    pool.pop_back();

    settop::VodApp::Options vopts;
    vopts.load_board_path = std::string(itv::load::kLoadBoardName);
    Viewer& v = AddViewer(*node, vopts);
    StartOpen(v, title);
    Viewer* vp = &v;
    cluster().scheduler().ScheduleAt(now + Duration::Seconds(hold_s),
                                     [this, vp, shard] { Leave(vp, shard); });
  }

  // The viewer holds from when the picture is up: a hold that ends while the
  // open is still in flight waits for it.
  void Leave(Viewer* v, uint32_t shard) {
    if (frozen_) {
      return;
    }
    if (v->opening) {
      cluster().scheduler().ScheduleAt(cluster().Now() + Duration::Seconds(1),
                                       [this, v, shard] { Leave(v, shard); });
      return;
    }
    v->vod->Stop();
    // The process exits once its close has landed; its host then returns to
    // the pool for a later arrival.
    cluster().scheduler().ScheduleAt(
        cluster().Now() + Duration::Seconds(5), [this, v, shard] {
          if (frozen_) {
            return;
          }
          observer_->Untrack(*v);
          v->node->Kill(v->process->pid());
          v->vod = nullptr;
          free_hosts_[shard].push_back(v->node);
        });
  }

  wire::ShardMap map_;
  std::map<uint32_t, std::vector<sim::Node*>> free_hosts_;
  double background_per_s_ = 0;
};

// --- channel_surf -------------------------------------------------------------------
//
// Warm re-opens. 512 viewers are opened and surfed once during set-up, so
// their resolution caches, binding tables and shard routers are warm; then
// each viewer changes channel (Stop, then PlayMovie of a new title) after an
// exponential dwell. Each change pays an MMS/CMgr/MDS close plus an open,
// while the name service stays nearly idle.

class ChannelSurf : public SimWorkload {
 public:
  static constexpr size_t kServers = 8;
  static constexpr uint32_t kShards = 4;
  static constexpr size_t kViewers = 512;
  static constexpr double kMeanDwellS = 8;
  static constexpr size_t kTitles = 100;
  static constexpr double kHorizonS = 1200;

  explicit ChannelSurf(const Config& config)
      : SimWorkload(config), map_{kShards, wire::kDefaultShardSalt} {
    horizon_ = Duration::Seconds(kHorizonS * config.scale);
  }

  void SetUp() {
    svc::HarnessOptions opts;
    opts.server_count = kServers;
    opts.neighborhood_count = kServers;
    // 400 Mb/s per MDS: admission never binds.
    media::MediaDeployment deploy =
        BaseDeployment(kServers, 400'000'000, 800'000'000);
    deploy.mms_shards = kShards;
    deploy.mms_replicas = 4;
    Boot(opts, deploy, Duration::Seconds(15));

    size_t viewers = Scaled(kViewers, config_.scale, 16);
    settop::VodApp::Options vopts;
    vopts.load_board_path = std::string(itv::load::kLoadBoardName);
    for (size_t i = 0; i < viewers; ++i) {
      AddViewer(harness_->AddSettop(static_cast<uint8_t>(1 + i % kServers)),
                vopts);
    }
    // Open everyone, then surf once, so every cache is warm.
    for (int pass = 0; pass < 2; ++pass) {
      for (auto& v : viewers_) {
        v->vod->Stop();
        StartOpen(*v, Title(kTitles));
        cluster().RunFor(Duration::Millis(20));
      }
      cluster().RunFor(Duration::Seconds(5));
    }
    for (auto& v : viewers_) {
      setup_ok_ = setup_ok_ && !v->opening && v->vod->playing();
    }
    ops_ = Ops();
    uint64_t before = observer_->control();
    cluster().RunFor(Duration::Seconds(20));
    background_per_s_ =
        static_cast<double>(observer_->control() - before) / 20.0;
  }

  Report Measure(const std::vector<double>& setups) {
    Report report;
    report.Check(setup_ok_, "every viewer opened during set-up");
    BeginMeasuring();
    for (auto& v : viewers_) {
      ScheduleChange(v.get());
    }
    Window w = MeasureWindow();
    cluster().RunFor(Duration::Seconds(30));
    FailUnfinishedOpens();

    double msgs_per_op =
        ops_.in_horizon == 0
            ? 0
            : (static_cast<double>(w.control_in_horizon) -
               background_per_s_ * horizon_.seconds()) /
                  static_cast<double>(ops_.in_horizon);
    double changes_per_s =
        static_cast<double>(viewers_.size()) / kMeanDwellS;
    ReportEndToEnd(report, ops_, w, changes_per_s, msgs_per_op, setups);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%zu viewers, %.0f changes/s offered, streaming background "
                  "%.1f ctl msgs/s",
                  viewers_.size(), changes_per_s, background_per_s_);
    report.Note(buf);
    Finish(report, w, changes_per_s, static_cast<double>(ops_.in_window), 0, 0,
           "channel_surf");
    CheckAndTearDown(report, map_);
    return report;
  }

 private:
  void ScheduleChange(Viewer* v) {
    cluster().scheduler().ScheduleAt(
        cluster().Now() + Duration::Seconds(rng_.Exponential(kMeanDwellS)),
        [this, v] { Change(v); });
  }

  // A viewer changes channel only once its picture is up: a change while an
  // open is still in flight would race the old ticket against the new open.
  void Change(Viewer* v) {
    if (frozen_) {
      return;
    }
    if (!v->opening) {
      v->vod->Stop();
      StartOpen(*v, Title(kTitles));
    }
    ScheduleChange(v);
  }

  wire::ShardMap map_;
  double background_per_s_ = 0;
  bool setup_ok_ = true;
};

// --- server_crash -------------------------------------------------------------------
//
// Availability at the paper's target scale: 16 servers, a community of 4,000
// settops heartbeating the Settop Manager, 1,000 of them streaming, and whole
// servers crashing (servers 0 and 1 hold the database and the CSCs and are
// spared) then coming back 60 s later. Fail-over runs on the paper's clocks:
// 10 s bind retry, 10 s name-service audit, 5 s RAS poll. An interrupted
// viewer's wait is the gap between its last chunk before the crash and its
// first chunk after it, as the viewer sees it.

class ServerCrash : public SimWorkload {
 public:
  static constexpr size_t kServers = 16;
  static constexpr size_t kCommunity = 4000;
  static constexpr size_t kViewers = 1000;
  static constexpr double kMeanDwellS = 300;
  // kRestoreAfterS plus the clock cycle: no two servers are down at once.
  static constexpr double kCrashSpacingS = 70;
  // The fail-over clocks (5 s RAS poll and heartbeats, 10 s audit and bind
  // retry) repeat every 10 s, and how long a crash interrupts viewers depends
  // on where in that cycle it lands.
  static constexpr double kClockCycleS = 10;
  static constexpr double kRestoreAfterS = 60;
  static constexpr size_t kTitles = 100;
  // Rounds in the horizon; in each, every crashable server crashes once. How
  // long a crash's viewers stay dark varies a lot from crash to crash, and
  // two rounds keep the mean steady from seed to seed.
  static constexpr double kRounds = 2;

  explicit ServerCrash(const Config& config) : SimWorkload(config) {
    horizon_ = Duration::Seconds(std::max(
        150.0, kRounds * (kServers - 2) * kCrashSpacingS * config.scale));
  }

  void SetUp() {
    svc::HarnessOptions opts;
    opts.server_count = kServers;
    opts.neighborhood_count = kServers;
    opts.ns.audit_interval = Duration::Seconds(10);
    opts.ras.peer_poll_interval = Duration::Seconds(5);
    opts.ras.peer_failures_to_dead = 1;
    opts.ras.rpc_timeout = Duration::Seconds(1);
    opts.binder.retry_interval = Duration::Seconds(10);
    // 400 Mb/s per MDS: a crashed server's streams re-home onto the surviving
    // replica of their title without running out of capacity.
    Boot(opts, BaseDeployment(kServers, 400'000'000, 800'000'000),
         Duration::Seconds(20));

    double rss0 = RssKb();
    community_ = Scaled(kCommunity, config_.scale, 40);
    std::vector<sim::Node*> settops;
    for (size_t i = 0; i < community_; ++i) {
      sim::Node& node =
          harness_->AddSettop(static_cast<uint8_t>(1 + i % kServers));
      settops.push_back(&node);
      sim::Process& p = node.Spawn("settop");
      auto* bindings = p.Emplace<itv::rpc::BindingTable>(
          p.runtime(), harness_->ClientFor(p).PathResolverFn());
      auto settopmgr =
          bindings->Bind<svc::SettopManagerProxy>(svc::kSettopManagerName);
      auto* timer = p.Emplace<itv::PeriodicTimer>();
      uint32_t host = node.host();
      timer->Start(p.executor(), Duration::Seconds(5), [settopmgr, host] {
        settopmgr.Call<void>(
            [host](const svc::SettopManagerProxy& mgr) {
              return mgr.Heartbeat(host);
            },
            [](itv::Result<void>) {});
      });
    }
    cluster().RunFor(Duration::Seconds(10));
    settop_kb_ = (RssKb() - rss0) / static_cast<double>(community_);

    size_t viewers = Scaled(kViewers, config_.scale, 10);
    settop::VodApp::Options vopts;
    vopts.mms_rebind.max_attempts = 30;
    vopts.mms_rebind.initial_backoff = Duration::Millis(500);
    vopts.mms_rebind.backoff_multiplier = 1.2;
    vopts.data_gap_timeout = Duration::Seconds(4);
    observer_->on_chunk = [this](Viewer& v, Time t) { OnChunk(v, t); };
    for (size_t i = 0; i < viewers; ++i) {
      Viewer& v = AddViewer(*settops[i], vopts);
      StartOpen(v, Title(kTitles));
      cluster().RunFor(Duration::Millis(10));
    }
    cluster().RunFor(Duration::Seconds(15));
    for (auto& v : viewers_) {
      setup_ok_ = setup_ok_ && !v->opening && v->vod->playing();
    }
    ops_ = Ops();
  }

  Report Measure(const std::vector<double>& setups) {
    Report report;
    report.Check(setup_ok_, "every viewer opened during set-up");
    viewer_retries_ = 0;
    BeginMeasuring();
    for (auto& v : viewers_) {
      ScheduleChange(v.get());
    }
    crash_start_ = cluster().Now();
    ScheduleCrash();
    Window w = MeasureWindow();
    uint64_t retries_in_window = viewer_retries_;
    // Bring every server back and let the viewers recover.
    for (size_t index : down_) {
      Restore(index);
    }
    down_.clear();
    cluster().RunFor(Duration::Seconds(90));
    FailUnfinishedOpens();
    uint64_t lost = 0;
    for (auto& v : viewers_) {
      lost += v->interrupted;
    }

    double settop_s = static_cast<double>(community_) * horizon_.seconds();
    Ops waits = ops_;
    waits.wait_ms = gaps_ms_;
    waits.in_horizon = interruptions_in_horizon_;
    ReportEndToEnd(report, waits, w, static_cast<double>(community_),
                   static_cast<double>(w.control_in_horizon) / settop_s,
                   setups);
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%zu crashes (%zu before the horizon end), %llu interrupted "
                  "viewers, %llu lost, %llu movie changes, %llu viewer retries",
                  crashes_.size(), crashes_in_horizon_,
                  static_cast<unsigned long long>(interruptions_),
                  static_cast<unsigned long long>(lost),
                  static_cast<unsigned long long>(ops_.in_window),
                  static_cast<unsigned long long>(viewer_retries_));
    report.Note(buf);
    if (tracing_) {
      ReportFailoverShares(report);
    }
    // An op here is a settop-second of service.
    Finish(report, w, static_cast<double>(community_),
           static_cast<double>(community_) * w.sim_s, settop_kb_,
           static_cast<double>(retries_in_window), "server_crash");
    // What can fail here is an interruption (lost: no chunk ever again) or
    // a movie change.
    report.attempted = interruptions_ + ops_.in_window;
    report.failed = lost + ops_.failed;
    CheckAndTearDown(report, wire::ShardMap{});
    return report;
  }

 private:
  void ScheduleChange(Viewer* v) {
    cluster().scheduler().ScheduleAt(
        cluster().Now() + Duration::Seconds(rng_.Exponential(kMeanDwellS)),
        [this, v] { Change(v); });
  }

  // Movie changes wait until the stream is flowing again: a change in the
  // middle of a reopen would race the reopen's ticket against the new open.
  void Change(Viewer* v) {
    if (frozen_) {
      return;
    }
    if (v->opening || v->interrupted || v->vod->session_id() == 0) {
      cluster().scheduler().ScheduleAt(cluster().Now() + Duration::Seconds(1),
                                       [this, v] { Change(v); });
      return;
    }
    v->vod->Stop();
    StartOpen(*v, Title(kTitles));
    ScheduleChange(v);
  }

  // Crash k lands at start + (k + 1/2) spacings plus a phase within the
  // fail-over clock cycle. Each round of 14 crashes takes every crashable
  // server once (servers 0 and 1 hold the database and the CSCs and are
  // spared) and every phase k/14 of the cycle once, both in a seed-shuffled
  // order: which server crashes (its neighborhood's settops lose their
  // name-service replica too) and where in the cycle it lands move a crash's
  // outages a lot, so every round covers them all.
  void ScheduleCrash() {
    constexpr size_t kRound = kServers - 2;
    if (crash_order_.empty()) {
      for (size_t i = 0; i < kRound; ++i) {
        crash_order_.push_back({2 + i, kClockCycleS * static_cast<double>(i) /
                                           static_cast<double>(kRound)});
      }
      for (size_t i = kRound; i > 1; --i) {
        std::swap(crash_order_[i - 1].first, crash_order_[rng_.Below(i)].first);
        std::swap(crash_order_[i - 1].second,
                  crash_order_[rng_.Below(i)].second);
      }
    }
    auto [index, phase] = crash_order_.back();
    crash_order_.pop_back();
    double at = (static_cast<double>(crashes_.size()) + 0.5) * kCrashSpacingS +
                phase;
    cluster().scheduler().ScheduleAt(crash_start_ + Duration::Seconds(at),
                                     [this, index] { Crash(index); });
  }

  void Crash(size_t index) {
    if (frozen_) {
      return;
    }
    Time now = cluster().Now();
    uint32_t host = harness_->HostOf(index);
    bool counted = now < horizon_end_;
    for (auto& v : viewers_) {
      if (!v->interrupted && !v->opening && v->vod->playing() &&
          v->vod->mds_host() == host) {
        v->interrupted = true;
        v->interruption_counted = counted;
        v->chunk_before = v->last_chunk;
        ++interruptions_;
        interruptions_in_horizon_ += counted;
      }
    }
    crashes_.push_back({now, index});
    crashes_in_horizon_ += counted;
    ScheduleCrash();
    down_.push_back(index);
    harness_->server(index).Crash();
    cluster().scheduler().ScheduleAt(
        now + Duration::Seconds(kRestoreAfterS), [this, index] {
          auto it = std::find(down_.begin(), down_.end(), index);
          if (it != down_.end()) {
            down_.erase(it);
            Restore(index);
          }
        });
  }

  void Restore(size_t index) {
    harness_->server(index).Restart();
    harness_->StartSsc(index);
  }

  // VodApp gives up on some errors a crash produces (the MMS picked an MDS
  // whose trunk is already unbound; a selector found no live replica). The
  // viewer then presses play again two seconds later; the op, or the
  // interruption, goes on until the picture is back.
  void OnPlayFailed(Viewer& v) override {
    ++viewer_retries_;
    Viewer* vp = &v;
    cluster().scheduler().ScheduleAt(
        cluster().Now() + Duration::Seconds(2), [this, vp] {
          if (!stopped_ && !vp->vod->playing()) {
            Play(*vp);
          }
        });
  }

  void OnChunk(Viewer& v, Time delivered) {
    if (v.interrupted && delivered > v.chunk_before) {
      v.interrupted = false;
      if (v.interruption_counted) {
        gaps_ms_.push_back((delivered - v.chunk_before).seconds() * 1000.0);
      }
    }
    v.last_chunk = delivered;
  }

  // Decomposes each counted crash's neighborhood Connection Manager fail-over
  // (its primary ran on the crashed server) into the paper's phases, as
  // shares of kill -> promoted.
  void ReportFailoverShares(Report& report) {
    std::vector<itv::trace::TraceEvent> events =
        cluster().trace_buffer().Snapshot();
    double detect = 0, unbind = 0, rebind = 0, recover = 0;
    int n = 0;
    for (const auto& [when, index] : crashes_) {
      if (when >= horizon_end_) {
        continue;
      }
      uint32_t host = harness_->HostOf(index);
      for (uint8_t nb = 1; nb <= kServers; ++nb) {
        if (harness_->ServerHostForNeighborhood(nb) != host) {
          continue;
        }
        auto timeline = itv::trace::FailoverTimeline::Reconstruct(
            events, when, media::CmgrName(nb));
        Duration total = timeline.promoted_at
                             ? *timeline.promoted_at - when
                             : timeline.total();
        if (!timeline.complete() || total.seconds() <= 0) {
          continue;
        }
        detect += timeline.detect_delay().seconds() / total.seconds();
        unbind += timeline.unbind_delay().seconds() / total.seconds();
        rebind += timeline.rebind_delay().seconds() / total.seconds();
        recover += timeline.recover_delay().seconds() / total.seconds();
        ++n;
      }
    }
    double d = std::max(1, n);
    report.Set("ras.detect_share", detect / d, "fraction");
    report.Set("naming.unbind_share", unbind / d, "fraction");
    report.Set("svc.rebind_share", rebind / d, "fraction");
    report.Set("svc.recover_share", recover / d, "fraction");
    report.Note("fail-over timelines reconstructed: " + std::to_string(n));
  }

  size_t community_ = 0;
  double settop_kb_ = 0;
  bool setup_ok_ = true;
  std::vector<size_t> down_;
  Time crash_start_;
  // Rest of the current round: (server index, phase in the clock cycle).
  std::vector<std::pair<size_t, double>> crash_order_;
  std::vector<std::pair<Time, size_t>> crashes_;
  size_t crashes_in_horizon_ = 0;
  uint64_t interruptions_ = 0;
  uint64_t interruptions_in_horizon_ = 0;
  uint64_t viewer_retries_ = 0;
  std::vector<double> gaps_ms_;
};

template <typename W>
Report RunSim(const Config& config) {
  std::vector<double> setups;
  std::unique_ptr<W> workload = SetUp<W>(config, &setups);
  Report report = workload->Measure(setups);
  // Workloads without a crash still report the fail-over decomposition.
  for (const char* name : {"ras.detect_share", "naming.unbind_share",
                           "svc.rebind_share", "svc.recover_share"}) {
    if (config.trace && report.metrics.count(name) == 0) {
      report.Set(name, 0, "fraction");
    }
  }
  return report;
}

}  // namespace

Report RunPrimeTime(const Config& config) { return RunSim<PrimeTime>(config); }
Report RunChannelSurf(const Config& config) {
  return RunSim<ChannelSurf>(config);
}
Report RunServerCrash(const Config& config) {
  return RunSim<ServerCrash>(config);
}

}  // namespace itvbench
