// Experiment E2 — Linear scalability (paper Sections 1, 9.6).
//
// "Scalable services in our system are typically implemented with a replica
//  running on each server... To expand the system's capacity, one acquires a
//  new server to run an additional replica for each service... system
//  capacity grows linearly with the number of servers."
//
// Harness: clusters of 1..8 servers, with settops in proportion (one
// neighborhood per server). Every settop boots and opens a movie; each MDS
// replica admits up to capacity/bitrate streams. We report:
//   - admitted concurrent streams (should be ~16 x servers, the per-server
//    disk/NIC limit, since demand always exceeds capacity);
//   - movie-open latency (should stay flat: opens touch only the local NS
//    replica, one cmgr, one trunk, one MDS);
//   - RPC messages per successful open (flat = no hidden central hot spot).
//
// A second "channel surf" phase has every admitted settop close its movie and
// open another one, twice. Each close and open goes through a binding to the
// MMS, so this phase measures the client-side binding cache: with one
// binding table per settop each surf open skips the name-service round trip
// entirely. Each cluster size runs twice — a fresh table per call (cache
// off), then one table per settop (cache on) — on identical workloads, and
// the surf-phase msgs/open and NS resolve counts are reported for both.
//
// E2d measures what the cluster sends while sessions stream and nothing
// opens, at 1..16 servers, and fails the bench if the MDS Sync load per
// server grows from 4 to 16 servers (a poll that crosses every pair of
// neighborhood and server).

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "bench/bench_report.h"
#include "bench/bench_util.h"
#include "src/common/logging.h"
#include "src/common/rand.h"
#include "src/load/load_board.h"
#include "src/media/factories.h"
#include "src/rpc/binding_table.h"
#include "src/settop/app_manager.h"
#include "src/settop/vod_app.h"
#include "src/svc/harness.h"
#include "src/wire/shard_map.h"

namespace itv {
namespace {

constexpr size_t kSurfRounds = 2;

struct RunResult {
  size_t servers = 0;
  size_t settops = 0;
  size_t admitted = 0;
  size_t rejected = 0;
  double mean_open_s = 0;
  double p50_open_s = 0;
  double p99_open_s = 0;
  double cold_msgs_per_open = 0;
  // Channel-surf phase: every admitted settop closes and re-opens, twice.
  size_t surf_opens = 0;
  double surf_msgs_per_open = 0;
  uint64_t surf_ns_resolves = 0;
  uint64_t cache_hits = 0;
};

RunResult RunCluster(size_t servers, size_t settops_per_server,
                     bool use_cache) {
  svc::HarnessOptions opts;
  opts.server_count = servers;
  opts.neighborhood_count = static_cast<uint8_t>(servers);
  svc::ClusterHarness harness(opts);

  media::MediaDeployment deploy;
  // A catalog big enough that placement spreads; every title on 2 servers.
  deploy.movies = media::SyntheticCatalog(
      /*count=*/40, servers, /*replicas=*/std::min<size_t>(2, servers));
  deploy.mds_capacity_bps = 48'000'000;      // 16 x 3 Mb/s streams per server.
  deploy.trunk_capacity_bps = 200'000'000;
  media::RegisterMediaServices(harness, deploy);
  harness.Boot();
  harness.cluster().RunFor(Duration::Seconds(12));

  // Spawn settops; each opens a uniformly chosen movie via the MMS directly
  // (bypassing the boot/download path to isolate the open pipeline). Uniform
  // popularity keeps demand spreadable; with a strongly Zipf catalog the
  // limit becomes movie placement, not infrastructure.
  Rng rng(1234 + servers);
  size_t total = servers * settops_per_server;
  struct Viewer {
    sim::Process* process;
    rpc::BindingTable* table;
    uint32_t settop_host = 0;
    Future<media::MmsTicket> open;
    Time started;
  };
  // One attempt per call, like the bare resolve-then-invoke it measures.
  rpc::BindingOptions once;
  once.max_attempts = 1;
  // The MMS binding for one call: the settop's own table (cache on), or a
  // fresh table that must resolve again (cache off).
  auto mms_for = [&harness, use_cache, once](const Viewer& viewer) {
    rpc::BindingTable* table = viewer.table;
    if (!use_cache) {
      sim::Process& p = *viewer.process;
      table = p.Emplace<rpc::BindingTable>(
          p.runtime(), harness.ClientFor(p).PathResolverFn());
    }
    return table->Bind<media::MmsProxy>(media::kMmsName, once);
  };
  std::vector<Viewer> viewers;
  viewers.reserve(total);

  RunResult result;
  result.servers = servers;
  result.settops = total;

  uint64_t msgs_before = harness.metrics().Get("net.msg.total");
  Histogram open_latency;

  for (size_t i = 0; i < total; ++i) {
    uint8_t nb = static_cast<uint8_t>(1 + (i % servers));
    sim::Node& settop = harness.AddSettop(nb);
    sim::Process& p = settop.Spawn("viewer");
    auto* table = p.Emplace<rpc::BindingTable>(
        p.runtime(), harness.ClientFor(p).PathResolverFn());
    std::string title = "movie-" + std::to_string(rng.Below(40));

    Viewer viewer{&p, table, settop.host(), {}, harness.cluster().Now()};
    // Resolve then open; the latency histogram records resolve+open time for
    // the opens that are admitted.
    Promise<media::MmsTicket> done;
    viewer.open = done.future();
    sim::Cluster* cluster = &harness.cluster();
    Time started = viewer.started;
    mms_for(viewer).Call<media::MmsTicket>(
        [title, settop_host = settop.host()](const media::MmsProxy& mms) {
          return mms.Open(title, settop_host, wire::ObjectRef{}, 0);
        },
        [done, cluster, started,
         &open_latency](Result<media::MmsTicket> t) mutable {
          if (t.ok()) {
            open_latency.Record((cluster->Now() - started).seconds());
          }
          done.Set(std::move(t));
        });
    viewers.push_back(std::move(viewer));
    // Pace arrivals so MMS load snapshots refresh (5 s cadence).
    harness.cluster().RunFor(Duration::Millis(300));
  }
  harness.cluster().RunFor(Duration::Seconds(10));

  for (Viewer& viewer : viewers) {
    if (viewer.open.is_ready() && viewer.open.result().ok()) {
      ++result.admitted;
    } else {
      ++result.rejected;
    }
  }
  uint64_t cold_msgs_after = harness.metrics().Get("net.msg.total");
  result.mean_open_s = open_latency.Mean();
  result.p50_open_s = open_latency.Percentile(50);
  result.p99_open_s = open_latency.Percentile(99);
  result.cold_msgs_per_open =
      result.admitted == 0
          ? 0
          : static_cast<double>(cold_msgs_after - msgs_before) /
                static_cast<double>(result.admitted);

  // --- Channel-surf phase: close, re-resolve the MMS, open another movie.
  uint64_t surf_msgs_before = harness.metrics().Get("net.msg.total");
  uint64_t surf_resolves_before = harness.metrics().Get("ns.resolve");
  for (size_t round = 0; round < kSurfRounds; ++round) {
    for (Viewer& viewer : viewers) {
      if (!viewer.open.is_ready() || !viewer.open.result().ok()) {
        continue;  // Never admitted; stays out.
      }
      media::MmsTicket held = *viewer.open.result();
      std::string title = "movie-" + std::to_string(rng.Below(40));
      Promise<media::MmsTicket> done;
      viewer.open = done.future();
      uint32_t settop_host = viewer.settop_host;
      // The open binds afresh, as a settop app would; with the cache on the
      // settop's table answers it locally.
      auto reopen = mms_for(viewer);
      mms_for(viewer).Call<void>(
          [movie = held.movie](const media::MmsProxy& mms) {
            return mms.Close(movie);
          },
          [reopen, title, done, settop_host](Result<void> closed) mutable {
            if (!closed.ok()) {
              done.Set(closed.status());
              return;
            }
            reopen.Call<media::MmsTicket>(
                [title, settop_host](const media::MmsProxy& mms) {
                  return mms.Open(title, settop_host, wire::ObjectRef{}, 0);
                },
                [done](Result<media::MmsTicket> t) mutable {
                  done.Set(std::move(t));
                });
          });
      harness.cluster().RunFor(Duration::Millis(50));
    }
    harness.cluster().RunFor(Duration::Seconds(5));
    for (Viewer& viewer : viewers) {
      if (viewer.open.is_ready() && viewer.open.result().ok()) {
        ++result.surf_opens;
      }
    }
  }
  uint64_t surf_msgs_after = harness.metrics().Get("net.msg.total");
  result.surf_msgs_per_open =
      result.surf_opens == 0
          ? 0
          : static_cast<double>(surf_msgs_after - surf_msgs_before) /
                static_cast<double>(result.surf_opens);
  result.surf_ns_resolves =
      harness.metrics().Get("ns.resolve") - surf_resolves_before;
  result.cache_hits = harness.metrics().Get("resolve.cache.hit");
  return result;
}

// --- E2b: sharded MMS — per-primary session load divides by the shard count.
//
// Fixed cluster (4 servers), fixed settop population; only the MMS shard
// count varies. Every settop opens through the shard router, so its sessions
// land on the shard its host hashes to. With 1 shard the single primary
// carries every session; with N shards the worst-loaded primary should carry
// ~1/N of them, and placement staggering should spread the shard primaries
// across distinct hosts.

struct ShardRunResult {
  uint32_t shards = 0;
  size_t settops = 0;
  size_t admitted = 0;
  double p50_open_s = 0;
  double p99_open_s = 0;
  uint32_t max_primary_sessions = 0;
  uint32_t total_sessions = 0;
  size_t primary_hosts = 0;  // Distinct hosts holding a shard primary.
};

ShardRunResult RunShardCluster(uint32_t shards, size_t settop_count) {
  constexpr size_t kServers = 4;
  svc::HarnessOptions opts;
  opts.server_count = kServers;
  opts.neighborhood_count = static_cast<uint8_t>(kServers);
  svc::ClusterHarness harness(opts);

  media::MediaDeployment deploy;
  deploy.movies = media::SyntheticCatalog(/*count=*/40, kServers,
                                          /*replicas=*/2);
  // Generous capacity: this phase measures broker load distribution, not
  // admission control, so every open should be admitted.
  deploy.mds_capacity_bps = 96'000'000;
  deploy.trunk_capacity_bps = 400'000'000;
  deploy.mms_shards = shards;
  deploy.mms_replicas = kServers;  // Every server hosts every shard's lifecycle.
  media::RegisterMediaServices(harness, deploy);
  harness.Boot();
  // Settle and let the placement stagger window elapse so each shard's
  // preferred replica wins its opening election.
  harness.cluster().RunFor(Duration::Seconds(16));

  ShardRunResult result;
  result.shards = shards;
  result.settops = settop_count;

  Rng rng(99);  // Same titles at every shard count.
  std::vector<Future<media::MmsTicket>> opens(settop_count);
  Histogram open_latency;
  for (size_t i = 0; i < settop_count; ++i) {
    uint8_t nb = static_cast<uint8_t>(1 + (i % kServers));
    sim::Node& settop = harness.AddSettop(nb);
    sim::Process& p = settop.Spawn("viewer");
    auto* table = p.Emplace<rpc::BindingTable>(
        p.runtime(), harness.ClientFor(p).PathResolverFn());
    auto mms = table->BindSharded<media::MmsProxy>(media::kMmsName,
                                                   rpc::BindingOptions{});
    std::string title = "movie-" + std::to_string(rng.Below(40));
    Promise<media::MmsTicket> done;
    opens[i] = done.future();
    sim::Cluster* cluster = &harness.cluster();
    Time started = cluster->Now();
    mms.Call<media::MmsTicket>(
        settop.host(),
        [title, settop_host = settop.host()](const media::MmsProxy& proxy) {
          return proxy.Open(title, settop_host, wire::ObjectRef{}, 0);
        },
        [done, cluster, started,
         &open_latency](Result<media::MmsTicket> t) mutable {
          if (t.ok()) {
            open_latency.Record((cluster->Now() - started).seconds());
          }
          done.Set(std::move(t));
        });
    harness.cluster().RunFor(Duration::Millis(200));
  }
  harness.cluster().RunFor(Duration::Seconds(10));
  for (const Future<media::MmsTicket>& open : opens) {
    if (open.is_ready() && open.result().ok()) {
      ++result.admitted;
    }
  }
  result.p50_open_s = open_latency.Percentile(50);
  result.p99_open_s = open_latency.Percentile(99);

  // Per-primary load: ask every shard primary for its session count.
  sim::Process& probe = harness.SpawnProcessOn(0, "probe");
  naming::NameClient nc = harness.ClientFor(probe);
  wire::ShardMap map{shards, wire::kDefaultShardSalt};
  std::set<uint32_t> hosts;
  for (uint32_t s = 0; s < std::max<uint32_t>(shards, 1); ++s) {
    auto ref = bench::WaitOn(
        harness.cluster(), nc.Resolve(wire::ShardPath(media::kMmsName, s, map)),
        Duration::Seconds(5));
    if (!ref.ok()) {
      continue;
    }
    hosts.insert(ref->endpoint.host);
    media::MmsProxy proxy(probe.runtime(), *ref);
    auto count = bench::WaitOn(harness.cluster(), proxy.ListSessions(),
                               Duration::Seconds(5));
    if (count.ok()) {
      result.total_sessions += *count;
      result.max_primary_sessions =
          std::max(result.max_primary_sessions, *count);
    }
  }
  result.primary_hosts = hosts.size();
  return result;
}

// --- E2c: hot-shard skew — board-backed sibling retry vs blind shedding.
//
// Fixed cluster (4 servers, 4 MMS shards, admission pool = 1/4 of cluster
// MDS capacity per shard), 32 VodApp viewers with ~80% of their settop hosts
// hashing to shard 0. The hot shard's pool covers 16 streams, so a quarter
// of the hot opens are shed. With the load board on, a shed viewer retries
// against the least-loaded sibling shard and every open lands; with it off,
// the shed opens fail back to the viewer. Also runs an unskewed control to
// bound the skewed open latency.

struct HotShardResult {
  bool board = false;
  bool skewed = true;
  size_t settops = 0;
  size_t playing = 0;
  size_t failed = 0;          // Opens that ended in an error (shed, ...).
  uint64_t shard_rejects = 0; // Sum of per-shard admission rejects.
  uint64_t sibling_retries = 0;
  double p50_open_s = 0;
  double p99_open_s = 0;
  // Worst shard's ledger. reserved may sit above the pool after the
  // ownership reconciler hands sibling-opened sessions back to the shard
  // their settop hashes to (adopted, never granted); peak_granted may not.
  int64_t max_reserved_bps = 0;
  int64_t max_peak_granted_bps = 0;
  int64_t pool_bps = 0;
  bool pool_sound = true;  // Every shard: peak_granted <= pool.
};

HotShardResult RunHotShardCluster(bool board, bool skewed,
                                  size_t settop_count) {
  constexpr size_t kServers = 4;
  constexpr uint32_t kShards = 4;
  svc::HarnessOptions opts;
  opts.server_count = kServers;
  opts.neighborhood_count = static_cast<uint8_t>(kServers);
  svc::ClusterHarness harness(opts);

  media::MediaDeployment deploy;
  deploy.movies = media::SyntheticCatalog(/*count=*/40, kServers,
                                          /*replicas=*/2);
  deploy.mds_capacity_bps = 48'000'000;
  deploy.trunk_capacity_bps = 400'000'000;
  deploy.mms_shards = kShards;
  deploy.mms_replicas = kServers;
  deploy.load_board = board;  // Off: admission still on, no sibling retry.
  media::RegisterMediaServices(harness, deploy);
  harness.Boot();
  harness.cluster().RunFor(Duration::Seconds(16));

  HotShardResult result;
  result.board = board;
  result.skewed = skewed;
  result.settops = settop_count;

  wire::ShardMap map{kShards, wire::kDefaultShardSalt};
  Rng rng(4242);  // Same titles with the board on and off.
  struct HotViewer {
    settop::VodApp* vod = nullptr;
    Time started;
    Status final_status;
    bool done = false;
    double open_s = -1;  // Time to `playing`, -1 until observed.
  };
  std::vector<HotViewer> viewers(settop_count);
  for (size_t i = 0; i < settop_count; ++i) {
    uint8_t nb = static_cast<uint8_t>(1 + (i % kServers));
    sim::Node* settop = &harness.AddSettop(nb);
    if (skewed && i % 5 != 4) {
      // 80/20 skew, same spawn-and-filter as the chaos --skewed-load sweep:
      // keep adding settops until one's host hashes to the hot shard.
      for (int attempt = 0;
           attempt < 32 && wire::ShardOf(settop->host(), map) != 0;
           ++attempt) {
        settop = &harness.AddSettop(nb);
      }
    }
    sim::Process& p = settop->Spawn("viewer");
    settop::VodApp::Options vopts;
    if (board) {
      vopts.load_board_path = std::string(load::kLoadBoardName);
    }
    viewers[i].vod = p.Emplace<settop::VodApp>(p.runtime(), p.executor(),
                                               harness.ClientFor(p), vopts,
                                               &harness.metrics());
    viewers[i].started = harness.cluster().Now();
    std::string title = "movie-" + std::to_string(rng.Below(40));
    HotViewer* viewer = &viewers[i];
    viewer->vod->PlayMovie(title, [viewer](Status status) {
      viewer->final_status = status;
      viewer->done = true;
    });
    // Pace arrivals so load reports keep up with the skew (2 s cadence), and
    // sample `playing` transitions for the open-latency histogram.
    for (int tick = 0; tick < 4; ++tick) {
      harness.cluster().RunFor(Duration::Millis(50));
      for (HotViewer& v : viewers) {
        if (v.open_s < 0 && v.vod != nullptr && v.vod->playing()) {
          v.open_s = (harness.cluster().Now() - v.started).seconds();
        }
      }
    }
  }
  for (int tick = 0; tick < 200; ++tick) {
    harness.cluster().RunFor(Duration::Millis(50));
    for (HotViewer& v : viewers) {
      if (v.open_s < 0 && v.vod->playing()) {
        v.open_s = (harness.cluster().Now() - v.started).seconds();
      }
    }
  }

  Histogram open_latency;
  for (HotViewer& v : viewers) {
    if (v.vod->playing()) {
      ++result.playing;
      if (v.open_s >= 0) {
        open_latency.Record(v.open_s);
      }
    } else if (v.done && !v.final_status.ok()) {
      ++result.failed;
    }
    result.sibling_retries += v.vod->sibling_retries();
  }
  result.p50_open_s = open_latency.Percentile(50);
  result.p99_open_s = open_latency.Percentile(99);

  // Audit every shard's admission ledger over RPC, like the chaos
  // admission-sound invariant: grants must never have exceeded the pool.
  sim::Process& probe = harness.SpawnProcessOn(0, "probe");
  naming::NameClient nc = harness.ClientFor(probe);
  for (uint32_t s = 0; s < kShards; ++s) {
    auto ref = bench::WaitOn(
        harness.cluster(), nc.Resolve(wire::ShardPath(media::kMmsName, s, map)),
        Duration::Seconds(5));
    if (!ref.ok()) {
      result.pool_sound = false;
      continue;
    }
    media::MmsProxy proxy(probe.runtime(), *ref);
    auto state = bench::WaitOn(harness.cluster(), proxy.GetAdmission(),
                               Duration::Seconds(5));
    if (!state.ok()) {
      result.pool_sound = false;
      continue;
    }
    result.shard_rejects += state->rejects;
    result.pool_bps = state->pool_bps;
    result.max_reserved_bps =
        std::max(result.max_reserved_bps, state->reserved_bps);
    result.max_peak_granted_bps =
        std::max(result.max_peak_granted_bps, state->peak_granted_bps);
    if (state->pool_bps > 0 && state->peak_granted_bps > state->pool_bps) {
      result.pool_sound = false;
    }
  }
  return result;
}

// --- E2d: streaming background — what a cluster costs while nothing opens.
//
// Clusters of 1..16 servers, one neighborhood each, with 8 sessions per
// server held open (null sinks, so no media chunks ride the control count)
// and no opens during the window. The MDS is the one per-server service
// every other service polls, so its Sync load is split by sender: the MMS
// primary's sync round, any neighborhood CMgr, and the trunk replicas. A
// poll in which every neighborhood asks every server grows the per-MDS rate
// with the cluster; a per-server one keeps it flat.

struct BackgroundResult {
  size_t servers = 0;
  size_t sessions = 0;
  double ctl_msgs_per_s_per_server = 0;
  // Sync requests each MDS received per second, by sender.
  double mds_syncs_per_s_mms = 0;
  double mds_syncs_per_s_cmgr = 0;
  double mds_syncs_per_s_trunk = 0;
  double mds_syncs_per_s() const {
    return mds_syncs_per_s_mms + mds_syncs_per_s_cmgr + mds_syncs_per_s_trunk;
  }
};

BackgroundResult RunStreamingBackground(size_t servers) {
  constexpr size_t kSessionsPerServer = 8;
  constexpr Duration kWindow = Duration::Seconds(60);
  svc::HarnessOptions opts;
  opts.server_count = servers;
  opts.neighborhood_count = static_cast<uint8_t>(servers);
  svc::ClusterHarness harness(opts);

  media::MediaDeployment deploy;
  deploy.movies = media::SyntheticCatalog(
      /*count=*/40, servers, /*replicas=*/std::min<size_t>(2, servers));
  deploy.mds_capacity_bps = 48'000'000;
  deploy.trunk_capacity_bps = 200'000'000;
  media::RegisterMediaServices(harness, deploy);
  harness.Boot();
  harness.cluster().RunFor(Duration::Seconds(12));

  BackgroundResult result;
  result.servers = servers;
  Rng rng(77 + servers);
  std::vector<Future<media::MmsTicket>> opens;
  for (size_t i = 0; i < servers * kSessionsPerServer; ++i) {
    sim::Node& settop = harness.AddSettop(static_cast<uint8_t>(1 + i % servers));
    sim::Process& p = settop.Spawn("viewer");
    auto* table = p.Emplace<rpc::BindingTable>(
        p.runtime(), harness.ClientFor(p).PathResolverFn());
    std::string title = "movie-" + std::to_string(rng.Below(40));
    Promise<media::MmsTicket> done;
    opens.push_back(done.future());
    table->Bind<media::MmsProxy>(media::kMmsName)
        .Call<media::MmsTicket>(
            [title, host = settop.host()](const media::MmsProxy& mms) {
              return mms.Open(title, host, wire::ObjectRef{}, 0);
            },
            [done](Result<media::MmsTicket> t) mutable {
              done.Set(std::move(t));
            });
    harness.cluster().RunFor(Duration::Millis(100));
  }
  // Past the audits' grace, so every grant is as old as a playing one.
  harness.cluster().RunFor(Duration::Seconds(20));
  for (const Future<media::MmsTicket>& open : opens) {
    result.sessions += open.is_ready() && open.result().ok();
  }

  enum Sender { kMms, kCmgr, kTrunk };
  std::map<wire::Endpoint, Sender> senders;
  for (size_t i = 0; i < servers; ++i) {
    sim::Node& server = harness.server(i);
    if (sim::Process* p = server.FindProcessByName("mmsd")) {
      senders[p->endpoint()] = kMms;
    }
    if (sim::Process* p = server.FindProcessByName("trunkd")) {
      senders[p->endpoint()] = kTrunk;
    }
    for (size_t nb = 1; nb <= servers; ++nb) {
      if (sim::Process* p =
              server.FindProcessByName("cmgrd-" + std::to_string(nb))) {
        senders[p->endpoint()] = kCmgr;
      }
    }
  }
  const uint64_t mds_type = wire::TypeIdFromName(media::kMdsInterface);
  uint64_t syncs[3] = {0, 0, 0};
  harness.cluster().network().SetTap(
      [&](const wire::Endpoint& src, const wire::Endpoint&,
          const wire::Message& msg) {
        if (msg.kind != wire::MsgKind::kRequest || msg.type_id != mds_type ||
            msg.method_id != media::kMdsMethodSync) {
          return;
        }
        auto it = senders.find(src);
        ITV_CHECK(it != senders.end()) << "MDS Sync from an unknown process";
        ++syncs[it->second];
      });
  uint64_t msgs_before = harness.metrics().Get("net.msg.total");
  harness.cluster().RunFor(kWindow);
  harness.cluster().network().SetTap(nullptr);

  const double server_seconds =
      static_cast<double>(servers) * kWindow.seconds();
  result.ctl_msgs_per_s_per_server =
      static_cast<double>(harness.metrics().Get("net.msg.total") -
                          msgs_before) /
      server_seconds;
  result.mds_syncs_per_s_mms = static_cast<double>(syncs[kMms]) / server_seconds;
  result.mds_syncs_per_s_cmgr =
      static_cast<double>(syncs[kCmgr]) / server_seconds;
  result.mds_syncs_per_s_trunk =
      static_cast<double>(syncs[kTrunk]) / server_seconds;
  return result;
}

}  // namespace
}  // namespace itv

int main() {
  using namespace itv;
  bench::PrintHeader("E2: capacity scales linearly with servers (paper 9.6)");
  std::printf(
      "demand: 24 settops/server x 3 Mb/s; per-server MDS capacity 48 Mb/s "
      "(16 streams)\nsurf phase: every admitted settop closes + re-opens "
      "twice, re-resolving the MMS\n\n");
  bench::PrintRow({"servers", "cache", "admitted", "open_p50_s", "open_p99_s",
                   "cold_m/open", "surf_m/open", "surf_ns_res", "hits"});
  bench::ReportSection report("bench_scalability");
  for (size_t servers : {1, 2, 4, 8}) {
    RunResult off = RunCluster(servers, /*settops_per_server=*/24,
                               /*use_cache=*/false);
    RunResult on = RunCluster(servers, /*settops_per_server=*/24,
                              /*use_cache=*/true);
    for (const RunResult* r : {&off, &on}) {
      bench::PrintRow(
          {bench::FmtInt(r->servers), r == &on ? "on" : "off",
           bench::FmtInt(r->admitted), bench::Fmt("%.4f", r->p50_open_s),
           bench::Fmt("%.4f", r->p99_open_s),
           bench::Fmt("%.1f", r->cold_msgs_per_open),
           bench::Fmt("%.1f", r->surf_msgs_per_open),
           bench::FmtInt(r->surf_ns_resolves), bench::FmtInt(r->cache_hits)});
    }
    std::string prefix = "servers_" + std::to_string(servers) + "_";
    report.SetInt(prefix + "admitted", on.admitted);
    report.Set(prefix + "open_p50_s", on.p50_open_s);
    report.Set(prefix + "open_p99_s", on.p99_open_s);
    report.Set(prefix + "cold_msgs_per_open", on.cold_msgs_per_open);
    report.Set(prefix + "surf_msgs_per_open_nocache", off.surf_msgs_per_open);
    report.Set(prefix + "surf_msgs_per_open_cache", on.surf_msgs_per_open);
    report.SetInt(prefix + "surf_ns_resolves_nocache", off.surf_ns_resolves);
    report.SetInt(prefix + "surf_ns_resolves_cache", on.surf_ns_resolves);
    report.SetInt(prefix + "resolve_cache_hits", on.cache_hits);
  }
  bench::PrintHeader(
      "E2b: sharded MMS — per-primary session load divides by shard count");
  std::printf(
      "4 servers, 64 settops opening through the shard router; only "
      "mms_shards varies.\nmax_primary = worst-loaded shard primary's session "
      "count; hosts = distinct servers\nholding a shard primary (placement "
      "staggering should spread them).\n\n");
  bench::PrintRow({"shards", "admitted", "sessions", "max_primary", "hosts",
                   "open_p50_s", "open_p99_s"});
  uint32_t single_shard_max = 0;
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    ShardRunResult r = RunShardCluster(shards, /*settop_count=*/64);
    if (shards == 1) {
      single_shard_max = r.max_primary_sessions;
    }
    bench::PrintRow({bench::FmtInt(r.shards), bench::FmtInt(r.admitted),
                     bench::FmtInt(r.total_sessions),
                     bench::FmtInt(r.max_primary_sessions),
                     bench::FmtInt(r.primary_hosts),
                     bench::Fmt("%.4f", r.p50_open_s),
                     bench::Fmt("%.4f", r.p99_open_s)});
    std::string prefix = "shards_" + std::to_string(shards) + "_";
    report.SetInt(prefix + "admitted", r.admitted);
    report.SetInt(prefix + "sessions", r.total_sessions);
    report.SetInt(prefix + "max_primary_sessions", r.max_primary_sessions);
    report.SetInt(prefix + "primary_hosts", r.primary_hosts);
    report.Set(prefix + "open_p50_s", r.p50_open_s);
    report.Set(prefix + "open_p99_s", r.p99_open_s);
    if (shards == 4 && single_shard_max > 0 && r.max_primary_sessions > 0) {
      report.Set("shards_4_load_reduction",
                 static_cast<double>(single_shard_max) /
                     static_cast<double>(r.max_primary_sessions));
    }
  }
  std::printf(
      "\nexpect: max_primary ~ 64/shards (>=2x reduction at 4 shards vs 1) "
      "and hosts ~\nmin(shards, servers); open latency flat — the binding "
      "table adds one cached map\nlookup.\n");

  bench::PrintHeader(
      "E2c: hot-shard skew — load-board sibling retry vs blind shedding");
  std::printf(
      "4 servers, 4 MMS shards, admission pool 48 Mb/s (16 streams) per "
      "shard; 32 VodApp\nviewers, ~80%% of them on the hot shard. board=on: "
      "shed opens retry the\nleast-loaded sibling from the board; board=off: "
      "shed opens fail to the viewer.\n\n");
  bench::PrintRow({"board", "skew", "playing", "failed", "rejects", "retries",
                   "open_p50_s", "open_p99_s", "max_grant_mbps",
                   "max_rsv_mbps"});
  HotShardResult control =
      RunHotShardCluster(/*board=*/true, /*skewed=*/false, /*settop_count=*/32);
  HotShardResult board_off =
      RunHotShardCluster(/*board=*/false, /*skewed=*/true, /*settop_count=*/32);
  HotShardResult board_on =
      RunHotShardCluster(/*board=*/true, /*skewed=*/true, /*settop_count=*/32);
  for (const HotShardResult* r : {&control, &board_off, &board_on}) {
    bench::PrintRow(
        {r->board ? "on" : "off", r->skewed ? "80/20" : "uniform",
         bench::FmtInt(r->playing), bench::FmtInt(r->failed),
         bench::FmtInt(r->shard_rejects), bench::FmtInt(r->sibling_retries),
         bench::Fmt("%.4f", r->p50_open_s), bench::Fmt("%.4f", r->p99_open_s),
         bench::Fmt("%.1f",
                    static_cast<double>(r->max_peak_granted_bps) / 1e6),
         bench::Fmt("%.1f", static_cast<double>(r->max_reserved_bps) / 1e6)});
  }
  for (const auto& [prefix, r] :
       {std::pair<std::string, const HotShardResult*>{"e2c_unskewed_",
                                                      &control},
        {"e2c_board_off_", &board_off},
        {"e2c_board_on_", &board_on}}) {
    report.SetInt(prefix + "playing", r->playing);
    report.SetInt(prefix + "failed_opens", r->failed);
    report.SetInt(prefix + "shard_rejects", r->shard_rejects);
    report.SetInt(prefix + "sibling_retries", r->sibling_retries);
    report.Set(prefix + "open_p50_s", r->p50_open_s);
    report.Set(prefix + "open_p99_s", r->p99_open_s);
    report.SetInt(prefix + "max_reserved_bps",
                  static_cast<uint64_t>(std::max<int64_t>(0,
                                                          r->max_reserved_bps)));
    report.SetInt(
        prefix + "max_peak_granted_bps",
        static_cast<uint64_t>(std::max<int64_t>(0, r->max_peak_granted_bps)));
    report.SetInt(prefix + "pool_sound", r->pool_sound ? 1 : 0);
  }
  report.SetInt("e2c_pool_bps",
                static_cast<uint64_t>(std::max<int64_t>(0, board_on.pool_bps)));
  // The PR's acceptance gates (also checked by the chaos admission-sound
  // invariant): with the board on, every skewed open lands, no shard ever
  // GRANTED past its pool (reserved may exceed it after the ownership
  // reconciler hands sibling-opened sessions back to the hot shard —
  // adopted, never granted), and the skew costs at most 2x the unskewed
  // open p50 (plus one 50 ms sampling step of slack).
  ITV_CHECK(board_on.failed == 0)
      << board_on.failed << " opens failed with the board on";
  ITV_CHECK(board_on.pool_sound && board_off.pool_sound && control.pool_sound)
      << "an MMS shard granted reservations past its admission pool";
  ITV_CHECK(board_off.failed > 0)
      << "skewed board-off run shed nothing; the skew is not saturating";
  ITV_CHECK(board_on.p50_open_s <= 2 * control.p50_open_s + 0.05)
      << "skewed p50 " << board_on.p50_open_s << "s vs unskewed "
      << control.p50_open_s << "s";
  std::printf(
      "\nexpect: board=off fails its shed opens (rejects > 0, failed > 0); "
      "board=on\nlands every open via sibling retries with 0 failures, every "
      "shard's granted\npeak <= pool, and p50 within 2x of the uniform "
      "control.\n");

  bench::PrintHeader(
      "E2d: streaming background — MDS Sync load per server while nothing "
      "opens");
  std::printf(
      "one neighborhood per server, 8 sessions per server held open, no "
      "opens; a 60 s\nwindow. ctl/s/server = every message the cluster "
      "sends per second, per server;\nsyncs/s = Sync requests each MDS "
      "receives per second, by sender.\n\n");
  bench::PrintRow({"servers", "sessions", "ctl/s/server", "mms_syncs/s",
                   "cmgr_syncs/s", "trunk_syncs/s", "syncs/s"});
  std::map<size_t, BackgroundResult> background;
  for (size_t servers : {1, 2, 4, 8, 16}) {
    BackgroundResult r = RunStreamingBackground(servers);
    bench::PrintRow({bench::FmtInt(r.servers), bench::FmtInt(r.sessions),
                     bench::Fmt("%.2f", r.ctl_msgs_per_s_per_server),
                     bench::Fmt("%.3f", r.mds_syncs_per_s_mms),
                     bench::Fmt("%.3f", r.mds_syncs_per_s_cmgr),
                     bench::Fmt("%.3f", r.mds_syncs_per_s_trunk),
                     bench::Fmt("%.3f", r.mds_syncs_per_s())});
    std::string prefix = "e2d_servers_" + std::to_string(servers) + "_";
    report.SetInt(prefix + "sessions", r.sessions);
    report.Set(prefix + "ctl_msgs_per_s_per_server",
               r.ctl_msgs_per_s_per_server);
    report.Set(prefix + "mds_syncs_per_s_mms", r.mds_syncs_per_s_mms);
    report.Set(prefix + "mds_syncs_per_s_cmgr", r.mds_syncs_per_s_cmgr);
    report.Set(prefix + "mds_syncs_per_s_trunk", r.mds_syncs_per_s_trunk);
    background[servers] = r;
  }
  // Per-server polling keeps each MDS's Sync load flat as servers are added;
  // an all-pairs poll (every neighborhood asking every MDS) grows it.
  ITV_CHECK(background[16].mds_syncs_per_s() <=
            1.1 * background[4].mds_syncs_per_s())
      << "MDS Sync load grows with the cluster: "
      << background[16].mds_syncs_per_s() << "/s per MDS at 16 servers vs "
      << background[4].mds_syncs_per_s() << "/s at 4";
  std::printf(
      "\nexpect: syncs/s flat from 4 to 16 servers (within 1.1x): the MMS "
      "round is one Sync\nper MDS per 5 s and each trunk audits only its "
      "own server's MDS; no CMgr asks any\nMDS.\n");

  report.WriteMerged();
  std::printf(
      "\nexpect: admitted ~= 16 x servers; open latency and cold per-open "
      "message cost\nroughly flat => no central bottleneck (cold m/open "
      "includes background polling\ntraffic, so it overstates the true cost "
      "uniformly). With one binding table per\nsettop, surf m/open drops and "
      "surf-phase NS resolves collapse to ~0: re-opens skip the\n"
      "name-service round trip.\n");
  return 0;
}
