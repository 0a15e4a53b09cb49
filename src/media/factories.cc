#include "src/media/factories.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/load/load_board.h"
#include "src/media/cmgr.h"
#include "src/svc/shard_host.h"

namespace itv::media {

namespace {

size_t ServerIndexOf(svc::ClusterHarness& harness, uint32_t host) {
  for (size_t i = 0; i < harness.server_count(); ++i) {
    if (harness.HostOf(i) == host) {
      return i;
    }
  }
  ITV_LOG(Fatal) << "not a server host: " << host;
  return 0;
}

}  // namespace

std::vector<MovieSpec> SyntheticCatalog(size_t count, size_t server_count,
                                        size_t replicas, int64_t bitrate_bps,
                                        int64_t minutes) {
  std::vector<MovieSpec> catalog;
  catalog.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    MovieSpec spec;
    spec.info.title = "movie-" + std::to_string(i);
    spec.info.bitrate_bps = bitrate_bps;
    spec.info.size_bytes = bitrate_bps / 8 * minutes * 60;
    for (size_t r = 0; r < replicas && r < server_count; ++r) {
      spec.server_indexes.push_back((i + r) % server_count);
    }
    catalog.push_back(std::move(spec));
  }
  return catalog;
}

void RegisterMediaServices(svc::ClusterHarness& harness,
                           const MediaDeployment& deployment) {
  ITV_CHECK(!harness.booted());
  const size_t servers = harness.server_count();
  const uint8_t neighborhoods = harness.options().neighborhood_count;

  // --- MDS: one per server, library filtered by placement ----------------------
  harness.RegisterServiceType("mdsd", [deployment](
                                          const svc::ServiceContext& ctx) {
    size_t index = ServerIndexOf(ctx.harness, ctx.process.host());
    std::vector<MovieInfo> library;
    for (const MovieSpec& spec : deployment.movies) {
      for (size_t server_index : spec.server_indexes) {
        if (server_index == index) {
          library.push_back(spec.info);
          break;
        }
      }
    }
    MdsService::Options opts;
    opts.capacity_bps = deployment.mds_capacity_bps;
    opts.chunk_period = deployment.mds_chunk_period;
    auto* mds = ctx.process.Emplace<MdsService>(
        ctx.process.runtime(), ctx.process.executor(), std::move(library), opts,
        ctx.metrics);
    wire::ObjectRef ref = mds->Export();
    ctx.StartLifecycle(MdsName(index), ref);
  });

  // --- Cluster load board ---------------------------------------------------------
  if (deployment.load_board) {
    harness.RegisterServiceType(
        "loadboardd", [deployment](const svc::ServiceContext& ctx) {
          auto* board = ctx.process.Emplace<load::LoadBoardService>(
              ctx.process.runtime(), ctx.process.executor(),
              load::LoadBoardService::Options(), ctx.metrics);
          wire::ObjectRef ref = board->Export();
          ctx.StartLifecycle(std::string(load::kLoadBoardName), ref);
        });
  }

  // --- Trunk replicas -----------------------------------------------------------
  harness.RegisterServiceType("trunkd", [deployment, neighborhoods](
                                            const svc::ServiceContext& ctx) {
    auto* trunk = ctx.process.Emplace<TrunkService>(
        ctx.process.runtime(), ctx.process.executor(), ctx.MakeNameClient(),
        ServerIndexOf(ctx.harness, ctx.process.host()), neighborhoods,
        deployment.trunk_capacity_bps, ctx.metrics);
    ctx.StartLifecycle(TrunkName(ctx.process.host()), trunk->Start());
  });

  // --- Connection managers per neighborhood --------------------------------------
  for (uint8_t nb = 1; nb <= neighborhoods; ++nb) {
    harness.RegisterServiceType(
        "cmgrd-" + std::to_string(nb), [nb](const svc::ServiceContext& ctx) {
          auto* cmgr = ctx.process.Emplace<CmgrService>(
              ctx.process.runtime(), ctx.process.executor(),
              ctx.MakeNameClient(), nb, ctx.metrics);
          cmgr->Start();
          // Backups hold nothing: promotion's recover hook rebuilds the
          // allocation table from the trunk replicas.
          svc::ServiceLifecycle::Hooks hooks;
          hooks.recover = [cmgr](std::function<void(Status)> done) {
            cmgr->RecoverState(std::move(done));
          };
          hooks.on_promoted = [cmgr] { cmgr->OnPromoted(); };
          cmgr->AttachLifecycle(
              ctx.StartLifecycle(CmgrName(nb), cmgr->ref(), std::move(hooks)));
        });
  }

  // --- RDS per neighborhood -------------------------------------------------------
  for (uint8_t nb = 1; nb <= neighborhoods; ++nb) {
    harness.RegisterServiceType(
        "rdsd-" + std::to_string(nb),
        [nb, deployment](const svc::ServiceContext& ctx) {
          RdsService::Options opts;
          opts.max_transfer_bps = deployment.rds_max_transfer_bps;
          auto* rds = ctx.process.Emplace<RdsService>(
              ctx.process.runtime(), ctx.process.executor(),
              ctx.MakeNameClient(), deployment.rds_items, opts, ctx.metrics);
          wire::ObjectRef ref = rds->Export();
          ctx.StartLifecycle("svc/rds/" + std::to_string(nb), ref);
        });
  }

  // --- MMS --------------------------------------------------------------------------
  const size_t mms_replica_count =
      std::min(servers, std::max<size_t>(deployment.mms_replicas, 1));
  // Admission pool per shard: auto (-1) splits total MDS capacity evenly
  // across shards, but only for sharded deployments — a single-shard MMS
  // keeps the classic no-pool behaviour.
  int64_t mms_pool_bps = deployment.mms_admission_pool_bps;
  if (mms_pool_bps < 0) {
    mms_pool_bps = deployment.mms_shards > 1
                       ? deployment.mds_capacity_bps *
                             static_cast<int64_t>(servers) /
                             deployment.mms_shards
                       : 0;
  }
  harness.RegisterServiceType("mmsd", [deployment, mms_replica_count,
                                       mms_pool_bps](
                                          const svc::ServiceContext& ctx) {
    svc::ShardHost::Options host_opts;
    host_opts.rank = ServerIndexOf(ctx.harness, ctx.process.host());
    host_opts.replicas = mms_replica_count;
    auto* shard_host = ctx.process.Emplace<svc::ShardHost>(
        ctx, std::string(kMmsName), host_opts,
        [ctx, deployment, mms_pool_bps](uint32_t shard,
                                        const wire::ShardMap& map) {
          MmsService::Options mms_opts = deployment.mms;
          mms_opts.shard_index = shard;
          mms_opts.shard_map = map;
          mms_opts.admission_pool_bps = mms_pool_bps;
          auto* mms = ctx.process.Emplace<MmsService>(
              ctx.process.runtime(), ctx.process.executor(),
              ctx.MakeNameClient(), mms_opts, ctx.metrics);
          mms->Start();
          // Backups hold nothing: promotion's recover hook rebuilds the
          // session table from the MDSes, with RAS watches, before the role
          // turns primary.
          svc::ShardHost::Shard hosted;
          hosted.ref = mms->ref();
          hosted.hooks.recover = [mms](std::function<void(Status)> done) {
            mms->RecoverState(std::move(done));
          };
          hosted.hooks.on_promoted = [mms] { mms->OnPromoted(); };
          hosted.hooks.on_demoted = [mms] { mms->OnDemotedRole(); };
          if (deployment.load_board) {
            hosted.hooks.load_sample = [mms] { return mms->LoadSample(); };
          }
          hosted.attach = [mms](svc::ServiceLifecycle* lifecycle) {
            mms->AttachLifecycle(lifecycle);
          };
          hosted.adopt_map = [mms](const wire::ShardMap& next) {
            mms->AdoptShardMap(next);
          };
          return hosted;
        });
    shard_host->Start(
        wire::ShardMap{deployment.mms_shards, wire::kDefaultShardSalt});
  });

  // --- Kernel broadcast (primary/backup source of the settop kernel) -------------
  harness.RegisterServiceType("kernelcastd", [deployment](
                                                 const svc::ServiceContext& ctx) {
    KernelInfo info;
    info.version = 1;
    info.size_bytes = deployment.kernel_size_bytes;
    auto* kernelcast = ctx.process.Emplace<KernelBroadcastService>(info);
    wire::ObjectRef ref = ctx.process.runtime().Export(kernelcast);
    ctx.StartLifecycle(std::string(kKernelCastName), ref);
  });

  // --- Boot broadcast ------------------------------------------------------------------
  harness.RegisterServiceType("bootd", [deployment](
                                           const svc::ServiceContext& ctx) {
    BootParams params;
    params.ns_replicas = *ctx.harness.NsReplicasFor(ctx.process.host());
    params.kernel_version = 1;
    params.kernel_size_bytes = deployment.kernel_size_bytes;
    params.boot_channel_bps = deployment.boot_channel_bps;
    auto* boot = ctx.process.Emplace<BootBroadcastService>(std::move(params));
    wire::ObjectRef ref = ctx.process.runtime().ExportAt(boot, 1);
    ctx.NotifyReady({ref});

    // The boot channel refreshes its advertised kernel from the Kernel
    // Broadcast Service, so operator-published kernels roll out everywhere.
    auto* bindings = ctx.process.Emplace<rpc::BindingTable>(
        ctx.process.runtime(), ctx.MakeNameClient().PathResolverFn());
    auto kernelcast = bindings->Bind<KernelBroadcastProxy>(kKernelCastName);
    auto* refresh = ctx.process.Emplace<PeriodicTimer>();
    refresh->Start(ctx.process.executor(), Duration::Seconds(10),
                   [kernelcast, boot] {
                     kernelcast.Call<KernelInfo>(
                         [](const KernelBroadcastProxy& proxy) {
                           return proxy.GetKernelInfo();
                         },
                         [boot](Result<KernelInfo> info) {
                           if (!info.ok()) {
                             return;
                           }
                           BootParams params = boot->params();
                           params.kernel_version = info->version;
                           params.kernel_size_bytes = info->size_bytes;
                           boot->set_params(params);
                         });
                   });
  });

  harness.SetWellKnownPort("bootd", kBootBroadcastPort);

  // --- Placement (the CSC's database configuration) -----------------------------------
  for (size_t i = 0; i < servers; ++i) {
    harness.AssignService("mdsd", harness.HostOf(i));
    harness.AssignService("trunkd", harness.HostOf(i));
    harness.AssignService("bootd", harness.HostOf(i));
  }
  for (uint8_t nb = 1; nb <= neighborhoods; ++nb) {
    uint32_t home = harness.ServerHostForNeighborhood(nb);
    size_t home_index = ServerIndexOf(harness, home);
    harness.AssignService("rdsd-" + std::to_string(nb), home);
    // Primary candidate on the neighborhood's server, backup on the next.
    harness.AssignService("cmgrd-" + std::to_string(nb), home);
    if (servers > 1) {
      harness.AssignService("cmgrd-" + std::to_string(nb),
                            harness.HostOf((home_index + 1) % servers));
    }
  }
  for (size_t i = 0; i < mms_replica_count; ++i) {
    harness.AssignService("mmsd", harness.HostOf(i));
  }
  harness.AssignService("kernelcastd", harness.HostOf(0));
  if (servers > 1) {
    harness.AssignService("kernelcastd", harness.HostOf(1));
  }
  if (deployment.load_board) {
    harness.AssignService("loadboardd", harness.HostOf(0));
    if (servers > 1) {
      harness.AssignService("loadboardd", harness.HostOf(1));
    }
  }
}

}  // namespace itv::media
