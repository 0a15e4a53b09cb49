// Registers the media stack's service types with a ClusterHarness and writes
// their placement into the cluster configuration database, mirroring the
// Orlando deployment shape (paper Sections 3.1, 8.1):
//
//   mdsd          one replica per server ("there is no reason to restart its
//                 MDS replica on another server"), movies placed per server
//   rdsd-<nb>     per-neighborhood replica assigned to that neighborhood's
//                 server, published under svc/rds/<nb>
//   cmgrd-<nb>    per-neighborhood Connection Manager: one primary + one
//                 backup on the next server, bound at svc/cmgr/<nb> (never
//                 sharded: the neighborhood is its partition); the backup
//                 holds nothing and rebuilds the allocation table from the
//                 trunk replicas when it is promoted
//   trunkd        per-server trunk capacity replica; audits the grants
//                 reserved on its server against that server's MDS
//   mmsd          primary/backup on the first mms_replicas servers, one
//                 lifecycle per MMS shard
//   bootd         boot/kernel broadcast per server

#ifndef SRC_MEDIA_FACTORIES_H_
#define SRC_MEDIA_FACTORIES_H_

#include <string>
#include <vector>

#include "src/media/broadcast.h"
#include "src/media/mds.h"
#include "src/media/mms.h"
#include "src/media/rds.h"
#include "src/svc/harness.h"
#include "src/wire/shard_map.h"

namespace itv::media {

struct MovieSpec {
  MovieInfo info;
  std::vector<size_t> server_indexes;  // Replica placement.
};

struct MediaDeployment {
  std::vector<MovieSpec> movies;
  std::vector<DataItem> rds_items;  // Served by every RDS replica.

  int64_t mds_capacity_bps = 48'000'000;
  int64_t trunk_capacity_bps = 200'000'000;
  int64_t rds_max_transfer_bps = 8'000'000;  // ~1 MByte/s (Section 9.3).
  int64_t kernel_size_bytes = 2'000'000;
  int64_t boot_channel_bps = 8'000'000;

  MmsService::Options mms;
  Duration mds_chunk_period = Duration::Millis(500);

  // --- Load board & admission (ROADMAP "Shard-aware admission") ---------------
  // Deploy the cluster load board (svc/loadboard, primary/backup on the
  // first two servers) and have every MMS shard primary publish its
  // headroom to it, so settops configured with the board retry shed opens
  // against the sibling shard with the most headroom. Off, a shed open just
  // fails.
  bool load_board = true;
  // Per-MMS-shard admission pool. -1 (auto): with mms_shards > 1, an even
  // split of the cluster's total MDS capacity across shards; unsharded
  // deployments get no pool (admission off, preserving classic behaviour).
  // 0 disables admission explicitly; > 0 sets the pool per shard.
  int64_t mms_admission_pool_bps = -1;

  // --- Sharding (ROADMAP "Service resharding") --------------------------------
  // With mms_shards > 1 the MMS path space becomes svc/mms/<shard> plus a
  // shard map at svc/mms/.shards, every mmsd replica runs one lifecycle per
  // shard, and the N shard primaries spread round-robin across replicas.
  // The default keeps the classic single-primary layout. The map is salted
  // with wire::kDefaultShardSalt; the preferred replica of shard s (rank
  // s % replicas) contests its election at once and the others wait
  // svc::kShardStagger, so shard primaries start spread, and every replica
  // re-reads the map each svc::kShardMapPoll.
  uint32_t mms_shards = 1;
  // How many servers run an mmsd replica (each hosting every shard's
  // lifecycle). More replicas than shards just means deeper backup chains.
  size_t mms_replicas = 2;
};

// Must be called before harness.Boot().
void RegisterMediaServices(svc::ClusterHarness& harness,
                           const MediaDeployment& deployment);

// Convenience for workload generators: a catalog of `count` synthetic movies
// ("movie-0".."movie-N"), `bitrate` CBR, `minutes` long, each replicated on
// `replicas` servers chosen round-robin.
std::vector<MovieSpec> SyntheticCatalog(size_t count, size_t server_count,
                                        size_t replicas,
                                        int64_t bitrate_bps = 3'000'000,
                                        int64_t minutes = 90);

}  // namespace itv::media

#endif  // SRC_MEDIA_FACTORIES_H_
