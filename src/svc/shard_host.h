// ShardHost: the server-side half of live shard rebalancing (ROADMAP
// "Shard rebalancing"). One ShardHost per replica process of a sharded
// service owns that replica's per-shard ServiceLifecycles and reconciles
// them against the VERSIONED shard map published at "<base>/.shards":
//
//   - Start() publishes the deployment's initial map through the versioned
//     compare-and-swap (naming::PublishShardMap) — so a replica restarting
//     mid-reshard can never roll the cluster back to the old map — and
//     spins up one lifecycle per shard, staggering non-preferred replicas'
//     first bind (naming::PrimaryBinder::Options::first_bind_delay) so the
//     opening elections place primaries round-robin.
//   - A poll timer re-reads the map. A version bump reconciles:
//       grow    new shards' lifecycles spin up (same stagger policy) and
//               every surviving shard's service adopts the new map (the
//               drain side of the session-handoff protocol);
//       shrink  retired shards adopt the new map first — under it they own
//               nothing, so the adopt IS the drain — then their lifecycles
//               Stop() (graceful unbind; a backup never wins the retired
//               name again because no replica restarts it).
//   - The poll also RE-ASSERTS: the name service is soft state, and a master
//     fail-over (or a healed split brain) can lose an acked ".shards" write.
//     When the poll resolves a map OLDER than the one this replica adopted —
//     or none at all — the replica republishes its adopted map through the
//     CAS, the same posture PrimaryBinder takes toward a lost primary
//     binding. The adopted maps on the replicas, not the name-space binding,
//     are the durable copy.
//
// The service plugs in through a ShardFactory: called once per shard the
// replica must host, it creates the servant and returns its ref, lifecycle
// hooks, and the adopt/retire callbacks the reconciler drives. The factory
// is the only service-specific code; the version CAS, the poll, and the
// create/retire choreography live here once.

#ifndef SRC_SVC_SHARD_HOST_H_
#define SRC_SVC_SHARD_HOST_H_

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/executor.h"
#include "src/svc/harness.h"
#include "src/svc/lifecycle.h"
#include "src/wire/shard_map.h"

namespace itv::svc {

// Non-preferred replicas' first-bind delay per shard.
inline constexpr Duration kShardStagger = Duration::Seconds(3);
// Map re-read cadence. The cutover window a reshard observes is bounded by
// this plus the client routers' map max age.
inline constexpr Duration kShardMapPoll = Duration::Seconds(5);

// Election stagger for one shard's lifecycle on the replica with rank
// `rank` out of `replicas`: the preferred replica (round-robin by shard)
// contests immediately, everyone else waits kShardStagger, so the opening
// elections place one primary per replica instead of all N shards on the
// fastest booter.
inline Duration ShardStaggerFor(uint32_t shard, size_t rank, size_t replicas,
                                const wire::ShardMap& map) {
  if (!map.sharded() || replicas <= 1) {
    return Duration();
  }
  return rank == shard % replicas ? Duration() : kShardStagger;
}

class ShardHost {
 public:
  struct Options {
    size_t rank = 0;      // This replica's rank among the service's replicas.
    size_t replicas = 1;  // Replica count (stagger placement input).
  };

  // What the factory hands back for one hosted shard.
  struct Shard {
    wire::ObjectRef ref;             // Bound at "<base>/<shard+1>".
    ServiceLifecycle::Hooks hooks;   // Election hooks for that binding.
    // Runs right after the shard's lifecycle is created, before its first
    // election step — services that gate on is_primary() attach it here.
    std::function<void(ServiceLifecycle*)> attach;
    // Live map change while the shard survives (or just before it retires):
    // the service re-keys its ownership filter and drains what moved.
    std::function<void(const wire::ShardMap&)> adopt_map;
    // The shard was dropped by the new map and its lifecycle has stopped.
    std::function<void()> retire;
  };
  using ShardFactory =
      std::function<Shard(uint32_t shard, const wire::ShardMap& map)>;

  ShardHost(const ServiceContext& ctx, std::string base, Options options,
            ShardFactory factory);

  // Publishes `initial` (versioned CAS), creates this replica's lifecycles,
  // and — for sharded maps — starts the reconcile poll. An unsharded map
  // degenerates to one lifecycle on the base path with no map machinery.
  void Start(const wire::ShardMap& initial);

  const wire::ShardMap& map() const { return map_; }
  size_t active_shards() const { return shards_.size(); }
  uint64_t reconciles() const { return reconciles_; }
  ServiceLifecycle* lifecycle(uint32_t shard) {
    auto it = shards_.find(shard);
    return it == shards_.end() ? nullptr : it->second.lifecycle;
  }

 private:
  struct Active {
    Shard shard;
    ServiceLifecycle* lifecycle = nullptr;
  };

  void StartShard(uint32_t shard);
  void Poll();
  void Reassert();
  void Reconcile(const wire::ShardMap& next);
  void Count(std::string_view counter);

  ServiceContext ctx_;
  std::string base_;
  Options options_;
  ShardFactory factory_;
  wire::ShardMap map_;
  std::map<uint32_t, Active> shards_;
  PeriodicTimer poll_timer_;
  bool reasserting_ = false;
  int missing_polls_ = 0;  // Consecutive polls that found no map bound.
  uint64_t reconciles_ = 0;
};

}  // namespace itv::svc

#endif  // SRC_SVC_SHARD_HOST_H_
