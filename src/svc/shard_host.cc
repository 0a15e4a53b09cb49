#include "src/svc/shard_host.h"

#include "src/common/logging.h"

namespace itv::svc {

namespace {

std::string ShardLabel(uint32_t shard, const wire::ShardMap& map) {
  return "shard=" + std::to_string(shard + 1) + "/" +
         std::to_string(map.shard_count) + " v" + std::to_string(map.version);
}

}  // namespace

ShardHost::ShardHost(const ServiceContext& ctx, std::string base,
                     Options options, ShardFactory factory)
    : ctx_(ctx),
      base_(std::move(base)),
      options_(options),
      factory_(std::move(factory)) {}

void ShardHost::Start(const wire::ShardMap& initial) {
  map_ = initial;
  for (uint32_t shard = 0; shard < map_.shard_count; ++shard) {
    StartShard(shard);
  }
  if (!map_.sharded()) {
    return;  // Classic single-name service: no map, no poll.
  }
  // Publish through the CAS. The winner may be NEWER than `initial` (this
  // replica restarted after a reshard); adopting it here converges the
  // restart without waiting a poll period.
  naming::PublishShardMap(
      ctx_.process.executor(), ctx_.MakeNameClient(), base_, map_,
      [this](const Result<wire::ShardMap>& r) {
        if (r.ok()) {
          Reconcile(*r);
        }
      });
  poll_timer_.Start(ctx_.process.executor(), kShardMapPoll,
                    [this] { Poll(); });
}

void ShardHost::StartShard(uint32_t shard) {
  Active active;
  active.shard = factory_(shard, map_);
  ServiceLifecycle::Options opts;
  if (map_.sharded()) {
    opts.shard_label = ShardLabel(shard, map_);
    opts.first_bind_delay =
        ShardStaggerFor(shard, options_.rank, options_.replicas, map_);
  }
  active.lifecycle =
      ctx_.StartLifecycle(wire::ShardPath(base_, shard, map_),
                          active.shard.ref, active.shard.hooks, opts);
  if (active.shard.attach) {
    active.shard.attach(active.lifecycle);
  }
  shards_[shard] = std::move(active);
}

void ShardHost::Poll() {
  // A plain resolve (no process resolution cache on this client): the poll
  // IS the staleness bound, a cached map would defeat it.
  ctx_.MakeNameClient()
      .Resolve(wire::ShardMapPath(base_))
      .OnReady([this](const Result<wire::ObjectRef>& r) {
        if (r.ok() && wire::IsShardMapRef(*r)) {
          wire::ShardMap seen = wire::DecodeShardMapRef(*r);
          missing_polls_ = 0;
          if (seen.version < map_.version) {
            // A name-service fail-over rolled ".shards" back past a cutover
            // this replica already adopted: the write was lost, not lagging.
            Reassert();
            return;
          }
          Reconcile(seen);
        } else if (r.ok() || IsNotFound(r.status())) {
          // The binding vanished after this replica adopted a sharded map.
          // One missing poll may just be a concurrent publisher's
          // unbind+bind gap; two polls apart is a real loss — republish.
          if (++missing_polls_ >= 2) {
            Reassert();
          }
        } else {
          missing_polls_ = 0;  // Unreachable name service: no evidence.
        }
      });
}

void ShardHost::Reassert() {
  if (reasserting_) {
    return;
  }
  reasserting_ = true;
  Count("shardhost.map_reassert");
  ITV_LOG(Warn) << "shardhost " << base_
                << ": name service lost the shard map adopted at v"
                << map_.version << "; republishing";
  naming::PublishShardMap(
      ctx_.process.executor(), ctx_.MakeNameClient(), base_, map_,
      [this](const Result<wire::ShardMap>& r) {
        reasserting_ = false;
        if (r.ok()) {
          Reconcile(*r);
        }
      });
}

void ShardHost::Reconcile(const wire::ShardMap& next) {
  if (next.version <= map_.version) {
    return;  // Stale or already adopted; versions only move forward.
  }
  ITV_LOG(Info) << "shardhost " << base_ << ": adopting map v" << next.version
                << " (" << map_.shard_count << " -> " << next.shard_count
                << " shards)";
  Count("shardhost.reconcile");
  ++reconciles_;
  map_ = next;
  // Every surviving AND retiring shard adopts first: under the new map a
  // retiring shard owns nothing, so its adopt is exactly the drain/handoff.
  for (auto& [index, active] : shards_) {
    if (active.shard.adopt_map) {
      active.shard.adopt_map(map_);
    }
  }
  // Retire dropped shards: graceful Stop() releases the primary binding
  // within one bind-retry instead of waiting out the audit.
  for (auto it = shards_.begin(); it != shards_.end();) {
    if (it->first >= map_.shard_count) {
      Count("shardhost.shard_retired");
      it->second.lifecycle->Stop();
      if (it->second.shard.retire) {
        it->second.shard.retire();
      }
      it = shards_.erase(it);
    } else {
      ++it;
    }
  }
  // Grow into the new shards (same stagger policy as the opening election).
  for (uint32_t shard = 0; shard < map_.shard_count; ++shard) {
    if (shards_.find(shard) == shards_.end()) {
      Count("shardhost.shard_started");
      StartShard(shard);
    }
  }
}

void ShardHost::Count(std::string_view counter) {
  if (ctx_.metrics != nullptr) {
    ctx_.metrics->Add(counter);
  }
}

}  // namespace itv::svc
