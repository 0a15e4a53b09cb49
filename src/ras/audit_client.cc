#include "src/ras/audit_client.h"

#include <utility>

namespace itv::ras {

AuditClient::AuditClient(rpc::ObjectRuntime& runtime, Executor& executor,
                         wire::ObjectRef local_ras, Options options)
    : runtime_(runtime),
      executor_(executor),
      local_ras_(local_ras),
      options_(options),
      // The local RAS lives at a well-known ref that survives restarts, so
      // the binding "resolves" to that ref without a name-service lookup,
      // but calls still get the binding layer's retry/deadline/metrics.
      bindings_(runtime,
                [local_ras](const std::string&,
                            std::function<void(Result<wire::ObjectRef>)> cb) {
                  cb(local_ras);
                }),
      ras_(bindings_.Bind<RasProxy>("ras/local", options_.binding)) {
  bindings_.Prime("ras/local", local_ras);
  poll_timer_.Start(executor_, options_.poll_interval, [this] { Poll(); });
}

AuditClient::WatchId AuditClient::Watch(const EntityId& entity,
                                        DeathCallback cb) {
  WatchId id = next_id_++;
  watches_[id] = Watch_{entity, std::move(cb)};
  return id;
}

void AuditClient::Unwatch(WatchId id) { watches_.erase(id); }

void AuditClient::Poll() {
  if (watches_.empty()) {
    return;
  }
  std::vector<WatchId> ids;
  std::vector<EntityId> entities;
  ids.reserve(watches_.size());
  for (const auto& [id, watch] : watches_) {
    ids.push_back(id);
    entities.push_back(watch.entity);
  }
  ++polls_sent_;
  ras_.Call<std::vector<uint8_t>>(
      [entities = std::move(entities)](const RasProxy& ras) {
        return ras.CheckStatus(entities);
      },
      [this, ids](Result<std::vector<uint8_t>> r) {
        if (!r.ok() || r->size() != ids.size()) {
          return;  // Local RAS briefly down; it rebuilds on our next poll.
        }
        for (size_t i = 0; i < ids.size(); ++i) {
          if (static_cast<EntityStatus>((*r)[i]) != EntityStatus::kDead) {
            continue;
          }
          auto it = watches_.find(ids[i]);
          if (it == watches_.end()) {
            continue;  // Unwatched while the poll was in flight.
          }
          Watch_ watch = std::move(it->second);
          watches_.erase(it);
          watch.cb(watch.entity);
        }
      });
}

void NamingAuditAdapter::CheckObjects(
    const std::vector<wire::ObjectRef>& refs,
    std::function<void(std::vector<uint8_t>)> cb) {
  std::vector<EntityId> entities;
  entities.reserve(refs.size());
  for (const wire::ObjectRef& ref : refs) {
    entities.push_back(EntityId::Object(ref));
  }
  RasProxy ras(runtime_, local_ras_);
  size_t count = refs.size();
  ras.CheckStatus(entities)
      .OnReady([cb, count](const Result<std::vector<uint8_t>>& r) {
        if (!r.ok() || r->size() != count) {
          // Treat a failed audit query as "everyone alive": never unbind on
          // missing evidence.
          cb(std::vector<uint8_t>(count, 1));
          return;
        }
        std::vector<uint8_t> alive;
        alive.reserve(count);
        for (uint8_t status : *r) {
          alive.push_back(
              static_cast<EntityStatus>(status) == EntityStatus::kDead ? 0 : 1);
        }
        cb(std::move(alive));
      });
}

}  // namespace itv::ras
