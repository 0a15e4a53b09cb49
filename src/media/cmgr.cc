#include "src/media/cmgr.h"

#include <algorithm>
#include <utility>

#include "src/common/address.h"
#include "src/common/logging.h"
#include "src/media/mds.h"

namespace itv::media {

namespace {

// Resource limit (paper Section 7.3): "a settop client is only allowed to
// open a certain number of network connections".
constexpr uint32_t kMaxConnectionsPerSettop = 4;
constexpr Duration kRpcTimeout = Duration::Seconds(2);
// Grant reclamation cadence (see TrunkService::AuditGrants).
constexpr Duration kGrantAuditInterval = Duration::Seconds(10);
constexpr int kGrantMissesToReclaim = 2;
constexpr Duration kGrantGrace = Duration::Seconds(10);

}  // namespace

// --- TrunkService --------------------------------------------------------------

TrunkService::TrunkService(rpc::ObjectRuntime& runtime, Executor& executor,
                           naming::NameClient name_client, size_t server_index,
                           uint8_t neighborhoods, int64_t capacity_bps,
                           Metrics* metrics)
    : runtime_(runtime),
      executor_(executor),
      name_client_(std::move(name_client)),
      server_index_(server_index),
      capacity_bps_(capacity_bps),
      metrics_(metrics),
      bindings_(runtime, name_client_.PathResolverFn()) {
  for (uint8_t nb = 1; nb <= neighborhoods; ++nb) {
    unlisted_.insert(nb);
  }
}

wire::ObjectRef TrunkService::Start() {
  wire::ObjectRef ref = runtime_.Export(this);
  ListGrants();
  audit_timer_.Start(executor_, kGrantAuditInterval, [this] {
    ListGrants();
    AuditGrants();
  });
  return ref;
}

void TrunkService::ListGrants() {
  const uint32_t host = runtime_.local_endpoint().host;
  for (uint8_t nb : std::vector<uint8_t>(unlisted_.begin(), unlisted_.end())) {
    bindings_.Bind<CmgrProxy>(CmgrName(nb))
        .Call<std::vector<ConnectionGrant>>(
            [](const CmgrProxy& cmgr) { return cmgr.ListConnections(); },
            [this, nb, host](Result<std::vector<ConnectionGrant>> grants) {
              if (!grants.ok() || unlisted_.erase(nb) == 0) {
                return;
              }
              for (const ConnectionGrant& grant : *grants) {
                if (grant.server_host == host &&
                    reservations_.count(grant.connection_id) == 0) {
                  reservations_[grant.connection_id] = {grant, executor_.Now()};
                  reserved_bps_ += grant.downstream_bps;
                }
              }
            });
  }
}

void TrunkService::AuditGrants() {
  if (reservations_.empty()) {
    return;
  }
  bindings_.Bind<MdsProxy>(MdsName(server_index_))
      .Call<MdsSync>(
          [](const MdsProxy& mds) {
            rpc::CallOptions opts;
            opts.timeout = kRpcTimeout;
            return mds.Sync(opts);
          },
          [this](Result<MdsSync> sync) {
            if (!sync.ok()) {
              // No evidence either way, and the misses restart: a server
              // coming back must testify twice afresh before a reclaim.
              for (auto& [id, reservation] : reservations_) {
                reservation.misses = 0;
              }
              return;
            }
            std::set<uint64_t> claimed;
            for (const SessionInfo& info : sync->sessions) {
              claimed.insert(info.connection.connection_id);
            }
            Time now = executor_.Now();
            std::vector<ConnectionGrant> doomed;
            for (auto& [id, reservation] : reservations_) {
              if (claimed.count(id) > 0) {
                reservation.misses = 0;
              } else if (now - reservation.reserved_at >= kGrantGrace &&
                         ++reservation.misses >= kGrantMissesToReclaim) {
                doomed.push_back(reservation.grant);
              }
            }
            for (const ConnectionGrant& grant : doomed) {
              Reclaim(grant);
            }
          });
}

void TrunkService::Reclaim(const ConnectionGrant& grant) {
  ITV_LOG(Info) << "trunk " << runtime_.local_endpoint().host
                << ": reclaiming orphaned connection " << grant.connection_id
                << " (settop " << grant.settop_host << ")";
  // The CMgr drops the grant, pushes the drop to its standbys and releases
  // it here. Its NOT_FOUND means it never committed the grant (it died
  // between Reserve and its commit), so only this trunk held it. Any other
  // error, including a lookup of the CMgr's name that finds no primary
  // mid-fail-over: try again on the next audit.
  uint64_t connection_id = grant.connection_id;
  bindings_.Bind<CmgrProxy>(CmgrName(NeighborhoodOfHost(grant.settop_host)))
      .Call<void>(
          [connection_id](const CmgrProxy& cmgr) {
            Promise<void> gone;
            cmgr.Release(connection_id)
                .OnReady([gone](const Result<void>& r) mutable {
                  gone.Set(IsNotFound(r.status()) ? OkStatus() : r);
                });
            return gone.future();
          },
          [this, connection_id](Result<void> r) {
            if (r.ok()) {
              if (metrics_ != nullptr) {
                metrics_->Add("cmgr.grant_reclaimed");
              }
              Drop(connection_id);
            }
          });
}

void TrunkService::Drop(uint64_t connection_id) {
  auto it = reservations_.find(connection_id);
  if (it != reservations_.end()) {
    reserved_bps_ -= it->second.grant.downstream_bps;
    reservations_.erase(it);
  }
}

void TrunkService::Dispatch(uint32_t method_id, const wire::Bytes& args,
                            const rpc::CallContext& ctx, rpc::ReplyFn reply) {
  switch (method_id) {
    case kTrunkMethodReserve: {
      ConnectionGrant grant;
      if (!rpc::DecodeArgs(args, &grant)) {
        return rpc::ReplyBadArgs(reply);
      }
      if (grant.downstream_bps <= 0) {
        return rpc::ReplyError(reply, InvalidArgumentError("bps must be > 0"));
      }
      if (reservations_.count(grant.connection_id) > 0) {
        return rpc::ReplyOk(reply);  // Idempotent (retried reservation).
      }
      if (reserved_bps_ + grant.downstream_bps > capacity_bps_) {
        if (metrics_ != nullptr) {
          metrics_->Add("cmgr.trunk_exhausted");
        }
        return rpc::ReplyError(
            reply, ResourceExhaustedError("server trunk bandwidth exhausted"));
      }
      reservations_[grant.connection_id] = {grant, executor_.Now()};
      reserved_bps_ += grant.downstream_bps;
      return rpc::ReplyOk(reply);
    }
    case kTrunkMethodRelease: {
      uint64_t connection_id = 0;
      if (!rpc::DecodeArgs(args, &connection_id)) {
        return rpc::ReplyBadArgs(reply);
      }
      Drop(connection_id);
      return rpc::ReplyOk(reply);
    }
    case kTrunkMethodUsage:
      return rpc::ReplyWith(reply, TrunkUsage{capacity_bps_, reserved_bps_});
    default:
      return rpc::ReplyBadMethod(reply, method_id);
  }
}

// --- CmgrService ---------------------------------------------------------------

CmgrService::CmgrService(rpc::ObjectRuntime& runtime, Executor& executor,
                         naming::NameClient name_client, uint8_t neighborhood,
                         Metrics* metrics)
    : runtime_(runtime),
      executor_(executor),
      name_client_(std::move(name_client)),
      neighborhood_(neighborhood),
      metrics_(metrics),
      // Connection ids must stay unique across fail-over and restart: seed
      // the counter with this process's incarnation.
      next_connection_id_(runtime.incarnation() << 20),
      bindings_(runtime, name_client_.PathResolverFn()) {}

void CmgrService::Start() {
  ref_ = runtime_.Export(this);
  RefreshStandbys();
  standby_refresh_timer_.Start(executor_, Duration::Seconds(10),
                               [this] { RefreshStandbys(); });
}

void CmgrService::OnPromoted() {
  ITV_LOG(Info) << "cmgr nb " << int{neighborhood_} << ": primary with "
                << connections_.size() << " replicated connections";
  Count("cmgr.became_primary");
}

int64_t CmgrService::SettopReservedBps(uint32_t settop_host) const {
  int64_t total = 0;
  for (const auto& [id, grant] : connections_) {
    if (grant.settop_host == settop_host) {
      total += grant.downstream_bps;
    }
  }
  return total;
}

uint32_t CmgrService::SettopConnectionCount(uint32_t settop_host) const {
  uint32_t count = 0;
  for (const auto& [id, grant] : connections_) {
    count += grant.settop_host == settop_host;
  }
  return count;
}

AccountingRecord CmgrService::AccountingFor(uint32_t settop_host) const {
  AccountingRecord record;
  auto it = accounting_.find(settop_host);
  if (it != accounting_.end()) {
    record = it->second;
  }
  record.settop_host = settop_host;
  record.current_connections = SettopConnectionCount(settop_host);
  // Charge still-open connections up to now.
  for (const auto& [id, grant] : connections_) {
    if (grant.settop_host != settop_host) {
      continue;
    }
    auto granted = granted_at_.find(id);
    if (granted != granted_at_.end()) {
      record.megabit_seconds += static_cast<double>(grant.downstream_bps) / 1e6 *
                                (executor_.Now() - granted->second).seconds();
    }
  }
  return record;
}

void CmgrService::HandleAllocate(uint32_t settop_host, uint32_t server_host,
                                 int64_t bps, bool allow_partial,
                                 rpc::ReplyFn reply) {
  if (bps <= 0) {
    return rpc::ReplyError(reply, InvalidArgumentError("bps must be > 0"));
  }
  // Resource limit first (paper Section 7.3): a connection-count cap
  // contains buggy clients that allocate without releasing.
  if (SettopConnectionCount(settop_host) >= kMaxConnectionsPerSettop) {
    Count("cmgr.limit_denied");
    ++accounting_[settop_host].denied;
    return rpc::ReplyError(
        reply, ResourceExhaustedError("settop connection limit reached"));
  }
  int64_t remaining = kSettopDownstreamBps - SettopReservedBps(settop_host);
  int64_t granted = bps;
  if (granted > remaining) {
    if (!allow_partial || remaining <= 0) {
      Count("cmgr.settop_exhausted");
      ++accounting_[settop_host].denied;
      return rpc::ReplyError(reply, ResourceExhaustedError(
                                        "settop downstream bandwidth exhausted"));
    }
    granted = remaining;
  }

  ConnectionGrant grant;
  grant.connection_id = ++next_connection_id_;
  grant.settop_host = settop_host;
  grant.server_host = server_host;
  grant.downstream_bps = granted;

  // Reserve on the server trunk, then commit locally and on standbys.
  bindings_.Bind<TrunkProxy>(TrunkName(server_host))
      .Call<void>(
          [grant](const TrunkProxy& trunk) {
            return trunk.Reserve(grant);
          },
          [this, grant, reply](Result<void> r) {
            if (!r.ok()) {
              return rpc::ReplyError(reply, r.status());
            }
            ApplyLocal(1, grant);
            PushToStandbys(1, grant);
            Count("cmgr.allocated");
            rpc::ReplyWith(reply, grant);
          });
}

void CmgrService::HandleRelease(uint64_t connection_id, rpc::ReplyFn reply) {
  auto it = connections_.find(connection_id);
  if (it == connections_.end()) {
    return rpc::ReplyError(reply, NotFoundError("unknown connection"));
  }
  ConnectionGrant grant = it->second;
  ApplyLocal(2, grant);
  PushToStandbys(2, grant);
  Count("cmgr.released");

  // Always bind: a promoted standby inherited grants whose trunk it has
  // never called.
  bindings_.Bind<TrunkProxy>(TrunkName(grant.server_host))
      .Call<void>(
          [connection_id](const TrunkProxy& proxy) {
            return proxy.Release(connection_id);
          },
          [](Result<void>) {});
  rpc::ReplyOk(reply);
}

void CmgrService::ApplyLocal(uint8_t op, const ConnectionGrant& grant) {
  if (op == 1) {
    connections_[grant.connection_id] = grant;
    granted_at_[grant.connection_id] = executor_.Now();
    ++accounting_[grant.settop_host].allocations;
  } else {
    auto granted = granted_at_.find(grant.connection_id);
    if (granted != granted_at_.end()) {
      AccountingRecord& record = accounting_[grant.settop_host];
      record.megabit_seconds += static_cast<double>(grant.downstream_bps) / 1e6 *
                                (executor_.Now() - granted->second).seconds();
      ++record.releases;
      granted_at_.erase(granted);
    }
    connections_.erase(grant.connection_id);
  }
}

void CmgrService::RefreshStandbys() {
  name_client_
      .ListRepl(CmgrStandbyContext(neighborhood_))
      .OnReady([this](const Result<naming::BindingList>& r) {
        if (!r.ok()) {
          return;
        }
        std::vector<wire::ObjectRef> fresh;
        for (const naming::Binding& b : *r) {
          if (b.kind == naming::BindingKind::kObject && b.ref != ref_) {
            fresh.push_back(b.ref);
          }
        }
        // Full-sync standbys we have not pushed to before.
        for (const wire::ObjectRef& standby : fresh) {
          bool known = false;
          for (const wire::ObjectRef& old : standbys_) {
            known |= old == standby;
          }
          if (!known) {
            for (const auto& [id, grant] : connections_) {
              Push(standby, 1, grant);
            }
          }
        }
        // Drops a standby still listed has not acknowledged go again; a
        // standby no longer listed died, and its restart is full-synced.
        std::erase_if(unacked_drops_, [&fresh](const auto& entry) {
          return std::find(fresh.begin(), fresh.end(), entry.first.first) ==
                 fresh.end();
        });
        for (const auto& [key, grant] : unacked_drops_) {
          Push(key.first, 2, grant);
        }
        standbys_ = std::move(fresh);
      });
}

void CmgrService::PushToStandbys(uint8_t op, const ConnectionGrant& grant) {
  for (const wire::ObjectRef& standby : standbys_) {
    Push(standby, op, grant);
  }
}

void CmgrService::Push(const wire::ObjectRef& standby, uint8_t op,
                       const ConnectionGrant& grant) {
  Count("cmgr.state_push");
  CmgrProxy(runtime_, standby)
      .ApplyReplica(op, grant)
      .OnReady([this, standby, op, grant](const Result<void>& r) {
        if (op != 2) {
          return;
        }
        std::pair<wire::ObjectRef, uint64_t> key{standby, grant.connection_id};
        if (r.ok()) {
          unacked_drops_.erase(key);
        } else {
          unacked_drops_[key] = grant;
        }
      });
}

void CmgrService::Dispatch(uint32_t method_id, const wire::Bytes& args,
                           const rpc::CallContext& ctx, rpc::ReplyFn reply) {
  switch (method_id) {
    case kCmgrMethodAllocate: {
      uint32_t settop_host = 0, server_host = 0;
      int64_t bps = 0;
      bool allow_partial = false;
      if (!rpc::DecodeArgs(args, &settop_host, &server_host, &bps,
                           &allow_partial)) {
        return rpc::ReplyBadArgs(reply);
      }
      if (!is_primary()) {
        return rpc::ReplyError(
            reply, UnavailableError("not the primary connection manager"));
      }
      return HandleAllocate(settop_host, server_host, bps, allow_partial,
                            std::move(reply));
    }
    case kCmgrMethodRelease: {
      uint64_t connection_id = 0;
      if (!rpc::DecodeArgs(args, &connection_id)) {
        return rpc::ReplyBadArgs(reply);
      }
      if (!is_primary()) {
        return rpc::ReplyError(
            reply, UnavailableError("not the primary connection manager"));
      }
      return HandleRelease(connection_id, std::move(reply));
    }
    case kCmgrMethodListConnections: {
      std::vector<ConnectionGrant> out;
      out.reserve(connections_.size());
      for (const auto& [id, grant] : connections_) {
        out.push_back(grant);
      }
      return rpc::ReplyWith(reply, out);
    }
    case kCmgrMethodApplyReplica: {
      uint8_t op = 0;
      ConnectionGrant grant;
      if (!rpc::DecodeArgs(args, &op, &grant)) {
        return rpc::ReplyBadArgs(reply);
      }
      if (op == 1 && is_primary() &&
          connections_.count(grant.connection_id) == 0) {
        // A standby full-syncs every replica it has not pushed to before,
        // and a primary restarted with an empty table is one. By now the
        // grant's trunk may have relisted without it, or dropped it while
        // this primary did not know it. Reserved again (idempotent), it is
        // under the trunk's grant audit, which releases it through this
        // primary unless an MDS session claims it.
        Count("cmgr.pushed_grant_reserved");
        bindings_.Bind<TrunkProxy>(TrunkName(grant.server_host))
            .Call<void>(
                [grant](const TrunkProxy& trunk) {
                  return trunk.Reserve(grant);
                },
                [](Result<void>) {});
      }
      ApplyLocal(op, grant);
      return rpc::ReplyOk(reply);
    }
    case kCmgrMethodAccounting: {
      uint32_t settop_host = 0;
      if (!rpc::DecodeArgs(args, &settop_host)) {
        return rpc::ReplyBadArgs(reply);
      }
      return rpc::ReplyWith(reply, AccountingFor(settop_host));
    }
    default:
      return rpc::ReplyBadMethod(reply, method_id);
  }
}

void CmgrService::Count(std::string_view name) {
  if (metrics_ != nullptr) {
    metrics_->Add(name);
  }
}

}  // namespace itv::media
