#include "src/media/cmgr.h"

#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/media/mds.h"

namespace itv::media {

namespace {

// Resource limit (paper Section 7.3): "a settop client is only allowed to
// open a certain number of network connections".
constexpr uint32_t kMaxConnectionsPerSettop = 4;
constexpr Duration kRpcTimeout = Duration::Seconds(2);
// Grant reclamation cadence (see AuditGrants).
constexpr Duration kGrantAuditInterval = Duration::Seconds(10);
constexpr int kGrantMissesToReclaim = 2;
constexpr Duration kGrantGrace = Duration::Seconds(10);

}  // namespace

// --- TrunkService --------------------------------------------------------------

void TrunkService::Dispatch(uint32_t method_id, const wire::Bytes& args,
                            const rpc::CallContext& ctx, rpc::ReplyFn reply) {
  switch (method_id) {
    case kTrunkMethodReserve: {
      uint64_t connection_id = 0;
      int64_t bps = 0;
      if (!rpc::DecodeArgs(args, &connection_id, &bps)) {
        return rpc::ReplyBadArgs(reply);
      }
      if (bps <= 0) {
        return rpc::ReplyError(reply, InvalidArgumentError("bps must be > 0"));
      }
      if (reservations_.count(connection_id) > 0) {
        return rpc::ReplyOk(reply);  // Idempotent (retried reservation).
      }
      if (reserved_bps_ + bps > capacity_bps_) {
        if (metrics_ != nullptr) {
          metrics_->Add("cmgr.trunk_exhausted");
        }
        return rpc::ReplyError(
            reply, ResourceExhaustedError("server trunk bandwidth exhausted"));
      }
      reservations_[connection_id] = bps;
      reserved_bps_ += bps;
      return rpc::ReplyOk(reply);
    }
    case kTrunkMethodRelease: {
      uint64_t connection_id = 0;
      if (!rpc::DecodeArgs(args, &connection_id)) {
        return rpc::ReplyBadArgs(reply);
      }
      auto it = reservations_.find(connection_id);
      if (it != reservations_.end()) {
        reserved_bps_ -= it->second;
        reservations_.erase(it);
      }
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
  grant_audit_timer_.Start(executor_, kGrantAuditInterval,
                           [this] { AuditGrants(); });
}

void CmgrService::OnPromoted() {
  ITV_LOG(Info) << "cmgr nb " << int{neighborhood_} << ": primary with "
                << connections_.size() << " replicated connections";
  Count("cmgr.became_primary");
}

void CmgrService::AuditGrants() {
  if (!is_primary() || connections_.empty()) {
    return;
  }
  name_client_.ListRepl("svc/mds").OnReady([this](
                                               const Result<naming::BindingList>&
                                                   r) {
    if (!r.ok()) {
      return;  // Name service unreachable: no evidence, try next sweep.
    }
    // Presence of a host key means that host's MDS answered; only answering
    // hosts can testify that a grant is unclaimed.
    auto claimed = std::make_shared<std::map<uint32_t, std::set<uint64_t>>>();
    auto pending = std::make_shared<size_t>(0);
    for (const naming::Binding& binding : *r) {
      if (!IsMdsReplica(binding)) {
        continue;
      }
      ++*pending;
      MdsProxy mds(runtime_, binding.ref);
      rpc::CallOptions opts;
      opts.timeout = kRpcTimeout;
      uint32_t host = binding.ref.endpoint.host;
      mds.Sync(opts).OnReady(
          [this, claimed, pending, host](const Result<MdsSync>& sync) {
            if (sync.ok()) {
              auto& ids = (*claimed)[host];
              for (const SessionInfo& info : sync->sessions) {
                ids.insert(info.connection.connection_id);
              }
            }
            if (--*pending == 0) {
              ReclaimUnclaimed(*claimed);
            }
          });
    }
  });
}

void CmgrService::ReclaimUnclaimed(
    const std::map<uint32_t, std::set<uint64_t>>& claimed) {
  if (!is_primary()) {
    return;
  }
  Time now = executor_.Now();
  std::vector<ConnectionGrant> doomed;
  for (const auto& [id, grant] : connections_) {
    auto host = claimed.find(grant.server_host);
    if (host == claimed.end()) {
      // Serving MDS did not answer (or has no binding right now): no
      // evidence either way, and restart both counters — a server coming
      // back must testify twice afresh before we release anything.
      grant_misses_.erase(id);
      continue;
    }
    auto granted = granted_at_.find(id);
    if (granted != granted_at_.end() &&
        now - granted->second < kGrantGrace) {
      continue;  // Open may still be in flight.
    }
    if (host->second.count(id) > 0) {
      grant_misses_.erase(id);
      continue;
    }
    if (++grant_misses_[id] >= kGrantMissesToReclaim) {
      doomed.push_back(grant);
    }
  }
  for (const ConnectionGrant& grant : doomed) {
    ITV_LOG(Info) << "cmgr nb " << int{neighborhood_}
                  << ": reclaiming orphaned connection " << grant.connection_id
                  << " (settop " << grant.settop_host << ", server "
                  << grant.server_host << ")";
    Count("cmgr.grant_reclaimed");
    grant_misses_.erase(grant.connection_id);
    ApplyLocal(2, grant);
    PushToStandbys(2, grant);
    uint64_t connection_id = grant.connection_id;
    bindings_.Bind<TrunkProxy>(TrunkName(grant.server_host))
        .Call<void>(
            [connection_id](const TrunkProxy& trunk) {
              return trunk.Release(connection_id);
            },
            [](Result<void>) {});
  }
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
            return trunk.Reserve(grant.connection_id, grant.downstream_bps);
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
    grant_misses_.erase(grant.connection_id);
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
              Count("cmgr.state_push");
              CmgrProxy(runtime_, standby)
                  .ApplyReplica(1, grant)
                  .OnReady([](const Result<void>&) {});
            }
          }
        }
        standbys_ = std::move(fresh);
      });
}

void CmgrService::PushToStandbys(uint8_t op, const ConnectionGrant& grant) {
  for (const wire::ObjectRef& standby : standbys_) {
    Count("cmgr.state_push");
    CmgrProxy(runtime_, standby).ApplyReplica(op, grant).OnReady(
        [](const Result<void>&) {});
  }
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
