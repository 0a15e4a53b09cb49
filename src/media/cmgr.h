// Connection Manager (paper Section 3.3): "allocates ATM connections between
// settops and servers". Admission control over two capacity pools:
//
//   - per-settop downstream/upstream caps (6 Mb/s / 50 kb/s, Section 3.1),
//     owned by the per-neighborhood replica;
//   - per-server trunk capacity, owned by the per-server trunk replica.
//
// Replication (paper Section 5.2): "The Connection Manager actually uses both
// forms of replication. It has active replicas for each neighborhood and each
// server, and the neighborhood replicas are backed up by passive replicas."
// The connection manager is one of the two services in the system that keep
// replicated state (Section 10.1.1): the neighborhood primary pushes every
// allocate/release to its standby replicas, so a promoted backup carries the
// allocation table forward. The per-server trunk replica audits the grants
// reserved on its server against that server's MDS and reclaims the ones no
// session claims, so the audit costs one host-local call per server however
// many neighborhoods there are.

#ifndef SRC_MEDIA_CMGR_H_
#define SRC_MEDIA_CMGR_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/executor.h"
#include "src/common/metrics.h"
#include "src/media/types.h"
#include "src/naming/name_client.h"
#include "src/rpc/binding_table.h"
#include "src/svc/lifecycle.h"

namespace itv::media {

inline constexpr std::string_view kCmgrInterface = "itv.ConnectionManager";
inline constexpr std::string_view kTrunkInterface = "itv.TrunkManager";

// Name-space layout:
//   svc/cmgr/<neighborhood>      primary binding of the neighborhood replica
//   svc/cmgrbk/<nb>/<host>       every replica (incl. backups) registers here
//                                so the primary can find standbys to push to
//   svc/cmgrtrunk/<host>         the per-server trunk replica
inline std::string CmgrName(uint8_t neighborhood) {
  return "svc/cmgr/" + std::to_string(neighborhood);
}
inline std::string CmgrStandbyContext(uint8_t neighborhood) {
  return "svc/cmgrbk/" + std::to_string(neighborhood);
}
inline std::string TrunkName(uint32_t server_host) {
  return "svc/cmgrtrunk/" + std::to_string(server_host);
}

enum CmgrMethod : uint32_t {
  kCmgrMethodAllocate = 1,
  kCmgrMethodRelease = 2,
  kCmgrMethodListConnections = 3,
  kCmgrMethodApplyReplica = 4,   // Primary -> standby state push.
  // Id 5 (the retired per-settop usage read) stays unassigned.
  kCmgrMethodAccounting = 6,
};

// Resource accounting (paper Section 7.3): "accounting is needed both for
// discovering buggy clients and for charging properly for resource usage."
// Tracked per settop by the neighborhood connection manager.
struct AccountingRecord {
  uint32_t settop_host = 0;
  uint64_t allocations = 0;       // Lifetime connection grants.
  uint64_t releases = 0;
  uint32_t current_connections = 0;
  uint64_t denied = 0;            // Rejections (bandwidth or count limits).
  double megabit_seconds = 0;     // Integrated reserved bandwidth (charging).

  friend bool operator==(const AccountingRecord&,
                         const AccountingRecord&) = default;
};

inline void WireWrite(wire::Writer& w, const AccountingRecord& a) {
  w.WriteU32(a.settop_host);
  w.WriteU64(a.allocations);
  w.WriteU64(a.releases);
  w.WriteU32(a.current_connections);
  w.WriteU64(a.denied);
  w.WriteDouble(a.megabit_seconds);
}
inline void WireRead(wire::Reader& r, AccountingRecord* a) {
  a->settop_host = r.ReadU32();
  a->allocations = r.ReadU64();
  a->releases = r.ReadU64();
  a->current_connections = r.ReadU32();
  a->denied = r.ReadU64();
  a->megabit_seconds = r.ReadDouble();
}

enum TrunkMethod : uint32_t {
  kTrunkMethodReserve = 1,
  kTrunkMethodRelease = 2,
  kTrunkMethodUsage = 3,
};

struct TrunkUsage {
  int64_t capacity_bps = 0;
  int64_t reserved_bps = 0;

  friend bool operator==(const TrunkUsage&, const TrunkUsage&) = default;
};

inline void WireWrite(wire::Writer& w, const TrunkUsage& u) {
  w.WriteI64(u.capacity_bps);
  w.WriteI64(u.reserved_bps);
}
inline void WireRead(wire::Reader& r, TrunkUsage* u) {
  u->capacity_bps = r.ReadI64();
  u->reserved_bps = r.ReadI64();
}

class CmgrProxy : public rpc::Proxy {
 public:
  using Proxy::Proxy;
  // Allocates `bps` downstream from server to settop. With `allow_partial`,
  // grants whatever remains (variable-bit-rate downloads); otherwise fails
  // with RESOURCE_EXHAUSTED when the full rate is not available.
  Future<ConnectionGrant> Allocate(uint32_t settop_host, uint32_t server_host,
                                   int64_t bps, bool allow_partial) const {
    return rpc::DecodeReply<ConnectionGrant>(Call(
        kCmgrMethodAllocate,
        rpc::EncodeArgs(settop_host, server_host, bps, allow_partial)));
  }
  Future<void> Release(uint64_t connection_id) const {
    return rpc::DecodeEmptyReply(
        Call(kCmgrMethodRelease, rpc::EncodeArgs(connection_id)));
  }
  Future<std::vector<ConnectionGrant>> ListConnections() const {
    return rpc::DecodeReply<std::vector<ConnectionGrant>>(
        Call(kCmgrMethodListConnections, {}));
  }
  Future<void> ApplyReplica(uint8_t op, const ConnectionGrant& grant) const {
    return rpc::DecodeEmptyReply(
        Call(kCmgrMethodApplyReplica, rpc::EncodeArgs(op, grant)));
  }
  Future<AccountingRecord> Accounting(uint32_t settop_host) const {
    return rpc::DecodeReply<AccountingRecord>(
        Call(kCmgrMethodAccounting, rpc::EncodeArgs(settop_host)));
  }
};

class TrunkProxy : public rpc::Proxy {
 public:
  using Proxy::Proxy;
  // Reserves the grant's downstream rate on this server's trunk. The trunk
  // keeps the whole grant: its audit routes a reclaim by the settop host.
  Future<void> Reserve(const ConnectionGrant& grant) const {
    return rpc::DecodeEmptyReply(
        Call(kTrunkMethodReserve, rpc::EncodeArgs(grant)));
  }
  Future<void> Release(uint64_t connection_id) const {
    return rpc::DecodeEmptyReply(
        Call(kTrunkMethodRelease, rpc::EncodeArgs(connection_id)));
  }
  Future<TrunkUsage> Usage() const {
    return rpc::DecodeReply<TrunkUsage>(Call(kTrunkMethodUsage, {}));
  }
};

// --- Trunk replica (per server, multi-active) -------------------------------------

class TrunkService : public rpc::Skeleton {
 public:
  // `server_index` names the MDS on this server (svc/mds/<index + 1>);
  // `neighborhoods` is how many CMgrs may hold grants on it.
  TrunkService(rpc::ObjectRuntime& runtime, Executor& executor,
               naming::NameClient name_client, size_t server_index,
               uint8_t neighborhoods, int64_t capacity_bps,
               Metrics* metrics = nullptr);

  // Exports the object, asks every neighborhood for the grants it holds on
  // this server, and starts the audit loop.
  wire::ObjectRef Start();

  std::string_view interface_name() const override { return kTrunkInterface; }
  void Dispatch(uint32_t method_id, const wire::Bytes& args,
                const rpc::CallContext& ctx, rpc::ReplyFn reply) override;

  int64_t reserved_bps() const { return reserved_bps_; }
  int64_t capacity_bps() const { return capacity_bps_; }

 private:
  struct Reservation {
    ConnectionGrant grant;
    Time reserved_at;
    int misses = 0;  // Consecutive audits no MDS session claimed it.
  };

  // Rebuilds the reservations of a restarted replica (paper Section 10.1:
  // volatile state is rebuilt by querying): each neighborhood's CMgr lists
  // its grants, and those on this server are reserved again. A neighborhood
  // that does not answer is asked again on the next tick.
  void ListGrants();
  // Grant reclamation (paper Section 7.2): a grant whose MDS session died
  // without a release (server crash mid-stream, lost close, a CMgr that died
  // between Reserve and its commit) would pin settop and trunk bandwidth
  // forever. Every tick this server's MDS lists the connection ids its
  // sessions hold; a reservation unclaimed on kGrantMissesToReclaim audits
  // in a row, after a grace for an open still in flight, is released
  // through its neighborhood's CMgr.
  void AuditGrants();
  void Reclaim(const ConnectionGrant& grant);
  void Drop(uint64_t connection_id);

  rpc::ObjectRuntime& runtime_;
  Executor& executor_;
  naming::NameClient name_client_;
  size_t server_index_;
  int64_t capacity_bps_;
  Metrics* metrics_;

  int64_t reserved_bps_ = 0;
  std::map<uint64_t, Reservation> reservations_;
  // Neighborhoods whose grant list has not been read since start.
  std::set<uint8_t> unlisted_;
  rpc::BindingTable bindings_;
  PeriodicTimer audit_timer_;
};

// --- Neighborhood replica (primary/backup with state push) -------------------------

class CmgrService : public rpc::Skeleton {
 public:
  CmgrService(rpc::ObjectRuntime& runtime, Executor& executor,
              naming::NameClient name_client, uint8_t neighborhood,
              Metrics* metrics = nullptr);

  // Exports the object and starts the standby-refresh loop.
  // Election (both the always-won standby registration and the contested
  // neighborhood primary binding) is owned by the launcher's
  // ServiceLifecycles, which drive the hooks below.
  void Start();

  // Promotion hook: the allocation table was kept hot by the primary's state
  // pushes, so there is nothing to recover — just log and count.
  void OnPromoted();
  void AttachLifecycle(const svc::ServiceLifecycle* lifecycle) {
    lifecycle_ = lifecycle;
  }

  bool is_primary() const {
    return lifecycle_ != nullptr && lifecycle_->is_primary();
  }
  wire::ObjectRef ref() const { return ref_; }
  int64_t SettopReservedBps(uint32_t settop_host) const;
  uint32_t SettopConnectionCount(uint32_t settop_host) const;
  AccountingRecord AccountingFor(uint32_t settop_host) const;

  std::string_view interface_name() const override { return kCmgrInterface; }
  void Dispatch(uint32_t method_id, const wire::Bytes& args,
                const rpc::CallContext& ctx, rpc::ReplyFn reply) override;

 private:
  void HandleAllocate(uint32_t settop_host, uint32_t server_host, int64_t bps,
                      bool allow_partial, rpc::ReplyFn reply);
  void HandleRelease(uint64_t connection_id, rpc::ReplyFn reply);
  void ApplyLocal(uint8_t op, const ConnectionGrant& grant);
  void PushToStandbys(uint8_t op, const ConnectionGrant& grant);
  // One state push. A drop (op 2) the standby does not acknowledge is kept
  // in unacked_drops_ and pushed again on each refresh while the standby is
  // listed: a lost drop would leave the grant in the standby's table, and a
  // promotion would hand it to a primary whose trunk holds no reservation
  // for it, where no audit sees it.
  void Push(const wire::ObjectRef& standby, uint8_t op,
            const ConnectionGrant& grant);
  // Re-discovers standby replicas; newly seen standbys receive a full copy
  // of the allocation table so late joiners converge.
  void RefreshStandbys();
  void Count(std::string_view name);

  rpc::ObjectRuntime& runtime_;
  Executor& executor_;
  naming::NameClient name_client_;
  uint8_t neighborhood_;
  Metrics* metrics_;

  wire::ObjectRef ref_;
  const svc::ServiceLifecycle* lifecycle_ = nullptr;

  uint64_t next_connection_id_;
  std::map<uint64_t, ConnectionGrant> connections_;
  // Accounting state: when each connection was granted, and per-settop
  // lifetime tallies (kept only on the replica that processed the ops; a
  // promoted standby restarts charging from takeover — noted in DESIGN.md).
  std::map<uint64_t, Time> granted_at_;
  std::map<uint32_t, AccountingRecord> accounting_;
  // Named bindings (per-server trunk replicas), shared resolve/rebind state.
  rpc::BindingTable bindings_;
  // Standby replica refs (refreshed periodically).
  std::vector<wire::ObjectRef> standbys_;
  // Drops not yet acknowledged, by (standby, connection id).
  std::map<std::pair<wire::ObjectRef, uint64_t>, ConnectionGrant>
      unacked_drops_;
  PeriodicTimer standby_refresh_timer_;
};

}  // namespace itv::media

#endif  // SRC_MEDIA_CMGR_H_
