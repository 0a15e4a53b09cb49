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
// The passive backups hold nothing. Each trunk replica keeps the whole grant
// of every reservation on its server, so a replica that wins its
// neighborhood's binding rebuilds the allocation table from the live trunks
// before it serves (Section 10.1: volatile state is rebuilt by querying). The
// per-server trunk replica audits the grants reserved on its server against
// that server's MDS and reclaims the ones no session claims, so the audit
// costs one host-local call per server however many neighborhoods there are.

#ifndef SRC_MEDIA_CMGR_H_
#define SRC_MEDIA_CMGR_H_

#include <functional>
#include <map>
#include <set>
#include <string>
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
//   svc/cmgrtrunk/<host>         the per-server trunk replica
inline constexpr std::string_view kTrunkContext = "svc/cmgrtrunk";
inline std::string CmgrName(uint8_t neighborhood) {
  return "svc/cmgr/" + std::to_string(neighborhood);
}
inline std::string TrunkName(uint32_t server_host) {
  return std::string(kTrunkContext) + "/" + std::to_string(server_host);
}

enum CmgrMethod : uint32_t {
  kCmgrMethodAllocate = 1,
  kCmgrMethodRelease = 2,
  kCmgrMethodListConnections = 3,
  // Ids 4 (the retired standby state push) and 5 (the retired per-settop
  // usage read) stay unassigned.
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
  kTrunkMethodListGrants = 4,
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
  // The grants reserved here whose settop is in `neighborhood`.
  Future<std::vector<ConnectionGrant>> ListGrants(
      uint8_t neighborhood, const rpc::CallOptions& options = {}) const {
    return rpc::DecodeReply<std::vector<ConnectionGrant>>(Call(
        kTrunkMethodListGrants, rpc::EncodeArgs(neighborhood), options));
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

// --- Neighborhood replica (primary/backup, rebuilt on promotion) ------------------

class CmgrService : public rpc::Skeleton {
 public:
  CmgrService(rpc::ObjectRuntime& runtime, Executor& executor,
              naming::NameClient name_client, uint8_t neighborhood,
              Metrics* metrics = nullptr);

  // Exports the object. The election for the neighborhood's primary binding
  // is owned by the launcher's ServiceLifecycle, which drives the hooks
  // below.
  void Start();

  // Recovery hook, run on winning the binding: replaces the allocation
  // table with the grants the live trunk replicas hold for this
  // neighborhood. A trunk that does not answer within the call timeout is
  // skipped: its server's streams died with it, or, if it is only cut off,
  // its own audit releases the grants this table lacks (NOT_FOUND, then it
  // drops them). Rebuilt grants are charged from takeover.
  void RecoverState(std::function<void(Status)> done);
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
  // A grant and when it was charged from: its commit, or the takeover of
  // the replica that rebuilt it.
  struct Connection {
    ConnectionGrant grant;
    Time granted_at;
  };

  double MegabitSeconds(const Connection& c) const;
  void HandleAllocate(uint32_t settop_host, uint32_t server_host, int64_t bps,
                      bool allow_partial, rpc::ReplyFn reply);
  void HandleRelease(uint64_t connection_id, rpc::ReplyFn reply);
  void Count(std::string_view name);

  rpc::ObjectRuntime& runtime_;
  Executor& executor_;
  naming::NameClient name_client_;
  uint8_t neighborhood_;
  Metrics* metrics_;

  wire::ObjectRef ref_;
  const svc::ServiceLifecycle* lifecycle_ = nullptr;

  uint64_t next_connection_id_;
  std::map<uint64_t, Connection> connections_;
  // Per-settop lifetime tallies, kept only on the replica that processed the
  // ops (a promoted replica starts them afresh — noted in DESIGN.md).
  std::map<uint32_t, AccountingRecord> accounting_;
  // Named bindings (per-server trunk replicas), shared resolve/rebind state.
  rpc::BindingTable bindings_;
};

}  // namespace itv::media

#endif  // SRC_MEDIA_CMGR_H_
