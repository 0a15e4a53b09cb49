// Media Management Service (paper Sections 3.3-3.5): the broker that opens
// movies. For each open it (Figure 4):
//
//   3. resolves the Connection Manager for the settop's neighborhood,
//   4. chooses an MDS replica "based on where the movie is available and the
//      current loads at servers" and allocates a high-bandwidth connection,
//   5-7. opens the movie on the chosen MDS and returns the movie object,
//   9-10. polls the RAS about the settop and reclaims everything if it dies.
//
// Everything the MMS knows about the MDS replicas is what they said. One sync
// round is one ListRepl("svc/mds") plus one MdsProxy::Sync per replica, whose
// reply carries the replica's titles, its load (with the load sequence) and
// its sessions. A replica that answers is alive; the round refreshes its
// directory entry, takes its load and adopts its sessions. One that does not
// answer, or that ListRepl no longer lists, is not offered to opens. Open
// and Close replies carry the replica's load too, and the newest of all
// three replies is the load the MMS balances with: there is no local
// estimate to reconcile.
// Only the primary runs rounds: one every refresh tick, and the one
// RecoverState runs on winning the binding. Backups send no Sync.
//
// Sessions are keyed by their movie object, the identity the MDS minted for
// the stream: an Open reply and a Sync reply that both describe one stream
// land on one table entry, whichever arrives first.
//
// One stream per viewer: a non-null MediaSink (the settop object the MDS
// delivers to, owned by one VodApp) holds at most one session on a shard.
// An open that completes for a sink already holding a session replaces it:
// the older stream is closed on its MDS and its grant released
// (mms.session_replaced). That reclaims what a live viewer abandoned, such
// as an open its settop timed out on and sent again. A sync round that
// reports a second stream for a held sink closes it if the viewer never
// played it (its ticket was lost); a played one (granted by a sibling shard,
// or by this shard before a fail-over) is the stream the viewer moved to,
// and replaces the held one. A null sink (a viewerless open) holds nothing.
//
// Replication: primary/backup (Section 5.2) with NO replicated state — "the
// volatile state of the MMS can be reconstructed by querying each MDS in the
// cluster and by querying the Connection Manager" (Section 10.1.1). The
// launcher's ServiceLifecycle drives this: RecoverState runs a round on
// winning the binding (before the role turns primary), and that round is the
// only path that fills the table of a replica that was not primary. A backup
// holds no sessions and no watches; demotion empties the table.
//
// MDS replica health (Section 3.5.2): "Once an attempt to open a movie from
// an MDS replica fails, the MMS assumes that the replica is dead. The MMS
// will periodically re-resolve and retry the MDS object reference." A
// rebindable Open error marks the replica dead until a round hears from it.

#ifndef SRC_MEDIA_MMS_H_
#define SRC_MEDIA_MMS_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/executor.h"
#include "src/common/metrics.h"
#include "src/load/admission.h"
#include "src/load/load_board.h"
#include "src/media/cmgr.h"
#include "src/media/mds.h"
#include "src/media/types.h"
#include "src/naming/name_client.h"
#include "src/ras/audit_client.h"
#include "src/rpc/binding_table.h"
#include "src/svc/lifecycle.h"
#include "src/wire/shard_map.h"

namespace itv::media {

inline constexpr std::string_view kMmsInterface = "itv.MediaManagement";
inline constexpr std::string_view kMmsName = "svc/mms";

enum MmsMethod : uint32_t {
  kMmsMethodOpen = 1,
  kMmsMethodClose = 2,
  kMmsMethodListSessions = 3,
  kMmsMethodListSessionHosts = 4,
  kMmsMethodGetAdmission = 5,
};

struct MmsTicket {
  // Non-zero for a granted open (the MDS stream id); the MMS itself keys the
  // session by `movie`.
  uint64_t session_id = 0;
  uint64_t stream_id = 0;
  wire::ObjectRef movie;
  uint32_t mds_host = 0;

  friend bool operator==(const MmsTicket&, const MmsTicket&) = default;
};

inline void WireWrite(wire::Writer& w, const MmsTicket& t) {
  w.WriteU64(t.session_id);
  w.WriteU64(t.stream_id);
  WireWrite(w, t.movie);
  w.WriteU32(t.mds_host);
}
inline void WireRead(wire::Reader& r, MmsTicket* t) {
  t->session_id = r.ReadU64();
  t->stream_id = r.ReadU64();
  WireRead(r, &t->movie);
  t->mds_host = r.ReadU32();
}

class MmsProxy : public rpc::Proxy {
 public:
  using Proxy::Proxy;
  // `sink` is the settop's MediaSink object; `settop_host` defaults to the
  // caller (servers opening on behalf of a settop pass it explicitly).
  Future<MmsTicket> Open(const std::string& title, uint32_t settop_host,
                         const wire::ObjectRef& sink) const {
    return rpc::DecodeReply<MmsTicket>(
        Call(kMmsMethodOpen, rpc::EncodeArgs(title, settop_host, sink)));
  }
  // Close is keyed by the movie object, the MMS's session key: it lives in
  // the MDS, so it stays valid across an MMS fail-over.
  Future<void> Close(const wire::ObjectRef& movie) const {
    return rpc::DecodeEmptyReply(Call(kMmsMethodClose, rpc::EncodeArgs(movie)));
  }
  Future<uint32_t> ListSessions() const {  // Returns the session count.
    return rpc::DecodeReply<uint32_t>(Call(kMmsMethodListSessions, {}));
  }
  // Settop host of every session in the table (one entry per session, so a
  // settop with two sessions appears twice). Lets an auditor check shard
  // ownership — each settop must be held by exactly the shard its host
  // hashes to — without tolerating false positives from workload artifacts
  // the way a bare count comparison would.
  Future<std::vector<uint32_t>> ListSessionHosts() const {
    return rpc::DecodeReply<std::vector<uint32_t>>(
        Call(kMmsMethodListSessionHosts, {}));
  }
  // This shard's admission-controller state (pool, reservations, peak,
  // rejects). Benches and the chaos CheckAdmissionSound invariant audit the
  // per-shard grant budget through it.
  Future<load::AdmissionState> GetAdmission() const {
    return rpc::DecodeReply<load::AdmissionState>(
        Call(kMmsMethodGetAdmission, {}));
  }
};

class MmsService : public rpc::Skeleton {
 public:
  struct Options {
    Duration mds_refresh_interval = Duration::Seconds(5);
    // Shard this instance serves. With a sharded map, fail-over adoption
    // only claims sessions whose settop hashes to this shard — the other
    // shards' primaries own the rest (ROADMAP "Service resharding"). The
    // default (1 shard) is the classic whole-service MMS. The map is NOT
    // fixed for the service's lifetime: a live reshard swaps it through
    // AdoptShardMap below.
    uint32_t shard_index = 0;
    wire::ShardMap shard_map;
    // Per-shard grant budget. 0 (the default) disables shard-level
    // admission; the MDS capacity check then remains the only gate.
    int64_t admission_pool_bps = 0;
  };

  MmsService(rpc::ObjectRuntime& runtime, Executor& executor,
             naming::NameClient name_client, Options options,
             Metrics* metrics = nullptr);
  ~MmsService();

  // Exports the MMS object and starts the refresh tick, which runs a sync
  // round while primary. Election is owned by the launcher's
  // ServiceLifecycle, which drives the hooks below.
  void Start();

  // Lifecycle hooks. RecoverState runs a sync round that adopts every
  // session the MDSes report for this shard, each with its RAS watch; `done`
  // fires when every replica has answered (or failed). OnDemotedRole drops
  // every watch, refunds every admission grant and empties the table: a
  // demoted replica must not reclaim sessions the new primary owns, and a
  // round or an open it started before the demotion keeps nothing when it
  // lands.
  void RecoverState(std::function<void(Status)> done);
  void OnPromoted();
  void OnDemotedRole();

  // Live reshard (ROADMAP "Shard rebalancing"): swap in a newer shard map.
  // Sessions whose settop no longer hashes to this shard are HANDED OFF, not
  // closed: their RAS watches drop and they leave the local table, but the
  // MDS stream keeps playing and the connection grant stays held — the
  // destination shard's primary adopts the still-live session from the MDS
  // through the same rebuild path a promoted standby uses. A primary then
  // immediately rebuilds to pull in sessions that moved TO this shard.
  void AdoptShardMap(const wire::ShardMap& map);
  void AttachLifecycle(const svc::ServiceLifecycle* lifecycle) {
    lifecycle_ = lifecycle;
  }

  bool is_primary() const {
    return lifecycle_ != nullptr && lifecycle_->is_primary();
  }
  // Serves opens and closes: the primary, or a replica driven without a
  // lifecycle (tests that call its hooks directly). Any other replica (it
  // lost its binding, or is still recovering) holds no sessions and no live
  // view of the MDSes, so it answers UNAVAILABLE, as a non-primary CMgr does,
  // and the caller's binding layer resolves the name again.
  bool Serving() const { return lifecycle_ == nullptr || is_primary(); }
  wire::ObjectRef ref() const { return ref_; }
  size_t session_count() const { return sessions_.size(); }
  size_t watch_count() const { return audit_->watch_count(); }
  size_t known_mds_count() const { return mds_.size(); }
  const load::AdmissionController& admission() const { return admission_; }
  // The sample this shard publishes to the cluster load board while primary.
  load::LoadReport LoadSample() const;

  std::string_view interface_name() const override { return kMmsInterface; }
  void Dispatch(uint32_t method_id, const wire::Bytes& args,
                const rpc::CallContext& ctx, rpc::ReplyFn reply) override;

 private:
  struct MdsReplica {
    std::string name;  // Binding name under svc/mds.
    wire::ObjectRef ref;
    bool alive = false;
    std::map<std::string, MovieInfo> titles;
    // The newest load this replica reported, from a Sync, Open or Close
    // reply (AdoptLoad).
    MdsLoad load;
    // Streams this MMS closed that the MDS has not yet acknowledged, and
    // whether that Close is still in flight. A Sync reply written before the
    // close may still list them; the round must not re-adopt them. Once the
    // Close reply lands, its load sequence makes every such reply stale. A
    // Close that failed may never have reached the MDS: the stream stays
    // here, and a round that still sees it sends the Close again.
    std::map<uint64_t, bool> closing;

    // Takes `reported` if it is newer than `load`.
    void AdoptLoad(const MdsLoad& reported);
  };

  struct Session {
    uint32_t settop_host = 0;
    std::string mds_name;
    uint64_t stream_id = 0;
    wire::ObjectRef mds_ref;
    ConnectionGrant connection;
    wire::ObjectRef sink;
    ras::AuditClient::WatchId watch = 0;
  };
  using SessionTable = std::map<wire::ObjectRef, Session>;

  // One sync round (see the header comment): `done` (optional) fires once
  // every replica has answered or failed. A round that a demotion overtook
  // still refreshes liveness, titles and load, but adopts no sessions.
  void SyncRound(std::function<void(Status)> done);
  // Marks the replica alive and, unless a newer reply already landed,
  // refreshes its titles and load from `sync`, and its sessions too when
  // `adopt` is set.
  void ApplySync(MdsReplica& replica, const MdsSync& sync, bool adopt);
  // Bitrate of `title` per the freshest live inventory, or 0 if unknown.
  int64_t BitrateOf(const std::string& title) const;
  // Candidates able to serve `title` now, best (least loaded) first.
  // `saw_title` (optional) reports whether any live replica holds the title
  // at all (distinguishes catalog misses from capacity exhaustion).
  std::vector<MdsReplica*> CandidatesFor(const std::string& title,
                                         bool* saw_title = nullptr);

  void HandleOpen(const std::string& title, uint32_t settop_host,
                  const wire::ObjectRef& sink, rpc::ReplyFn reply);
  void TryOpenOn(std::vector<MdsReplica*> candidates, size_t index,
                 const std::string& title, uint32_t settop_host,
                 const wire::ObjectRef& sink, rpc::ReplyFn reply);
  void FinishOpen(MdsReplica* replica, const std::string& title,
                  uint32_t settop_host, const wire::ObjectRef& sink,
                  const ConnectionGrant& grant,
                  std::vector<MdsReplica*> candidates, size_t index,
                  rpc::ReplyFn reply);
  void HandleClose(const wire::ObjectRef& movie, rpc::ReplyFn reply);
  // Files a session just inserted under `movie` in the sink index; a session
  // its sink held before is reclaimed.
  void IndexSink(const wire::ObjectRef& movie, const wire::ObjectRef& sink);
  // Removes a session from the table and the sink index.
  Session TakeSession(SessionTable::iterator it);
  void ReclaimSession(const wire::ObjectRef& movie, bool tell_mds);
  // Sends the MDS Close for a stream in `replica.closing`.
  void CloseOnMds(MdsReplica& replica, uint64_t stream_id);
  // Registers the RAS watch that reclaims `session` when its settop dies.
  void WatchSettop(Session& session);
  void OnSettopDead(uint32_t settop_host);
  void AdoptSessions(MdsReplica& replica,
                     const std::vector<SessionInfo>& sessions);

  // Drops every session this shard no longer owns under the current map
  // (watch removed, table entry erased, MDS stream and grant untouched).
  // Returns the number handed off.
  size_t DrainMovedSessions();

  rpc::BoundClient<CmgrProxy> CmgrFor(uint8_t neighborhood);
  // Returns a grant to the settop's neighborhood CMgr, retrying through its
  // fail-over: a dropped Release holds the settop's bandwidth until the grant
  // audit, which needs the serving MDS to answer.
  void ReleaseGrant(const ConnectionGrant& grant);
  bool OwnsSettop(uint32_t settop_host) const {
    return wire::ShardOf(settop_host, options_.shard_map) ==
           options_.shard_index;
  }
  void Count(std::string_view name);

  rpc::ObjectRuntime& runtime_;
  Executor& executor_;
  naming::NameClient name_client_;
  Options options_;
  Metrics* metrics_;

  wire::ObjectRef ref_;
  const svc::ServiceLifecycle* lifecycle_ = nullptr;
  // Bumped by OnDemotedRole. A sync round or an open captures it at its
  // start and keeps sessions only if no demotion happened since.
  uint64_t role_epoch_ = 0;
  std::unique_ptr<ras::AuditClient> audit_;
  std::map<std::string, MdsReplica> mds_;
  // Keyed by the stream's movie object.
  SessionTable sessions_;
  // Sink -> movie of the one session that sink holds (non-null sinks only).
  std::map<wire::ObjectRef, wire::ObjectRef> sink_sessions_;
  // Per-neighborhood connection managers (svc/cmgr/<nb>).
  rpc::BindingTable bindings_;
  // Per-shard grant budget (disabled unless Options::admission_pool_bps set).
  load::AdmissionController admission_;
  PeriodicTimer refresh_timer_;
};

}  // namespace itv::media

#endif  // SRC_MEDIA_MMS_H_
