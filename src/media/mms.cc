#include "src/media/mms.h"

#include <algorithm>
#include <utility>

#include "src/common/address.h"
#include "src/common/logging.h"

namespace itv::media {

namespace {

// Paper Figure 4 step 10 / Section 9.7: the MMS polls the RAS about settops
// that hold open movies.
constexpr Duration kRasPollInterval = Duration::Seconds(10);
constexpr Duration kRpcTimeout = Duration::Seconds(2);
// A Release's attempts: with the binding layer's back-off and the 30 s call
// budget they span a CMgr standby's takeover (at most 25 s on the paper's
// clocks).
constexpr int kReleaseAttempts = 10;

}  // namespace

MmsService::MmsService(rpc::ObjectRuntime& runtime, Executor& executor,
                       naming::NameClient name_client, Options options,
                       Metrics* metrics)
    : runtime_(runtime),
      executor_(executor),
      name_client_(std::move(name_client)),
      options_(options),
      metrics_(metrics),
      bindings_(runtime, name_client_.PathResolverFn()),
      admission_({.pool_bps = options.admission_pool_bps}) {}

MmsService::~MmsService() = default;

void MmsService::Start() {
  ref_ = runtime_.Export(this);
  ras::AuditClient::Options audit_opts;
  audit_opts.poll_interval = kRasPollInterval;
  audit_opts.rpc_timeout = kRpcTimeout;
  audit_ = std::make_unique<ras::AuditClient>(
      runtime_, executor_, ras::RasRefAt(runtime_.local_endpoint().host),
      audit_opts);

  refresh_timer_.Start(executor_, options_.mds_refresh_interval, [this] {
    if (!is_primary()) {
      return;  // Backups send no Sync: promotion's RecoverState rebuilds.
    }
    // Sessions opened here by stale-map clients during a reshard cutover
    // (wrong-shard opens) migrate to the owning shard on the next tick.
    DrainMovedSessions();
    // Besides refreshing titles, load and liveness, the round re-adopts
    // sessions the MDSes hold that this primary does not know about — opens
    // whose ticket reply was lost mid-flight. Promotion-time recovery only
    // covers orphans created before THIS tenure; these are created during
    // it. Adoption registers the settop watch so a later settop death
    // releases them; an orphan whose viewer holds another stream is closed
    // by the one-stream-per-sink rule (AdoptSessions).
    SyncRound(nullptr);
  });
}

void MmsService::RecoverState(std::function<void(Status)> done) {
  SyncRound(std::move(done));
}

void MmsService::OnPromoted() {
  ITV_LOG(Info) << "mms@" << runtime_.local_endpoint().ToString()
                << ": became primary with " << sessions_.size() << " sessions";
  Count("mms.became_primary");
}

void MmsService::OnDemotedRole() {
  // A demoted replica keeps nothing. Its watches go first: observing a settop
  // death, it must not race the new primary to reclaim the session's
  // resources. The MDS streams and connection grants stay held for the new
  // primary to adopt; only this shard's admission grants are refunded. The
  // epoch bump keeps a sync round still in flight from re-adopting them.
  ++role_epoch_;
  for (auto& [movie, session] : sessions_) {
    audit_->Unwatch(session.watch);
    admission_.Release(session.connection.downstream_bps);
  }
  sessions_.clear();
  sink_sessions_.clear();
}

// --- Live reshard -------------------------------------------------------------

void MmsService::AdoptShardMap(const wire::ShardMap& map) {
  if (map.version <= options_.shard_map.version) {
    return;  // Versions only move forward (mirrors the router's adoption).
  }
  options_.shard_map = map;
  size_t moved = DrainMovedSessions();
  ITV_LOG(Info) << "mms@" << runtime_.local_endpoint().ToString() << " shard "
                << options_.shard_index + 1 << ": adopted map v" << map.version
                << " (" << map.shard_count << " shards), handed off " << moved
                << " sessions";
  if (is_primary()) {
    // Pull sessions that moved TO this shard without waiting for the refresh
    // tick: their MDS streams are live and the source shard has already
    // stopped watching them.
    SyncRound(nullptr);
  }
}

size_t MmsService::DrainMovedSessions() {
  std::vector<wire::ObjectRef> moved;
  for (const auto& [movie, session] : sessions_) {
    if (!OwnsSettop(session.settop_host)) {
      moved.push_back(movie);
    }
  }
  for (const wire::ObjectRef& movie : moved) {
    // Hand off, do not reclaim: the watch drops and the entry leaves the
    // table, but the MDS stream keeps playing and the connection grant stays
    // held for the destination shard's primary to adopt.
    Session session = TakeSession(sessions_.find(movie));
    audit_->Unwatch(session.watch);
    admission_.Release(session.connection.downstream_bps);
    Count("mms.session_handoff");
  }
  return moved.size();
}

// --- MDS directory -------------------------------------------------------------

void MmsService::MdsReplica::AdoptLoad(const MdsLoad& reported) {
  if (reported.seq > load.seq) {
    load = reported;
  }
}

int64_t MmsService::BitrateOf(const std::string& title) const {
  for (const auto& [name, replica] : mds_) {
    auto it = replica.titles.find(title);
    if (it != replica.titles.end()) {
      return it->second.bitrate_bps;
    }
  }
  return 0;
}

void MmsService::SyncRound(std::function<void(Status)> done) {
  uint64_t epoch = role_epoch_;
  name_client_.ListRepl("svc/mds").OnReady([this, epoch, done](
                                               const Result<naming::BindingList>&
                                                   r) {
    if (!r.ok()) {
      if (done) {
        done(r.status());
      }
      return;
    }
    std::vector<naming::Binding> replicas;
    std::set<std::string> listed;
    for (const naming::Binding& binding : *r) {
      if (IsMdsReplica(binding)) {
        replicas.push_back(binding);
        listed.insert(binding.name);
      }
    }
    // A replica the name service no longer lists is not offered: its server
    // died and the audit unbound it, so no round will send it a Sync that
    // fails. Its trunk is unbound too, and an open there could only fail.
    for (auto& [name, replica] : mds_) {
      if (listed.count(name) == 0) {
        replica.alive = false;
      }
    }
    if (replicas.empty()) {
      if (done) {
        done(OkStatus());
      }
      return;
    }
    // Completion fires once every replica has answered or timed out; an
    // unreachable MDS is not alive and contributes no sessions (its streams
    // died with it).
    auto pending = std::make_shared<size_t>(replicas.size());
    for (const naming::Binding& binding : replicas) {
      MdsReplica& replica = mds_[binding.name];
      if (replica.ref != binding.ref) {
        // New incarnation bound (restart): nothing of the old one carries
        // over — its load sequence, closes in flight and titles died with
        // it.
        replica = MdsReplica{};
        replica.name = binding.name;
        replica.ref = binding.ref;
      }
      rpc::CallOptions opts;
      opts.timeout = kRpcTimeout;
      MdsProxy(runtime_, binding.ref)
          .Sync(opts)
          .OnReady([this, name = binding.name, ref = binding.ref, epoch,
                    pending, done](const Result<MdsSync>& sync) {
            auto it = mds_.find(name);
            if (it != mds_.end() && it->second.ref == ref) {
              if (sync.ok()) {
                ApplySync(it->second, *sync, epoch == role_epoch_);
              } else {
                it->second.alive = false;
              }
            }
            if (--*pending == 0 && done) {
              done(OkStatus());
            }
          });
    }
  });
}

void MmsService::ApplySync(MdsReplica& replica, const MdsSync& sync,
                           bool adopt) {
  replica.alive = true;
  if (sync.load.seq < replica.load.seq) {
    // Overtaken by a newer reply (two rounds in flight): its load and
    // sessions describe the past.
    Count("mms.sync_stale");
    return;
  }
  replica.titles.clear();
  for (const MovieInfo& movie : sync.titles) {
    replica.titles[movie.title] = movie;
  }
  replica.load = sync.load;
  if (adopt) {
    AdoptSessions(replica, sync.sessions);
  }
}

std::vector<MmsService::MdsReplica*> MmsService::CandidatesFor(
    const std::string& title, bool* saw_title) {
  std::vector<MdsReplica*> candidates;
  for (auto& [name, replica] : mds_) {
    if (!replica.alive) {
      continue;
    }
    auto movie = replica.titles.find(title);
    if (movie == replica.titles.end()) {
      continue;
    }
    if (saw_title != nullptr) {
      *saw_title = true;
    }
    if (replica.load.reserved_bps + movie->second.bitrate_bps >
        replica.load.capacity_bps) {
      continue;  // No disk/NIC bandwidth left on that server.
    }
    candidates.push_back(&replica);
  }
  // "based on... the current loads at servers": least reserved first.
  std::sort(candidates.begin(), candidates.end(),
            [](const MdsReplica* a, const MdsReplica* b) {
              return a->load.reserved_bps < b->load.reserved_bps;
            });
  return candidates;
}

// --- Open ------------------------------------------------------------------------

rpc::BoundClient<CmgrProxy> MmsService::CmgrFor(uint8_t neighborhood) {
  rpc::BindingOptions opts = rpc::BindingTable::DefaultOptions();
  opts.max_attempts = 2;
  return bindings_.Bind<CmgrProxy>(CmgrName(neighborhood), opts);
}

void MmsService::ReleaseGrant(const ConnectionGrant& grant) {
  rpc::BindingOptions opts = rpc::BindingTable::DefaultOptions();
  opts.max_attempts = kReleaseAttempts;
  uint8_t neighborhood = NeighborhoodOfHost(grant.settop_host);
  bindings_.Bind<CmgrProxy>(CmgrName(neighborhood), opts)
      .Call<void>(
          [connection_id = grant.connection_id](const CmgrProxy& cmgr) {
            return cmgr.Release(connection_id);
          },
          [](Result<void>) {});
}

void MmsService::HandleOpen(const std::string& title, uint32_t settop_host,
                            const wire::ObjectRef& sink, rpc::ReplyFn reply) {
  Count("mms.open");
  if (!IsSettopHost(settop_host)) {
    return rpc::ReplyError(reply,
                           InvalidArgumentError("open requires a settop host"));
  }
  if (!OwnsSettop(settop_host)) {
    // Served anyway: during a reshard cutover clients route by maps up to
    // map_max_age stale, so wrong-shard opens are expected for a window. The
    // refresh tick hands the session off to the owning shard (drain below);
    // outside a cutover a nonzero rate means some client routes with the
    // wrong map or salt.
    Count("mms.open_wrong_shard");
  }
  int64_t bitrate_bps = BitrateOf(title);
  if (admission_.enabled() && bitrate_bps > 0) {
    Status admitted = admission_.TryAdmit(bitrate_bps);
    if (!admitted.ok()) {
      // Fast-fail shed: the settop's open path retries against the
      // least-loaded sibling shard off the load board (vod_app).
      Count("mms.admission_shed");
      return rpc::ReplyError(reply, admitted);
    }
    // The grant travels with the reply: every error path refunds it; success
    // hands it to the session (refunded when the session leaves the table).
    reply = [this, bitrate_bps, inner = std::move(reply)](Status s,
                                                          wire::Bytes bytes) {
      if (!s.ok()) {
        admission_.Release(bitrate_bps);
      }
      inner(std::move(s), std::move(bytes));
    };
  }
  bool saw_title = false;
  std::vector<MdsReplica*> candidates = CandidatesFor(title, &saw_title);
  if (candidates.empty()) {
    Count("mms.open_no_replica");
    if (saw_title) {
      // The movie exists but every replica holding it is out of streaming
      // capacity: an admission failure, not a catalog miss.
      return rpc::ReplyError(reply, ResourceExhaustedError(
                                        "all replicas of " + title + " are full"));
    }
    return rpc::ReplyError(
        reply, NotFoundError("no live MDS replica can serve " + title));
  }
  TryOpenOn(std::move(candidates), 0, title, settop_host, sink, std::move(reply));
}

void MmsService::TryOpenOn(std::vector<MdsReplica*> candidates, size_t index,
                           const std::string& title, uint32_t settop_host,
                           const wire::ObjectRef& sink, rpc::ReplyFn reply) {
  if (index >= candidates.size()) {
    Count("mms.open_exhausted");
    return rpc::ReplyError(
        reply, UnavailableError("all candidate MDS replicas failed for " + title));
  }
  MdsReplica* replica = candidates[index];
  int64_t bitrate_bps = replica->titles[title].bitrate_bps;
  uint32_t mds_host = replica->ref.endpoint.host;
  uint8_t neighborhood = NeighborhoodOfHost(settop_host);

  // Step 4: allocate the high-bandwidth connection for the chosen server.
  CmgrFor(neighborhood)
      .Call<ConnectionGrant>(
          [mds_host, settop_host, bitrate_bps](const CmgrProxy& cmgr) {
            return cmgr.Allocate(settop_host, mds_host, bitrate_bps,
                                 /*allow_partial=*/false);
          },
          [this, candidates = std::move(candidates), index, title, settop_host,
           sink, reply, replica](Result<ConnectionGrant> grant) mutable {
            if (!grant.ok()) {
              Count("mms.cmgr_denied");
              ITV_LOG(Info) << "mms: open '" << title << "' for settop "
                            << settop_host << ": cmgr allocate failed: "
                            << grant.status().ToString();
              return rpc::ReplyError(reply, grant.status());
            }
            FinishOpen(replica, title, settop_host, sink, *grant,
                       std::move(candidates), index, std::move(reply));
          });
}

void MmsService::FinishOpen(MdsReplica* replica, const std::string& title,
                            uint32_t settop_host, const wire::ObjectRef& sink,
                            const ConnectionGrant& grant,
                            std::vector<MdsReplica*> candidates, size_t index,
                            rpc::ReplyFn reply) {
  // Step 6: open the movie on the chosen MDS replica.
  MdsProxy mds(runtime_, replica->ref);
  std::string mds_name = replica->name;
  wire::ObjectRef mds_ref = replica->ref;
  uint64_t epoch = role_epoch_;
  mds.Open(title, settop_host, grant, sink)
      .OnReady([this, mds_name, mds_ref, title, settop_host, sink, grant,
                candidates = std::move(candidates), index, epoch,
                reply](const Result<MovieTicket>& ticket) mutable {
        if (!ticket.ok()) {
          // Release the connection and handle the replica failure per
          // Section 3.5.2: rebindable errors mark the replica dead and the
          // next candidate is tried.
          ReleaseGrant(grant);
          if (rpc::IsRebindable(ticket.status())) {
            auto it = mds_.find(mds_name);
            if (it != mds_.end() && it->second.ref == mds_ref) {
              it->second.alive = false;
              Count("mms.mds_marked_dead");
            }
            return TryOpenOn(std::move(candidates), index + 1, title,
                             settop_host, sink, std::move(reply));
          }
          return rpc::ReplyError(reply, ticket.status());
        }

        auto replica = mds_.find(mds_name);
        if (replica != mds_.end() && replica->second.ref == mds_ref) {
          replica->second.AdoptLoad(ticket->load);
        }
        if (epoch != role_epoch_) {
          // Demoted while the open was in flight: the viewer still gets its
          // ticket, but a demoted replica keeps nothing. The new primary's
          // sync adopts the stream (and its grant) from the MDS.
          admission_.Release(grant.downstream_bps);
          Count("mms.open_after_demotion");
        } else if (auto [it, inserted] = sessions_.try_emplace(ticket->movie);
                   inserted) {
          Session& session = it->second;
          session.settop_host = settop_host;
          session.mds_name = mds_name;
          session.mds_ref = mds_ref;
          session.stream_id = ticket->stream_id;
          session.connection = grant;
          session.sink = sink;
          // Step 9-10: watch the settop through the RAS; reclaim on death.
          WatchSettop(session);
          // The viewer's newest open wins: a stream its sink still held was
          // abandoned (a timed-out open sent again, a reopen whose Close has
          // not landed yet).
          IndexSink(ticket->movie, sink);
        } else {
          // A sync reply that overtook this one already adopted (and
          // watched) the stream and charged admission for it: this open's
          // grant is a duplicate.
          admission_.Release(grant.downstream_bps);
          Count("mms.open_overtaken");
        }
        Count("mms.open_ok");

        MmsTicket out;
        out.session_id = ticket->stream_id;
        out.stream_id = ticket->stream_id;
        out.movie = ticket->movie;
        out.mds_host = mds_ref.endpoint.host;
        rpc::ReplyWith(reply, out);
      });
}

// --- Close / reclamation -----------------------------------------------------------

void MmsService::HandleClose(const wire::ObjectRef& movie, rpc::ReplyFn reply) {
  if (sessions_.count(movie) == 0) {
    return rpc::ReplyError(reply, NotFoundError("unknown movie session"));
  }
  ReclaimSession(movie, /*tell_mds=*/true);
  Count("mms.close");
  return rpc::ReplyOk(reply);
}

void MmsService::IndexSink(const wire::ObjectRef& movie,
                           const wire::ObjectRef& sink) {
  if (sink.is_null()) {
    return;
  }
  auto [entry, fresh] = sink_sessions_.try_emplace(sink, movie);
  if (fresh) {
    return;
  }
  wire::ObjectRef held = entry->second;
  entry->second = movie;
  ReclaimSession(held, /*tell_mds=*/true);
  Count("mms.session_replaced");
}

MmsService::Session MmsService::TakeSession(SessionTable::iterator it) {
  auto entry = sink_sessions_.find(it->second.sink);
  if (entry != sink_sessions_.end() && entry->second == it->first) {
    sink_sessions_.erase(entry);
  }
  Session session = std::move(it->second);
  sessions_.erase(it);
  return session;
}

void MmsService::ReclaimSession(const wire::ObjectRef& movie, bool tell_mds) {
  auto it = sessions_.find(movie);
  if (it == sessions_.end()) {
    return;
  }
  Session session = TakeSession(it);
  audit_->Unwatch(session.watch);

  admission_.Release(session.connection.downstream_bps);

  if (tell_mds) {
    // The freed load shows once the Close reply (or a later sync) reports
    // it. Until that reply lands the stream is `closing`, which keeps a sync
    // reply written before the close from re-adopting it. A replica entry
    // rebuilt for a new incarnation needs no close: the stream died with the
    // old one.
    auto replica = mds_.find(session.mds_name);
    if (replica != mds_.end() && replica->second.ref == session.mds_ref) {
      CloseOnMds(replica->second, session.stream_id);
    }
  }
  // "...and tells the connection manager to deallocate network bandwidth."
  ReleaseGrant(session.connection);
}

void MmsService::CloseOnMds(MdsReplica& replica, uint64_t stream_id) {
  replica.closing[stream_id] = true;
  // "it tells the MDS to deallocate movie resources" (Section 3.4.5).
  MdsProxy(runtime_, replica.ref)
      .Close(stream_id)
      .OnReady([this, mds_name = replica.name, mds_ref = replica.ref,
                stream_id](const Result<MdsLoad>& load) {
        auto it = mds_.find(mds_name);
        if (it == mds_.end() || it->second.ref != mds_ref) {
          return;  // Replica entry rebuilt; its closing set died with it.
        }
        if (!load.ok()) {
          // Lost on the way there or back: the next round that still sees
          // the stream sends the Close again.
          it->second.closing[stream_id] = false;
          return;
        }
        it->second.closing.erase(stream_id);
        it->second.AdoptLoad(*load);
      });
}

void MmsService::WatchSettop(Session& session) {
  session.watch = audit_->Watch(
      ras::EntityId::Settop(session.settop_host),
      [this, host = session.settop_host](const ras::EntityId&) {
        OnSettopDead(host);
      });
}

void MmsService::OnSettopDead(uint32_t settop_host) {
  Count("mms.settop_reclaim");
  ITV_LOG(Info) << "mms: settop " << settop_host
                << " reported dead; reclaiming its sessions";
  std::vector<wire::ObjectRef> doomed;
  for (const auto& [movie, session] : sessions_) {
    if (session.settop_host == settop_host) {
      doomed.push_back(movie);
    }
  }
  for (const wire::ObjectRef& movie : doomed) {
    ReclaimSession(movie, /*tell_mds=*/true);
  }
}

// --- Session adoption ---------------------------------------------------------

void MmsService::AdoptSessions(MdsReplica& replica,
                               const std::vector<SessionInfo>& sessions) {
  std::set<wire::ObjectRef> reported;
  std::set<uint64_t> reported_streams;
  for (const SessionInfo& info : sessions) {
    reported.insert(info.movie);
    reported_streams.insert(info.stream_id);
  }
  // A closing stream the reply no longer lists is closed, whatever became
  // of its Close reply.
  std::erase_if(replica.closing, [&reported_streams](const auto& entry) {
    return reported_streams.count(entry.first) == 0;
  });
  // Drop sessions of this replica the reply does not list: the stream closed
  // through another shard (a sibling-opened session closed before its
  // handoff), the MDS reclaimed it, or the MDS restarted. The reply is at
  // least as new as every such session, since ApplySync drops replies older
  // than the replica's load. Reclaiming it releases its connection.
  std::vector<wire::ObjectRef> gone;
  for (const auto& [movie, session] : sessions_) {
    if (session.mds_name == replica.name && reported.count(movie) == 0) {
      gone.push_back(movie);
    }
  }
  for (const wire::ObjectRef& movie : gone) {
    ReclaimSession(movie, /*tell_mds=*/false);
    Count("mms.session_gone_reclaimed");
  }
  for (const SessionInfo& info : sessions) {
    auto closing = replica.closing.find(info.stream_id);
    if (closing != replica.closing.end()) {
      // We closed it after the MDS wrote this reply, or our Close failed;
      // re-adopting it would leave a session whose settop watch never fires.
      Count("mms.session_closing_skipped");
      if (!closing->second) {
        Count("mms.close_resent");
        CloseOnMds(replica, info.stream_id);
      }
      continue;
    }
    if (!OwnsSettop(info.settop_host)) {
      // Another shard's primary owns this settop's sessions; adopting it
      // here would double-watch (and double-reclaim) across shards.
      continue;
    }
    if (sessions_.count(info.movie) != 0) {
      continue;
    }
    if (!info.played && !info.sink.is_null() &&
        sink_sessions_.count(info.sink) != 0) {
      // The sink holds another stream and its viewer never played this one:
      // this one's ticket was lost, or the viewer moved on first. Close it.
      Count("mms.session_replaced");
      CloseOnMds(replica, info.stream_id);
      ReleaseGrant(info.connection);
      continue;
    }
    Session& session = sessions_[info.movie];
    session.settop_host = info.settop_host;
    session.mds_name = replica.name;
    session.mds_ref = replica.ref;
    session.stream_id = info.stream_id;
    session.connection = info.connection;
    session.sink = info.sink;
    // Admitted elsewhere (a previous primary's tenure or another shard);
    // its stream is live, so account it without re-judging the pool.
    admission_.Adopt(info.connection.downstream_bps);
    WatchSettop(session);
    Count("mms.session_adopted");
    // A played stream replaces what its sink held: usually the stream the
    // viewer left for this one, and if not, the viewer's next open wins.
    IndexSink(info.movie, info.sink);
  }
}

// --- Dispatch ---------------------------------------------------------------------

void MmsService::Dispatch(uint32_t method_id, const wire::Bytes& args,
                          const rpc::CallContext& ctx, rpc::ReplyFn reply) {
  switch (method_id) {
    case kMmsMethodOpen: {
      std::string title;
      uint32_t settop_host = 0;
      wire::ObjectRef sink;
      if (!rpc::DecodeArgs(args, &title, &settop_host, &sink)) {
        return rpc::ReplyBadArgs(reply);
      }
      if (settop_host == 0) {
        settop_host = ctx.caller_endpoint.host;
      }
      if (!Serving()) {
        return rpc::ReplyError(
            reply, UnavailableError("not the primary MMS replica"));
      }
      return HandleOpen(title, settop_host, sink, std::move(reply));
    }
    case kMmsMethodClose: {
      wire::ObjectRef movie;
      if (!rpc::DecodeArgs(args, &movie)) {
        return rpc::ReplyBadArgs(reply);
      }
      if (!Serving()) {
        return rpc::ReplyError(
            reply, UnavailableError("not the primary MMS replica"));
      }
      return HandleClose(movie, std::move(reply));
    }
    case kMmsMethodListSessions:
      return rpc::ReplyWith(reply, static_cast<uint32_t>(sessions_.size()));
    case kMmsMethodListSessionHosts: {
      std::vector<uint32_t> hosts;
      hosts.reserve(sessions_.size());
      for (const auto& [movie, session] : sessions_) {
        hosts.push_back(session.settop_host);
      }
      return rpc::ReplyWith(reply, hosts);
    }
    case kMmsMethodGetAdmission: {
      load::AdmissionState state;
      state.pool_bps = admission_.pool_bps();
      state.reserved_bps = admission_.reserved_bps();
      state.peak_granted_bps = admission_.peak_granted_bps();
      state.rejects = admission_.rejects();
      state.shedding = admission_.shedding();
      return rpc::ReplyWith(reply, state);
    }
    default:
      return rpc::ReplyBadMethod(reply, method_id);
  }
}

load::LoadReport MmsService::LoadSample() const {
  load::LoadReport report;
  report.active_streams = static_cast<uint32_t>(sessions_.size());
  report.reserved_bps = admission_.reserved_bps();
  report.capacity_bps = admission_.pool_bps();
  report.admission_rejects = admission_.rejects();
  return report;
}

void MmsService::Count(std::string_view name) {
  if (metrics_ != nullptr) {
    metrics_->Add(name);
  }
}

}  // namespace itv::media
