#include "src/naming/name_server.h"

#include <utility>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/common/trace.h"

namespace itv::naming {

namespace {
constexpr int kMaxResolveDepth = 16;
}  // namespace

// --- Skeletons ---------------------------------------------------------------

// One exported object per context (paper Section 9.2). Operations are
// relative to this context; updates are rewritten to absolute paths before
// being forwarded for replication.
class NameServer::ContextSkeleton : public rpc::Skeleton {
 public:
  ContextSkeleton(NameServer& server, ContextTree::Node* node, Name abs_path)
      : server_(server), node_(node), abs_path_(std::move(abs_path)) {}

  std::string_view interface_name() const override {
    return kNamingContextInterface;
  }

  void Dispatch(uint32_t method_id, const wire::Bytes& args,
                const rpc::CallContext& ctx, rpc::ReplyFn reply) override {
    Name name;
    if (!rpc::DecodeArgs(args, &name) &&
        method_id != kNcMethodBind) {  // Bind has a second arg; re-decoded below.
      return rpc::ReplyBadArgs(reply);
    }
    uint32_t caller_host = ctx.caller_endpoint.host;

    switch (method_id) {
      case kNcMethodResolve:
        server_.Count("ns.resolve");
        if (server_.runtime_.tracer() != nullptr) {
          server_.runtime_.tracer()->Instant(ctx.trace, "ns.resolve",
                                             JoinPath(name));
        }
        server_.ResolveFrom(node_, name, 0, caller_host, 0,
                            [reply](Result<wire::ObjectRef> r) {
                              if (!r.ok()) {
                                return rpc::ReplyError(reply, r.status());
                              }
                              rpc::ReplyWith(reply, *r);
                            });
        return;

      case kNcMethodBind: {
        wire::ObjectRef obj;
        if (!rpc::DecodeArgs(args, &name, &obj)) {
          return rpc::ReplyBadArgs(reply);
        }
        SubmitRelative(NameOp::kBind, name, obj, reply);
        return;
      }
      case kNcMethodUnbind:
        SubmitRelative(NameOp::kUnbind, name, {}, reply);
        return;
      case kNcMethodBindNewContext:
        SubmitRelative(NameOp::kBindNewContext, name, {}, reply);
        return;
      case kNcMethodBindReplContext:
        SubmitRelative(NameOp::kBindReplContext, name, {}, reply);
        return;

      case kNcMethodList:
        server_.ListWithSelector(node_, name, caller_host,
                                 [reply](Result<BindingList> r) {
                                   if (!r.ok()) {
                                     return rpc::ReplyError(reply, r.status());
                                   }
                                   rpc::ReplyWith(reply, *r);
                                 });
        return;

      case kNcMethodListRepl: {
        Result<ContextTree::Node*> target = ContextTree::WalkFrom(node_, name);
        if (!target.ok()) {
          return rpc::ReplyError(reply, target.status());
        }
        rpc::ReplyWith(reply, server_.ListAll(*target));
        return;
      }
      default:
        return rpc::ReplyBadMethod(reply, method_id);
    }
  }

 private:
  void SubmitRelative(NameOp op, const Name& relative,
                      const wire::ObjectRef& obj, const rpc::ReplyFn& reply) {
    if (relative.empty()) {
      return rpc::ReplyError(reply, InvalidArgumentError("empty name"));
    }
    NameUpdate update;
    update.op = op;
    update.path = abs_path_;
    update.path.insert(update.path.end(), relative.begin(), relative.end());
    update.ref = obj;
    server_.SubmitUpdate(update, [reply](Status s) {
      if (!s.ok()) {
        return rpc::ReplyError(reply, s);
      }
      rpc::ReplyOk(reply);
    });
  }

  NameServer& server_;
  // Fixed for the skeleton's life: contexts are never renamed or moved.
  ContextTree::Node* const node_;
  const Name abs_path_;
};

// Internal replica-to-replica interface.
class NameServer::ReplicaSkeleton : public rpc::Skeleton {
 public:
  explicit ReplicaSkeleton(NameServer& server) : server_(server) {}

  std::string_view interface_name() const override {
    return kNameReplicaInterface;
  }

  void Dispatch(uint32_t method_id, const wire::Bytes& args,
                const rpc::CallContext& ctx, rpc::ReplyFn reply) override {
    switch (method_id) {
      case kNrMethodRequestVote: {
        uint64_t epoch = 0, candidate_seq = 0;
        uint32_t candidate = 0;
        if (!rpc::DecodeArgs(args, &epoch, &candidate, &candidate_seq)) {
          return rpc::ReplyBadArgs(reply);
        }
        return rpc::ReplyWith(
            reply, server_.HandleVoteRequest(epoch, candidate, candidate_seq));
      }
      case kNrMethodHeartbeat: {
        uint64_t epoch = 0, master_seq = 0;
        uint32_t master_id = 0;
        if (!rpc::DecodeArgs(args, &epoch, &master_id, &master_seq)) {
          return rpc::ReplyBadArgs(reply);
        }
        return rpc::ReplyWith(
            reply, server_.HandleHeartbeat(epoch, master_id, master_seq));
      }
      case kNrMethodForwardUpdate: {
        NameUpdate update;
        if (!rpc::DecodeArgs(args, &update)) {
          return rpc::ReplyBadArgs(reply);
        }
        if (!server_.is_master()) {
          return rpc::ReplyError(reply,
                                 UnavailableError("not the name service master"));
        }
        server_.MasterApply(update, [reply](Status s) {
          if (!s.ok()) {
            return rpc::ReplyError(reply, s);
          }
          rpc::ReplyOk(reply);
        });
        return;
      }
      case kNrMethodApplyUpdate: {
        uint64_t seq = 0, epoch = 0;
        NameUpdate update;
        if (!rpc::DecodeArgs(args, &seq, &epoch, &update)) {
          return rpc::ReplyBadArgs(reply);
        }
        server_.SlaveApply(seq, epoch, update);
        return rpc::ReplyOk(reply);
      }
      case kNrMethodGetSnapshot: {
        SnapshotReply snapshot;
        snapshot.seq = server_.applied_seq_;
        snapshot.epoch = server_.epoch_;
        snapshot.data = server_.tree_.EncodeSnapshot();
        return rpc::ReplyWith(reply, snapshot);
      }
      default:
        return rpc::ReplyBadMethod(reply, method_id);
    }
  }

 private:
  NameServer& server_;
};

// --- NameServer --------------------------------------------------------------

NameServer::NameServer(rpc::ObjectRuntime& runtime, Executor& executor,
                       NameServerOptions options, Metrics* metrics)
    : runtime_(runtime),
      executor_(executor),
      options_(std::move(options)),
      metrics_(metrics) {
  ITV_CHECK(options_.replica_id >= 1 &&
            options_.replica_id <= options_.peers.size())
      << "replica_id must index into peers";
}

NameServer::~NameServer() {
  if (election_timer_ != kInvalidTimerId) {
    executor_.Cancel(election_timer_);
  }
}

void NameServer::Start() {
  ITV_CHECK(!started_);
  started_ = true;
  replica_skeleton_ = std::make_unique<ReplicaSkeleton>(*this);
  runtime_.ExportAt(replica_skeleton_.get(), kReplicaObjectId);
  ExportContext(&tree_.root(), {});
  root_ref_ = RefForNode(&tree_.root());

  if (options_.peers.size() == 1) {
    epoch_ = 1;
    BecomeMaster();
    return;
  }
  ResetElectionTimer();
}

// --- Resolution --------------------------------------------------------------

wire::ObjectRef NameServer::RefForNode(ContextTree::Node* node) const {
  wire::ObjectRef ref;
  ref.endpoint = runtime_.local_endpoint();
  ref.incarnation = runtime_.incarnation();
  ref.type_id = wire::TypeIdFromName(kNamingContextInterface);
  ref.object_id = node->exported_id;
  return ref;
}

void NameServer::SelectReplica(ContextTree::Node* node, uint32_t caller_host,
                               std::function<void(Result<size_t>)> cb) {
  std::vector<std::string> names = node->ReplicaNames();
  if (names.empty()) {
    cb(NotFoundError("replicated context has no replicas bound"));
    return;
  }
  std::vector<const ContextTree::Entry*> replicas = node->Replicas();
  std::vector<wire::ObjectRef> refs;
  refs.reserve(replicas.size());
  for (const ContextTree::Entry* e : replicas) {
    refs.push_back(e->is_local_context() ? RefForNode(e->child.get()) : e->ref);
  }

  const ContextTree::Entry* selector = node->FindSelector();
  if (selector == nullptr || IsBuiltinSelectorRef(selector->ref)) {
    BuiltinSelector kind =
        selector == nullptr
            ? BuiltinSelector::kFirst
            : static_cast<BuiltinSelector>(selector->ref.object_id);
    std::optional<size_t> index =
        EvalBuiltinSelector(kind, caller_host, names, refs, &node->rr_cursor);
    if (!index.has_value()) {
      cb(NotFoundError("selector could not choose a replica"));
      return;
    }
    cb(*index);
    return;
  }

  // Custom selector object, possibly remote: invoke itv.Selector.select.
  Count("ns.selector.remote");
  SelectorProxy proxy(runtime_, selector->ref);
  size_t replica_count = names.size();
  proxy.Select(caller_host, names, refs)
      .OnReady([this, replica_count, cb](const Result<uint32_t>& r) {
        if (!r.ok() || *r >= replica_count) {
          // Availability over policy: a dead or broken selector falls back to
          // the first replica rather than failing the resolve.
          Count("ns.selector.fallback");
          cb(static_cast<size_t>(0));
          return;
        }
        cb(static_cast<size_t>(*r));
      });
}

void NameServer::ResolveFrom(ContextTree::Node* node, const Name& path,
                             size_t idx, uint32_t caller_host, int depth,
                             ResolveCb cb) {
  if (depth > kMaxResolveDepth) {
    cb(InternalError("name resolution exceeded depth limit"));
    return;
  }
  while (true) {
    if (idx == path.size()) {
      if (node->replicated) {
        // Resolving the name *of* a replicated context returns a selected
        // replica (paper Section 4.5).
        SelectReplica(node, caller_host,
                      [this, node, cb](Result<size_t> sel) {
                        if (!sel.ok()) {
                          return cb(sel.status());
                        }
                        const ContextTree::Entry* e = node->Replicas()[*sel];
                        cb(e->is_local_context() ? RefForNode(e->child.get())
                                                 : e->ref);
                      });
        return;
      }
      cb(RefForNode(node));
      return;
    }

    const std::string& component = path[idx];
    auto it = node->bindings.find(component);

    if (it == node->bindings.end() && node->replicated) {
      // The component does not name a replica directly: the selector picks
      // the context in which to complete the lookup (paper Figure 7).
      Name rest(path.begin() + static_cast<long>(idx), path.end());
      SelectReplica(
          node, caller_host,
          [this, node, rest, caller_host, depth, cb](Result<size_t> sel) {
            if (!sel.ok()) {
              return cb(sel.status());
            }
            const ContextTree::Entry* e = node->Replicas()[*sel];
            if (e->is_local_context()) {
              ResolveFrom(e->child.get(), rest, 0, caller_host, depth + 1, cb);
            } else if (IsContextTypeId(e->ref.type_id)) {
              ResolveRemote(e->ref, rest, cb);
            } else {
              cb(NotFoundError("selected replica is not a context"));
            }
          });
      return;
    }

    if (it == node->bindings.end()) {
      cb(NotFoundError("no binding for " + JoinPath(path) + " (at '" +
                       component + "')"));
      return;
    }

    ContextTree::Entry& entry = it->second;
    ++idx;
    if (entry.is_local_context()) {
      node = entry.child.get();
      continue;
    }
    if (idx == path.size()) {
      cb(entry.ref);
      return;
    }
    if (IsContextTypeId(entry.ref.type_id)) {
      // Remotely implemented context (e.g. the file service): recursively
      // invoke resolve on it (paper Section 4.3).
      Name rest(path.begin() + static_cast<long>(idx), path.end());
      ResolveRemote(entry.ref, rest, cb);
      return;
    }
    cb(NotFoundError("'" + component + "' is not a context"));
    return;
  }
}

void NameServer::ResolveRemote(const wire::ObjectRef& remote, const Name& rest,
                               ResolveCb cb) {
  Count("ns.resolve.remote");
  NamingContextProxy proxy(runtime_, remote);
  rpc::CallOptions opts;
  opts.timeout = options_.rpc_timeout;
  proxy.Resolve(rest, opts).OnReady(
      [cb](const Result<wire::ObjectRef>& r) { cb(r); });
}

BindingList NameServer::ListAll(ContextTree::Node* node) const {
  BindingList out;
  for (const auto& [name, entry] : node->bindings) {
    Binding b;
    b.name = name;
    if (entry.is_local_context()) {
      b.kind = entry.child->replicated ? BindingKind::kReplContext
                                       : BindingKind::kContext;
      b.ref = const_cast<NameServer*>(this)->RefForNode(entry.child.get());
    } else {
      b.kind = BindingKind::kObject;
      b.ref = entry.ref;
    }
    out.push_back(std::move(b));
  }
  return out;
}

void NameServer::ListWithSelector(ContextTree::Node* node, const Name& path,
                                  uint32_t caller_host,
                                  std::function<void(Result<BindingList>)> cb) {
  Result<ContextTree::Node*> target = ContextTree::WalkFrom(node, path);
  if (!target.ok()) {
    cb(target.status());
    return;
  }
  ContextTree::Node* t = *target;
  if (!t->replicated) {
    cb(ListAll(t));
    return;
  }
  // "When a replicated context is listed, the name service... contacts the
  // selector and returns binding information about the selected object."
  SelectReplica(t, caller_host, [this, t, cb](Result<size_t> sel) {
    if (!sel.ok()) {
      return cb(sel.status());
    }
    std::vector<std::string> names = t->ReplicaNames();
    std::vector<const ContextTree::Entry*> replicas = t->Replicas();
    const ContextTree::Entry* e = replicas[*sel];
    Binding b;
    b.name = names[*sel];
    if (e->is_local_context()) {
      b.kind = e->child->replicated ? BindingKind::kReplContext
                                    : BindingKind::kContext;
      b.ref = RefForNode(e->child.get());
    } else {
      b.kind = BindingKind::kObject;
      b.ref = e->ref;
    }
    cb(BindingList{b});
  });
}

// --- Updates -----------------------------------------------------------------

void NameServer::SubmitUpdate(const NameUpdate& update,
                              std::function<void(Status)> cb) {
  if (is_master()) {
    MasterApply(update, std::move(cb));
    return;
  }
  if (master_id_ == 0) {
    cb(UnavailableError("no name service master elected"));
    return;
  }
  Count("ns.update.forwarded");
  NameReplicaProxy master = ProxyTo(MasterEndpoint());
  master.ForwardUpdate(update).OnReady(
      [cb](const Result<void>& r) { cb(r.status()); });
}

void NameServer::MasterApply(const NameUpdate& update,
                             std::function<void(Status)> cb) {
  if (update.op == NameOp::kBindNewContext) {
    for (const auto& [context, selector] : options_.initial_repl_contexts) {
      if (update.path == context) {
        // A replica re-creating a lost parent asks for a plain context; one
        // this master makes on election is made its way, selector and all.
        MakeReplContext(context, selector, std::move(cb));
        return;
      }
    }
  }
  Status s = ApplyToTree(update);
  if (!s.ok()) {
    cb(s);
    return;
  }
  Count("ns.update.applied");
  ++applied_seq_;
  for (size_t i = 0; i < options_.peers.size(); ++i) {
    if (i + 1 == options_.replica_id) {
      continue;
    }
    // Best-effort multicast; lagging slaves repair via heartbeat + snapshot.
    Count("ns.update.multicast");
    ProxyTo(options_.peers[i]).ApplyUpdate(applied_seq_, epoch_, update)
        .OnReady([](const Result<void>&) {});
  }
  cb(OkStatus());
}

void NameServer::SlaveApply(uint64_t seq, uint64_t epoch,
                            const NameUpdate& update) {
  if (epoch < epoch_) {
    return;  // Stale master.
  }
  if (epoch > epoch_ && applied_seq_ > 0) {
    // First contact from a newer-epoch master: our history may diverge from
    // its (a voted-for candidate only proved its seq *count* was not behind),
    // so applying incrementally on top is unsafe. Skip the update and wait
    // for its heartbeat to adopt it and drive the snapshot resync.
    resync_pending_ = true;
    return;
  }
  if (seq <= applied_seq_) {
    return;  // Duplicate.
  }
  if (seq != applied_seq_ + 1) {
    FetchSnapshotFromMaster();
    return;
  }
  Status s = ApplyToTree(update);
  if (!s.ok()) {
    // Divergence (should not happen with a correct master): resync.
    ITV_LOG(Warn) << "ns replica " << options_.replica_id
                  << ": update failed to apply (" << s << "); resyncing";
    FetchSnapshotFromMaster();
    return;
  }
  applied_seq_ = seq;
}

Status NameServer::ApplyToTree(const NameUpdate& update) {
  // Only an unbind can drop a context node (and only an empty one). Find its
  // export before Apply frees the node; unexport only if the unbind succeeds.
  uint64_t dropped_id = 0;
  if (update.op == NameOp::kUnbind) {
    Result<ContextTree::Node*> node = tree_.WalkToContext(update.path);
    if (node.ok()) {
      dropped_id = (*node)->exported_id;
    }
  }
  ITV_RETURN_IF_ERROR(tree_.Apply(update));
  switch (update.op) {
    case NameOp::kBindNewContext:
    case NameOp::kBindReplContext:
      ExportContext(*tree_.WalkToContext(update.path), update.path);
      break;
    case NameOp::kUnbind:
      if (dropped_id != 0) {
        wire::ObjectRef ref;
        ref.object_id = dropped_id;
        runtime_.Unexport(ref);
        context_skeletons_.erase(dropped_id);
      }
      break;
    case NameOp::kBind:
      break;
  }
  return OkStatus();
}

void NameServer::ExportContext(ContextTree::Node* node, Name path) {
  auto skeleton =
      std::make_unique<ContextSkeleton>(*this, node, std::move(path));
  wire::ObjectRef ref =
      node == &tree_.root()
          ? runtime_.ExportAt(skeleton.get(), kRootContextObjectId)
          : runtime_.Export(skeleton.get());
  node->exported_id = ref.object_id;
  context_skeletons_[ref.object_id] = std::move(skeleton);
}

void NameServer::ExportTree(ContextTree::Node* node, Name* path) {
  ExportContext(node, *path);
  for (auto& [name, entry] : node->bindings) {
    if (entry.is_local_context()) {
      path->push_back(name);
      ExportTree(entry.child.get(), path);
      path->pop_back();
    }
  }
}

void NameServer::InstallSnapshot(const SnapshotReply& snapshot) {
  if (snapshot.epoch < epoch_) {
    return;  // Stale master's snapshot; installing it would regress the tree.
  }
  Result<ContextTree> tree = ContextTree::DecodeSnapshot(snapshot.data);
  if (!tree.ok()) {
    ITV_LOG(Error) << "ns replica " << options_.replica_id
                   << ": snapshot corrupt: " << tree.status();
    return;
  }
  // Tear down all context exports; the tree (and its node pointers) is being
  // replaced wholesale.
  for (auto& [id, skeleton] : context_skeletons_) {
    wire::ObjectRef ref;
    ref.object_id = id;
    runtime_.Unexport(ref);
  }
  context_skeletons_.clear();
  tree_ = std::move(tree).value();
  applied_seq_ = snapshot.seq;
  if (snapshot.epoch > epoch_) {
    epoch_ = snapshot.epoch;
  }
  // The only full pass: every node is re-exported in pre-order (ids are
  // replica-local, so each node's exported_id is assigned here).
  Name root_path;
  ExportTree(&tree_.root(), &root_path);
  root_ref_ = RefForNode(&tree_.root());
  resync_pending_ = false;
  Count("ns.snapshot.installed");
}

void NameServer::FetchSnapshotFromMaster() {
  if (fetching_snapshot_ || master_id_ == 0 || is_master()) {
    return;
  }
  fetching_snapshot_ = true;
  ProxyTo(MasterEndpoint()).GetSnapshot().OnReady(
      [this](const Result<SnapshotReply>& r) {
        fetching_snapshot_ = false;
        if (!r.ok()) {
          return;  // Heartbeat repair will retry.
        }
        // On a divergence resync the master's seq may be EQUAL or BEHIND
        // ours (our solo updates inflated the counter with content it never
        // saw) — its tree still wins, so install regardless of seq.
        if (r->seq > applied_seq_ || resync_pending_) {
          InstallSnapshot(*r);
        }
      });
}

// --- Election ----------------------------------------------------------------

wire::Endpoint NameServer::MasterEndpoint() const {
  ITV_CHECK(master_id_ >= 1 && master_id_ <= options_.peers.size());
  return options_.peers[master_id_ - 1];
}

NameReplicaProxy NameServer::ProxyTo(const wire::Endpoint& peer) const {
  return NameReplicaProxy(runtime_, ReplicaRefAt(peer));
}

void NameServer::ResetElectionTimer() {
  if (election_timer_ != kInvalidTimerId) {
    executor_.Cancel(election_timer_);
  }
  // Deterministic stagger by replica id avoids split votes.
  Duration timeout =
      options_.election_timeout + Duration::Millis(100) * options_.replica_id;
  election_timer_ =
      executor_.ScheduleAfter(timeout, [this] { StartElection(); });
}

void NameServer::StartElection() {
  Count("ns.election");
  role_ = Role::kCandidate;
  master_id_ = 0;
  epoch_ = std::max(epoch_, voted_epoch_) + 1;
  voted_epoch_ = epoch_;
  votes_received_ = 1;  // Self.
  uint64_t this_epoch = epoch_;
  ITV_LOG(Info) << "ns replica " << options_.replica_id
                << ": starting election for epoch " << epoch_;

  if (votes_received_ >= Majority()) {
    BecomeMaster();
    return;
  }
  for (size_t i = 0; i < options_.peers.size(); ++i) {
    if (i + 1 == options_.replica_id) {
      continue;
    }
    ProxyTo(options_.peers[i])
        .RequestVote(this_epoch, options_.replica_id, applied_seq_)
        .OnReady([this, this_epoch](const Result<bool>& granted) {
          if (role_ != Role::kCandidate || epoch_ != this_epoch) {
            return;  // Election moved on.
          }
          if (granted.ok() && *granted) {
            ++votes_received_;
            if (votes_received_ >= Majority()) {
              BecomeMaster();
            }
          }
        });
  }
  // If this election fails (no majority), try again after a timeout.
  ResetElectionTimer();
}

void NameServer::BecomeMaster() {
  role_ = Role::kMaster;
  master_id_ = options_.replica_id;
  // A majority voted our sequence not-behind: our tree is now the
  // authoritative one, divergent or not.
  resync_pending_ = false;
  // Grace period: every peer counts as recently-acked at election time.
  peer_last_ack_.clear();
  for (uint32_t id = 1; id <= options_.peers.size(); ++id) {
    peer_last_ack_[id] = executor_.Now();
  }
  if (election_timer_ != kInvalidTimerId) {
    executor_.Cancel(election_timer_);
    election_timer_ = kInvalidTimerId;
  }
  ITV_LOG(Info) << "ns replica " << options_.replica_id
                << ": became master (epoch " << epoch_ << ")";
  for (const Name& context : options_.initial_contexts) {
    if (tree_.WalkToContext(context).ok()) {
      continue;  // Already exists (e.g. after fail-over).
    }
    NameUpdate update;
    update.op = NameOp::kBindNewContext;
    update.path = context;
    MasterApply(update, [](Status) {});
  }
  for (const auto& [context, selector] : options_.initial_repl_contexts) {
    if (!tree_.WalkToContext(context).ok()) {
      MakeReplContext(context, selector, [](Status) {});
    }
  }
  SendHeartbeats();
  heartbeat_timer_.Start(executor_, options_.heartbeat_interval,
                         [this] { SendHeartbeats(); });
  audit_timer_.Start(executor_, options_.audit_interval, [this] { RunAudit(); });
}

void NameServer::MakeReplContext(const Name& context, BuiltinSelector selector,
                                 std::function<void(Status)> cb) {
  NameUpdate update;
  update.op = NameOp::kBindReplContext;
  update.path = context;
  MasterApply(update, [this, context, selector, cb = std::move(cb)](Status s) {
    if (s.ok()) {
      NameUpdate bind_selector;
      bind_selector.op = NameOp::kBind;
      bind_selector.path = context;
      bind_selector.path.emplace_back(kSelectorBindingName);
      bind_selector.ref = MakeBuiltinSelectorRef(selector);
      MasterApply(bind_selector, [](Status) {});
    }
    cb(s);
  });
}

void NameServer::BecomeSlave(uint64_t epoch, uint32_t master_id) {
  // Crossing into a newer epoch means another election happened; anything we
  // applied under the old epoch (as its master, or fed by it during the
  // lease overlap) may be unknown to the new master, at a sequence number it
  // has reused for different updates. Flag for a full resync.
  if (epoch > epoch_ && applied_seq_ > 0) {
    resync_pending_ = true;
  }
  role_ = Role::kSlave;
  epoch_ = epoch;
  master_id_ = master_id;
  heartbeat_timer_.Stop();
  audit_timer_.Stop();
  ResetElectionTimer();
}

void NameServer::SendHeartbeats() {
  if (!is_master()) {
    return;
  }
  // Quorum lease check: self + peers acked within 3 heartbeat intervals.
  if (options_.peers.size() > 1) {
    size_t reachable = 1;
    Duration lease = options_.heartbeat_interval * 3.0;
    for (uint32_t id = 1; id <= options_.peers.size(); ++id) {
      if (id == options_.replica_id) {
        continue;
      }
      auto it = peer_last_ack_.find(id);
      if (it != peer_last_ack_.end() && executor_.Now() - it->second <= lease) {
        ++reachable;
      }
    }
    if (reachable < Majority()) {
      ITV_LOG(Warn) << "ns replica " << options_.replica_id
                    << ": lost contact with the majority; stepping down";
      Count("ns.master_stepdown");
      BecomeSlave(epoch_, 0);
      master_id_ = 0;
      return;
    }
  }
  for (size_t i = 0; i < options_.peers.size(); ++i) {
    if (i + 1 == options_.replica_id) {
      continue;
    }
    Count("ns.heartbeat.sent");
    uint32_t peer_id = static_cast<uint32_t>(i + 1);
    ProxyTo(options_.peers[i])
        .Heartbeat(epoch_, options_.replica_id, applied_seq_)
        .OnReady([this, peer_id](const Result<uint64_t>& ack) {
          if (ack.ok()) {
            peer_last_ack_[peer_id] = executor_.Now();
          }
        });
  }
}

bool NameServer::HandleVoteRequest(uint64_t epoch, uint32_t candidate_id,
                                   uint64_t candidate_seq) {
  if (epoch <= voted_epoch_) {
    return false;
  }
  voted_epoch_ = epoch;  // One vote (or denial) per epoch.
  if (is_master() && epoch > epoch_) {
    // A newer election supersedes this mastership; if the candidate is
    // stale, the deposed master will win the follow-up election because
    // voters compare applied sequences.
    BecomeSlave(epoch, 0);
    master_id_ = 0;
  }
  if (candidate_seq < applied_seq_) {
    return false;  // The candidate's name space is behind ours.
  }
  ResetElectionTimer();
  return true;
}

uint64_t NameServer::HandleHeartbeat(uint64_t epoch, uint32_t master_id,
                                     uint64_t master_seq) {
  if (epoch < epoch_) {
    return applied_seq_;  // Stale master; ignore.
  }
  if (is_master() && master_id != options_.replica_id) {
    if (epoch > epoch_) {
      BecomeSlave(epoch, master_id);
    }
    // Same-epoch duelling masters cannot happen under one-vote-per-epoch.
  } else {
    bool changed = master_id_ != master_id;
    // Same reasoning as BecomeSlave: an epoch advance means our applied
    // history may have diverged from the new master's, at sequence numbers
    // that no longer line up — equal or higher seq proves nothing.
    if (epoch > epoch_ && applied_seq_ > 0) {
      resync_pending_ = true;
    }
    role_ = Role::kSlave;
    epoch_ = epoch;
    master_id_ = master_id;
    if (changed) {
      ITV_LOG(Info) << "ns replica " << options_.replica_id
                    << ": following master " << master_id << " (epoch "
                    << epoch << ")";
    }
    ResetElectionTimer();
  }
  if (master_seq > applied_seq_ || resync_pending_) {
    FetchSnapshotFromMaster();
  }
  return applied_seq_;
}

// --- Audit -------------------------------------------------------------------

void NameServer::RunAudit() {
  if (!is_master() || audit_ == nullptr) {
    return;
  }
  std::vector<ContextTree::BoundObject> objects = tree_.AllBoundObjects();
  if (objects.empty()) {
    return;
  }
  std::vector<wire::ObjectRef> refs;
  refs.reserve(objects.size());
  for (const auto& o : objects) {
    refs.push_back(o.ref);
  }
  Count("ns.audit.sweep");
  // Each audit sweep roots a trace: the RAS liveness queries it issues are
  // stamped as its children, and a removal emits the ns.audit.unbind instant
  // the fail-over timeline keys on.
  trace::Tracer* tracer = runtime_.tracer();
  trace::TraceContext audit_ctx;
  Time audit_begin;
  if (tracer != nullptr) {
    audit_ctx = tracer->StartTrace();
    audit_begin = tracer->now();
  }
  trace::ScopedContext scoped(tracer, audit_ctx);
  audit_->CheckObjects(refs, [this, objects, audit_ctx,
                              audit_begin](std::vector<uint8_t> alive) {
    trace::Tracer* tracer = runtime_.tracer();
    if (alive.size() != objects.size()) {
      return;
    }
    size_t removed = 0;
    for (size_t i = 0; i < objects.size(); ++i) {
      if (alive[i]) {
        continue;
      }
      // Re-check the binding still holds the dead reference, then unbind it
      // (paper Section 4.7: objects are removed "within a few seconds of
      // their death").
      Result<ContextTree::Node*> parent = tree_.WalkToContext(
          Name(objects[i].path.begin(), objects[i].path.end() - 1));
      if (!parent.ok()) {
        continue;
      }
      auto it = (*parent)->bindings.find(objects[i].path.back());
      if (it == (*parent)->bindings.end() ||
          it->second.is_local_context() || it->second.ref != objects[i].ref) {
        continue;
      }
      Count("ns.audit.unbind");
      ++removed;
      ITV_LOG(Info) << "ns: auditing removed dead object "
                    << JoinPath(objects[i].path);
      if (tracer != nullptr) {
        tracer->Instant(audit_ctx, trace::kEventAuditUnbind,
                        JoinPath(objects[i].path));
      }
      NameUpdate unbind;
      unbind.op = NameOp::kUnbind;
      unbind.path = objects[i].path;
      MasterApply(unbind, [](Status) {});
    }
    if (tracer != nullptr) {
      tracer->Span(audit_ctx, "ns.audit", audit_begin,
                   StrFormat("checked=%zu removed=%zu", objects.size(),
                             removed));
    }
  });
}

void NameServer::Count(std::string_view name) {
  if (metrics_ != nullptr) {
    metrics_->Add(name);
  }
}

}  // namespace itv::naming
