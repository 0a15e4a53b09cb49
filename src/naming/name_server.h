// NameServer: one name service replica (paper Sections 4 and 5).
//
// "Because the name service is essential to all services, it is replicated
//  on every server node with master-slave replication. The master is elected
//  using a majority scheme similar to the one in the Echo file system. Once
//  a master is elected, all updates are forwarded to the master, which
//  serializes them and multicasts them to the slaves. Any name service
//  replica can process a resolve or list operation without contacting the
//  master." (Section 4.6)
//
// Responsibilities:
//  - Serve the NamingContext interface: the root context and every nested
//    context are exported objects (paper Section 9.2: "the name service...
//    creates one object for every context").
//  - Resolution semantics, including ReplicatedContext + selector evaluation
//    (builtin inline, custom via remote Selector calls) and recursion into
//    remotely-implemented contexts (e.g. the file service).
//  - Master election (majority voting), update forwarding/sequencing,
//    snapshot-based catch-up for lagging or rejoining replicas.
//  - Auditing: the master polls the Resource Audit Service for every bound
//    object and unbinds the dead ones (Section 4.7) — this is the hinge of
//    primary/backup fail-over (Section 5.2).

#ifndef SRC_NAMING_NAME_SERVER_H_
#define SRC_NAMING_NAME_SERVER_H_

#include <map>
#include <memory>
#include <vector>

#include "src/common/executor.h"
#include "src/common/metrics.h"
#include "src/naming/context_tree.h"
#include "src/naming/selector.h"
#include "src/naming/stubs.h"
#include "src/rpc/runtime.h"

namespace itv::naming {

// Dependency-injected liveness oracle (implemented by the RAS client library;
// kept abstract here so naming does not depend on the ras module).
class ObjectAudit {
 public:
  virtual ~ObjectAudit() = default;
  // Calls back with one flag per ref: true = alive (or unknown), false = dead.
  virtual void CheckObjects(
      const std::vector<wire::ObjectRef>& refs,
      std::function<void(std::vector<uint8_t> alive)> cb) = 0;
};

struct NameServerOptions {
  uint32_t replica_id = 1;              // 1-based position in `peers`.
  std::vector<wire::Endpoint> peers;    // All replica endpoints, self included.
  Duration heartbeat_interval = Duration::Millis(1000);
  Duration election_timeout = Duration::Millis(2500);
  // "Name service polls RAS every 10 seconds" (Section 9.7).
  Duration audit_interval = Duration::Seconds(10);
  Duration rpc_timeout = Duration::Seconds(2);
  // Contexts every master guarantees exist (the paper's persistent contexts,
  // e.g. "svc" and "apps"); created idempotently on election.
  std::vector<Name> initial_contexts;
  // Replicated contexts to pre-create, each with its selector policy
  // (e.g. {"svc","ras"} with kByCallerHost for per-server replicas). A
  // BindNewContext of one of these paths makes it the same way.
  std::vector<std::pair<Name, BuiltinSelector>> initial_repl_contexts;
};

class NameServer {
 public:
  NameServer(rpc::ObjectRuntime& runtime, Executor& executor,
             NameServerOptions options, Metrics* metrics = nullptr);
  ~NameServer();

  NameServer(const NameServer&) = delete;
  NameServer& operator=(const NameServer&) = delete;

  // Exports the root context + replica interface and begins participating in
  // elections.
  void Start();

  // Wires the audit hook; the master begins sweeping bound objects every
  // audit_interval. May be set before or after Start().
  void SetAudit(ObjectAudit* audit) { audit_ = audit; }

  // Observability.
  enum class Role { kSlave, kCandidate, kMaster };
  Role role() const { return role_; }
  bool is_master() const { return role_ == Role::kMaster; }
  uint32_t master_id() const { return master_id_; }  // 0 = unknown.
  uint64_t epoch() const { return epoch_; }
  uint64_t applied_seq() const { return applied_seq_; }
  const ContextTree& tree() const { return tree_; }
  wire::ObjectRef root_ref() const { return root_ref_; }

 private:
  class ContextSkeleton;
  class ReplicaSkeleton;
  friend class ContextSkeleton;
  friend class ReplicaSkeleton;

  // --- Resolution ------------------------------------------------------------
  using ResolveCb = std::function<void(Result<wire::ObjectRef>)>;
  void ResolveFrom(ContextTree::Node* node, const Name& path, size_t idx,
                   uint32_t caller_host, int depth, ResolveCb cb);
  // Selects a replica of `node` for `caller_host`; completes with the index
  // into node->Replicas(), or an error.
  void SelectReplica(ContextTree::Node* node, uint32_t caller_host,
                     std::function<void(Result<size_t>)> cb);
  void ResolveRemote(const wire::ObjectRef& remote, const Name& rest,
                     ResolveCb cb);
  wire::ObjectRef RefForNode(ContextTree::Node* node) const;
  BindingList ListAll(ContextTree::Node* node) const;
  void ListWithSelector(ContextTree::Node* node, const Name& path,
                        uint32_t caller_host,
                        std::function<void(Result<BindingList>)> cb);

  // --- Updates ---------------------------------------------------------------
  void SubmitUpdate(const NameUpdate& update, std::function<void(Status)> cb);
  void MasterApply(const NameUpdate& update, std::function<void(Status)> cb);
  // Makes an initial replicated context with its selector: on election, and
  // when a client asks for one as a plain context.
  void MakeReplContext(const Name& context, BuiltinSelector selector,
                       std::function<void(Status)> cb);
  void SlaveApply(uint64_t seq, uint64_t epoch, const NameUpdate& update);
  // Applies one sequenced update to the tree and keeps the context exports
  // in step with it: a created context is exported, an unbound one dropped.
  Status ApplyToTree(const NameUpdate& update);
  // Exports `node`, reachable at `path`, as a NamingContext object; the root
  // takes its well-known id.
  void ExportContext(ContextTree::Node* node, Name path);
  // Exports `node` and every context below it, in pre-order.
  void ExportTree(ContextTree::Node* node, Name* path);
  void InstallSnapshot(const SnapshotReply& snapshot);
  void FetchSnapshotFromMaster();

  // --- Election --------------------------------------------------------------
  void ResetElectionTimer();
  void StartElection();
  void BecomeMaster();
  void BecomeSlave(uint64_t epoch, uint32_t master_id);
  void SendHeartbeats();
  bool HandleVoteRequest(uint64_t epoch, uint32_t candidate_id,
                         uint64_t candidate_seq);
  uint64_t HandleHeartbeat(uint64_t epoch, uint32_t master_id,
                           uint64_t master_seq);
  size_t Majority() const { return options_.peers.size() / 2 + 1; }
  wire::Endpoint MasterEndpoint() const;
  NameReplicaProxy ProxyTo(const wire::Endpoint& peer) const;

  void RunAudit();
  void Count(std::string_view name);

  rpc::ObjectRuntime& runtime_;
  Executor& executor_;
  NameServerOptions options_;
  Metrics* metrics_;
  ObjectAudit* audit_ = nullptr;

  ContextTree tree_;
  // Exported context objects: object id -> skeleton (owning), one per
  // context node. Made when a context is created and dropped when it is
  // unbound; contexts are never renamed, so a skeleton's path stays valid.
  // Rebuilt wholesale only by InstallSnapshot.
  std::map<uint64_t, std::unique_ptr<ContextSkeleton>> context_skeletons_;
  std::unique_ptr<ReplicaSkeleton> replica_skeleton_;
  wire::ObjectRef root_ref_;

  Role role_ = Role::kSlave;
  uint64_t epoch_ = 0;
  uint64_t voted_epoch_ = 0;
  uint32_t master_id_ = 0;
  uint64_t applied_seq_ = 0;
  size_t votes_received_ = 0;
  bool started_ = false;
  bool fetching_snapshot_ = false;
  // Set when this replica's applied history may contain updates the current
  // master never saw (it was a master — or followed one — that kept applying
  // during a dueling-master window). Sequence numbers cannot detect that
  // divergence (the solo updates inflate applied_seq_), so while set, every
  // heartbeat forces a snapshot fetch and the snapshot installs even when
  // its seq is not ahead of ours. Cleared on install or on winning an
  // election (the electorate made our tree authoritative).
  bool resync_pending_ = false;

  // Quorum lease: the master steps down if fewer than a majority of replicas
  // (itself included) acknowledged a heartbeat recently, so a master cut off
  // on the minority side of a partition cannot keep accepting updates while
  // the majority elects a successor.
  std::map<uint32_t, Time> peer_last_ack_;

  TimerId election_timer_ = kInvalidTimerId;
  PeriodicTimer heartbeat_timer_;
  PeriodicTimer audit_timer_;
};

}  // namespace itv::naming

#endif  // SRC_NAMING_NAME_SERVER_H_
