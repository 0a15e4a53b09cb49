// Client-side naming library: string-path convenience over the
// NamingContext stubs, plus the idempotent context and shard-map publishing
// steps services run against the name service. The paper's primary/backup
// election (Section 5.2) that binds service names through this client is
// svc::ServiceLifecycle.

#ifndef SRC_NAMING_NAME_CLIENT_H_
#define SRC_NAMING_NAME_CLIENT_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/executor.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/naming/stubs.h"
#include "src/rpc/binding_table.h"
#include "src/wire/shard_map.h"

namespace itv::naming {

class NameClient {
 public:
  // Bootstrap from one name service replica, as a server process does from
  // its own; the reference survives name service restarts.
  NameClient(rpc::ObjectRuntime& runtime, uint32_t ns_host,
             uint16_t ns_port = kNameServicePort)
      : NameClient(runtime,
                   std::make_shared<const std::vector<uint32_t>>(
                       std::vector<uint32_t>{ns_host}),
                   ns_port) {}

  // Bootstrap from an ordered replica list, as a settop does from its boot
  // parameters (paper Section 3.4.1): the home replica first, the replicas
  // reads fall back to after it. Every call but PathResolverFn's goes to the
  // home replica. The list is shared, never copied, between the clients
  // built from it.
  NameClient(rpc::ObjectRuntime& runtime,
             std::shared_ptr<const std::vector<uint32_t>> replicas,
             uint16_t ns_port = kNameServicePort);

  // The home replica's root context.
  wire::ObjectRef root() const { return ReplicaRoot(0); }
  rpc::ObjectRuntime& runtime() const { return runtime_; }

  Future<wire::ObjectRef> Resolve(const std::string& path) const {
    return Proxy().Resolve(SplitPath(path));
  }
  Future<void> Bind(const std::string& path, const wire::ObjectRef& obj) const {
    return Proxy().Bind(SplitPath(path), obj);
  }
  Future<void> Unbind(const std::string& path) const {
    return Proxy().Unbind(SplitPath(path));
  }
  Future<void> BindNewContext(const std::string& path) const {
    return Proxy().BindNewContext(SplitPath(path));
  }
  Future<void> BindReplContext(const std::string& path) const {
    return Proxy().BindReplContext(SplitPath(path));
  }
  // Binds a builtin selector under `<path>/selector`.
  Future<void> SetSelector(const std::string& path, BuiltinSelector kind) const {
    Name name = SplitPath(path);
    name.emplace_back(kSelectorBindingName);
    return Proxy().Bind(name, MakeBuiltinSelectorRef(kind));
  }
  // Binds a custom selector object.
  Future<void> SetSelectorObject(const std::string& path,
                                 const wire::ObjectRef& selector) const {
    Name name = SplitPath(path);
    name.emplace_back(kSelectorBindingName);
    return Proxy().Bind(name, selector);
  }
  Future<BindingList> List(const std::string& path) const {
    return Proxy().List(SplitPath(path));
  }
  Future<BindingList> ListRepl(const std::string& path) const {
    return Proxy().ListRepl(SplitPath(path));
  }

  // Adapts this client into the binding layer's resolver: a per-process
  // rpc::BindingTable constructed with this resolves every binding path
  // through the name service. Any replica serves reads (paper Section 4.6),
  // so each lookup starts at the home replica, and a replica that cannot be
  // reached (UNAVAILABLE or DEADLINE_EXCEEDED from the lookup itself) passes
  // it to the next one in list order; the last replica's error surfaces. Any
  // answer, NOT_FOUND included, is returned as it is. No state is kept
  // between lookups. Each move is counted as naming.resolve_failover.
  rpc::PathResolver PathResolverFn() const;

 private:
  NamingContextProxy Proxy() const {
    return NamingContextProxy(runtime_, root());
  }

  // Resolves `name` at replica `index`, then down the list while a replica
  // cannot be reached.
  void ResolveAt(Name name, size_t index, trace::TraceContext op,
                 std::function<void(Result<wire::ObjectRef>)> cb) const;

  size_t replica_count() const { return replicas_->size(); }
  wire::ObjectRef ReplicaRoot(size_t index) const {
    return BootstrapRootRef((*replicas_)[index], port_);
  }

  rpc::ObjectRuntime& runtime_;
  std::shared_ptr<const std::vector<uint32_t>> replicas_;  // Never empty.
  uint16_t port_;
};

// Creates every component of `path` as a nested plain context, treating
// ALREADY_EXISTS as success and retrying (every `retry` up to `max_attempts`
// whole-path attempts) while the name service has no master. Services use it
// to guarantee their parent contexts before binding their names.
void EnsureContextPath(Executor& executor, NameClient client,
                       const std::string& path,
                       std::function<void(Status)> done,
                       Duration retry = Duration::Seconds(2),
                       int max_attempts = 100);

// Publishes a shard map for the sharded service rooted at `base`: ensures
// `base` exists as a context, then installs wire::EncodeShardMapRef(map) at
// "<base>/.shards" under a versioned compare-and-swap:
//
//   - no existing binding          -> bind `map` (first publication)
//   - existing version >= map's    -> success, report the WINNING map
//                                     (idempotent republish by a replica, or
//                                     a restarted replica racing a reshard
//                                     that already moved past it)
//   - existing version <  map's    -> unbind + bind the successor; a lost
//                                     race re-resolves and re-evaluates
//
// so concurrent publishers converge on the highest version and a reshard
// can never be undone by a replica restarting with the deployment's initial
// map. `done` receives the map that ended up authoritative (the argument,
// or the newer incumbent). Retries on transient errors like
// EnsureContextPath.
void PublishShardMap(Executor& executor, NameClient client,
                     const std::string& base, const wire::ShardMap& map,
                     std::function<void(Result<wire::ShardMap>)> done,
                     Duration retry = Duration::Seconds(2),
                     int max_attempts = 100);

}  // namespace itv::naming

#endif  // SRC_NAMING_NAME_CLIENT_H_
