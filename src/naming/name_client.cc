#include "src/naming/name_client.h"

#include "src/common/logging.h"
#include "src/common/trace.h"

namespace itv::naming {

NameClient::NameClient(rpc::ObjectRuntime& runtime,
                       std::shared_ptr<const std::vector<uint32_t>> replicas,
                       uint16_t ns_port)
    : runtime_(runtime), replicas_(std::move(replicas)), port_(ns_port) {
  ITV_CHECK(replicas_ != nullptr && !replicas_->empty());
}

rpc::PathResolver NameClient::PathResolverFn() const {
  return [client = *this](const std::string& path,
                          std::function<void(Result<wire::ObjectRef>)> cb) {
    trace::Tracer* tracer = client.runtime().tracer();
    client.ResolveAt(
        SplitPath(path), 0,
        tracer != nullptr ? tracer->current() : trace::TraceContext(),
        std::move(cb));
  };
}

void NameClient::ResolveAt(
    Name name, size_t index, trace::TraceContext op,
    std::function<void(Result<wire::ObjectRef>)> cb) const {
  trace::ScopedContext scoped(runtime_.tracer(), op);
  NamingContextProxy(runtime_, ReplicaRoot(index))
      .Resolve(name)
      .OnReady([client = *this, name, index, op,
                cb = std::move(cb)](const Result<wire::ObjectRef>& r) mutable {
        if (!rpc::IsRebindable(r.status()) ||
            index + 1 == client.replica_count()) {
          cb(r);
          return;
        }
        if (Metrics* metrics = client.runtime().metrics()) {
          metrics->Add("naming.resolve_failover");
        }
        client.ResolveAt(std::move(name), index + 1, op, std::move(cb));
      });
}

namespace {

void EnsureStep(Executor& executor, NameClient client, Name path, size_t depth,
                std::function<void(Status)> done, Duration retry,
                int attempts_left) {
  if (depth == path.size()) {
    done(OkStatus());
    return;
  }
  Name prefix(path.begin(), path.begin() + static_cast<long>(depth) + 1);
  NamingContextProxy proxy(client.runtime(), client.root());
  proxy.BindNewContext(prefix).OnReady([&executor, client, path, depth, done,
                                        retry, attempts_left](
                                           const Result<void>& r) {
    if (r.ok() || IsAlreadyExists(r.status())) {
      EnsureStep(executor, client, path, depth + 1, done, retry, attempts_left);
      return;
    }
    if (attempts_left <= 1) {
      done(r.status());
      return;
    }
    executor.ScheduleAfter(retry, [&executor, client, path, depth, done, retry,
                                   attempts_left] {
      EnsureStep(executor, client, path, depth, done, retry, attempts_left - 1);
    });
  });
}

}  // namespace

void EnsureContextPath(Executor& executor, NameClient client,
                       const std::string& path,
                       std::function<void(Status)> done, Duration retry,
                       int max_attempts) {
  EnsureStep(executor, client, SplitPath(path), 0, std::move(done), retry,
             max_attempts);
}

namespace {

using PublishDone = std::function<void(Result<wire::ShardMap>)>;

void PublishShardMapStep(Executor& executor, NameClient client,
                         std::string base, wire::ShardMap map,
                         PublishDone done, Duration retry, int attempts_left);

void RetryPublish(Executor& executor, NameClient client, std::string base,
                  wire::ShardMap map, PublishDone done,
                  const Status& terminal, Duration retry, int attempts_left) {
  if (attempts_left <= 1) {
    done(Result<wire::ShardMap>(terminal));
    return;
  }
  executor.ScheduleAfter(retry, [&executor, client, base, map, done, retry,
                                 attempts_left] {
    PublishShardMapStep(executor, client, base, map, done, retry,
                        attempts_left - 1);
  });
}

// The CAS core, entered once the parent context exists. The name server has
// no in-place rebind: a version bump is resolve -> unbind -> bind, and a
// lost race at any step re-resolves and re-evaluates (the winner always
// carries a version >= ours, so the loop terminates).
void SwapShardMap(Executor& executor, NameClient client, std::string base,
                  wire::ShardMap map, PublishDone done, Duration retry,
                  int attempts_left) {
  // Resolve the name service's copy, never a client-side cached map: a
  // pre-reshard map would make the CAS spin on stale evidence.
  client.Resolve(wire::ShardMapPath(base))
      .OnReady([&executor, client, base, map, done, retry,
                attempts_left](const Result<wire::ObjectRef>& r) {
        if (r.ok() && wire::IsShardMapRef(*r)) {
          wire::ShardMap incumbent = wire::DecodeShardMapRef(*r);
          if (incumbent.version >= map.version) {
            // A newer (or identical) map already won; adopt it.
            done(Result<wire::ShardMap>(incumbent));
            return;
          }
          // Ours is the successor: swap the binding. If another publisher
          // swaps first our Bind loses with ALREADY_EXISTS and the retry
          // re-resolves what won.
          client.Unbind(wire::ShardMapPath(base))
              .OnReady([&executor, client, base, map, done, retry,
                        attempts_left](const Result<void>& unbound) {
                if (!unbound.ok() && !IsNotFound(unbound.status())) {
                  RetryPublish(executor, client, base, map, done,
                               unbound.status(), retry, attempts_left);
                  return;
                }
                SwapShardMap(executor, client, base, map, done, retry,
                             attempts_left);
              });
          return;
        }
        if (r.ok()) {
          // A foreign (non-map) binding occupies ".shards": configuration
          // error, not a race — do not fight over it.
          done(Result<wire::ShardMap>(
              FailedPreconditionError(wire::ShardMapPath(base) +
                                      " is bound to a non-shard-map object")));
          return;
        }
        if (!IsNotFound(r.status())) {
          RetryPublish(executor, client, base, map, done, r.status(), retry,
                       attempts_left);
          return;
        }
        // No incumbent: first publication (or we interleaved with another
        // publisher's unbind+bind window). Bind; ALREADY_EXISTS means a race
        // we lost, so loop back to the resolve to see who won.
        client.Bind(wire::ShardMapPath(base), wire::EncodeShardMapRef(map))
            .OnReady([&executor, client, base, map, done, retry,
                      attempts_left](const Result<void>& bound) {
              if (bound.ok()) {
                done(Result<wire::ShardMap>(map));
                return;
              }
              if (IsAlreadyExists(bound.status())) {
                SwapShardMap(executor, client, base, map, done, retry,
                             attempts_left);
                return;
              }
              RetryPublish(executor, client, base, map, done, bound.status(),
                           retry, attempts_left);
            });
      });
}

void PublishShardMapStep(Executor& executor, NameClient client,
                         std::string base, wire::ShardMap map,
                         PublishDone done, Duration retry, int attempts_left) {
  EnsureContextPath(
      executor, client, base,
      [&executor, client, base, map, done, retry,
       attempts_left](Status ensured) {
        if (!ensured.ok()) {
          done(Result<wire::ShardMap>(ensured));
          return;
        }
        SwapShardMap(executor, client, base, map, done, retry, attempts_left);
      },
      retry, attempts_left);
}

}  // namespace

void PublishShardMap(Executor& executor, NameClient client,
                     const std::string& base, const wire::ShardMap& map,
                     std::function<void(Result<wire::ShardMap>)> done,
                     Duration retry, int max_attempts) {
  PublishShardMapStep(executor, std::move(client), base, map, std::move(done),
                      retry, max_attempts);
}

}  // namespace itv::naming
