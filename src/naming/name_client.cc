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

void PrimaryBinder::Start(std::function<void()> on_primary,
                          std::function<void()> on_demoted) {
  ITV_CHECK(!running_);
  running_ = true;
  on_primary_ = std::move(on_primary);
  on_demoted_ = std::move(on_demoted);
  if (!options_.first_bind_delay.is_zero()) {
    retry_timer_ = executor_.ScheduleAfter(options_.first_bind_delay, [this] {
      retry_timer_ = kInvalidTimerId;
      TryBind();
    });
    return;
  }
  TryBind();
}

void PrimaryBinder::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  if (retry_timer_ != kInvalidTimerId) {
    executor_.Cancel(retry_timer_);
    retry_timer_ = kInvalidTimerId;
  }
  if (!is_primary_) {
    return;
  }
  is_primary_ = false;
  // Release the name so a backup can win on its next retry instead of
  // stalling until the audit removes the binding. Best-effort, and only
  // after confirming the binding is still ours: between losing the name and
  // the verify loop noticing, an unconditional unbind would evict the new
  // primary.
  NamingContextProxy root(client_.runtime(), client_.root());
  root.Resolve(SplitPath(path_))
      .OnReady([client = client_, path = path_,
                my_ref = my_ref_](const Result<wire::ObjectRef>& r) {
        if (r.ok() && *r == my_ref) {
          client.Unbind(path).OnReady([](const Result<void>&) {});
        }
      });
}

void PrimaryBinder::Count(std::string_view counter) {
  if (options_.metrics != nullptr) {
    options_.metrics->Add(counter);
  }
}

void PrimaryBinder::TryBind() {
  if (!running_ || is_primary_) {
    return;
  }
  ++bind_attempts_;
  Count("binder.bind_attempts");
  // Each bind attempt roots a trace: when a backup finally wins after the
  // audit removes the dead primary's binding, the winning attempt's
  // bind.primary instant is the fail-over timeline's recovery marker.
  trace::Tracer* tracer = client_.runtime().tracer();
  trace::TraceContext ctx;
  Time begin;
  if (tracer != nullptr) {
    ctx = tracer->StartTrace();
    begin = tracer->now();
  }
  trace::ScopedContext scoped(tracer, ctx);
  client_.Bind(path_, my_ref_).OnReady([this, ctx, begin](
                                           const Result<void>& r) {
    if (!running_) {
      return;
    }
    trace::Tracer* tracer = client_.runtime().tracer();
    if (r.ok()) {
      is_primary_ = true;
      if (tracer != nullptr) {
        tracer->Span(ctx, "bind.attempt", begin, path_);
        tracer->Instant(ctx, trace::kEventBindPrimary, path_);
      }
      ITV_LOG(Info) << "primary/backup: became primary for " << path_;
      if (on_primary_) {
        on_primary_();
      }
      // A primary can lose its binding while alive: a transient network
      // fault makes the RAS report it dead and the NS audit unbinds it.
      // Keep verifying the binding and re-assert it when it disappears.
      retry_timer_ = executor_.ScheduleAfter(options_.retry_interval, [this] {
        retry_timer_ = kInvalidTimerId;
        VerifyPrimary();
      });
      return;
    }
    // ALREADY_EXISTS: a primary is alive. Anything else (no master elected,
    // name service briefly unreachable): retry as well.
    if (tracer != nullptr) {
      tracer->Span(ctx, "bind.attempt", begin,
                   path_ + " error=" +
                       std::string(StatusCodeName(r.status().code())));
    }
    if (IsAlreadyExists(r.status())) {
      // The existing binding may be our own (e.g. we demoted on a stale
      // NOT_FOUND answered by a lagging name-service replica while the
      // master still holds our binding). Check before settling into the
      // backup loop: if the name points at us, we never stopped being
      // primary.
      NamingContextProxy root(client_.runtime(), client_.root());
      root.Resolve(SplitPath(path_))
          .OnReady([this](const Result<wire::ObjectRef>& resolved) {
            if (!running_ || is_primary_) {
              return;
            }
            if (resolved.ok() && *resolved == my_ref_) {
              is_primary_ = true;
              ITV_LOG(Info) << "primary/backup: binding for " << path_
                            << " still ours; resuming as primary";
              // Reaching here means is_primary_ was false — either we demoted
              // (on_demoted fired) or we never won — so the owner needs the
              // promotion notification to leave its backup role.
              if (on_primary_) {
                on_primary_();
              }
              retry_timer_ =
                  executor_.ScheduleAfter(options_.retry_interval, [this] {
                    retry_timer_ = kInvalidTimerId;
                    VerifyPrimary();
                  });
              return;
            }
            retry_timer_ =
                executor_.ScheduleAfter(options_.retry_interval, [this] {
                  retry_timer_ = kInvalidTimerId;
                  TryBind();
                });
          });
      return;
    }
    retry_timer_ = executor_.ScheduleAfter(options_.retry_interval, [this] {
      retry_timer_ = kInvalidTimerId;
      TryBind();
    });
  });
}

void PrimaryBinder::VerifyPrimary() {
  if (!running_ || !is_primary_) {
    return;
  }
  // Ask the name service, never a cached binding: a cached entry could be
  // our own stale binding and mask the loss this probe exists to detect.
  client_.Resolve(path_).OnReady([this](const Result<wire::ObjectRef>& r) {
    if (!running_ || !is_primary_) {
      return;
    }
    if (r.ok() && *r == my_ref_) {
      // Still the registered primary.
      retry_timer_ = executor_.ScheduleAfter(options_.retry_interval, [this] {
        retry_timer_ = kInvalidTimerId;
        VerifyPrimary();
      });
      return;
    }
    if (r.ok()) {
      // Another replica holds the name: we were unbound and lost the
      // re-election. Rejoin the backup retry loop.
      ++demotions_;
      Count("binder.demotions");
      is_primary_ = false;
      ITV_LOG(Info) << "primary/backup: lost binding for " << path_
                    << " to another replica";
      if (on_demoted_) {
        on_demoted_();
      }
      retry_timer_ = executor_.ScheduleAfter(options_.retry_interval, [this] {
        retry_timer_ = kInvalidTimerId;
        TryBind();
      });
      return;
    }
    if (IsNotFound(r.status())) {
      // The binding is gone — an audit false positive — or the answering
      // replica is lagging and has not seen it yet. Re-assert WITHOUT
      // demoting: if the name is genuinely free the bind restores it, and
      // ALREADY_EXISTS just proves the NOT_FOUND was stale. Demoting here
      // would deadlock: a false backup whose own binding survives gets
      // ALREADY_EXISTS forever and never serves again.
      client_.Bind(path_, my_ref_).OnReady([this](const Result<void>& bound) {
        if (!running_ || !is_primary_) {
          return;
        }
        if (bound.ok()) {
          ITV_LOG(Info) << "primary/backup: re-asserted binding for " << path_;
        }
        retry_timer_ = executor_.ScheduleAfter(options_.retry_interval, [this] {
          retry_timer_ = kInvalidTimerId;
          VerifyPrimary();
        });
      });
      return;
    }
    // Name service unreachable or masterless: no evidence either way, keep
    // primaryship and probe again later.
    retry_timer_ = executor_.ScheduleAfter(options_.retry_interval, [this] {
      retry_timer_ = kInvalidTimerId;
      VerifyPrimary();
    });
  });
}

}  // namespace itv::naming
