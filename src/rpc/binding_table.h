// BindingTable: the client library's binding layer (paper Section 8.2):
//
//   "When the client attempts to invoke an object from a failed service, the
//    object communication system raises an exception. At this point, library
//    code in the client automatically returns to the name service to obtain
//    another object reference for the service."
//
// A per-process table keeps one entry per name-service path. Calls run
// against the entry's cached reference; a rebindable failure (UNAVAILABLE
// from a NACK, DEADLINE_EXCEEDED from a timeout) drops it, and the retry loop
// goes back to the resolver with jittered exponential backoff under a total
// deadline budget (the paper's recovery-storm mitigation, Section 9.7).
// Resolves are single-flight per entry, so a storm costs one lookup per
// process, not one per call.
//
// Besides a call's own rebindable error, the one invalidation source is the
// runtime's stale-target notification (the NACK of Section 3.2.1, or a call
// timeout): it drops every entry whose reference points at the failed
// endpoint, plus the shard map that routed to it. References never age;
// shard maps do (kMapMaxAge), because a reshard sends no NACK.
//
// A sharded service (wire/shard_map.h) is the same table reading the entry
// "<base>/.shards": BindSharded routes each call by key to the ordinary entry
// "<base>/<n>". A base with no ".shards" binding reads as a cached 1-shard
// map. Maps are adopted monotonically; a shrink retires dropped shards.
//
// The resolver is a plain function so this layer stays below naming/;
// naming::NameClient::PathResolverFn() adapts a name client into one.

#ifndef SRC_RPC_BINDING_TABLE_H_
#define SRC_RPC_BINDING_TABLE_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/future.h"
#include "src/common/rand.h"
#include "src/common/trace.h"
#include "src/rpc/runtime.h"
#include "src/wire/object_ref.h"
#include "src/wire/shard_map.h"

namespace itv::rpc {

inline bool IsRebindable(const Status& s) {
  return IsUnavailable(s) || IsDeadlineExceeded(s);
}

// Resolves a slash-separated service path ("svc/mms") to a fresh object
// reference; normally a name-service lookup.
using PathResolver = std::function<void(
    const std::string& path, std::function<void(Result<wire::ObjectRef>)>)>;

// Retry policy of one call through the table.
struct BindingOptions {
  // Total attempts, including the first. With primary/backup fail-over
  // taking up to 25 s under the paper's default intervals, callers that must
  // survive fail-over configure attempts * backoff to cover that.
  int max_attempts = 3;
  Duration initial_backoff = Duration::Millis(100);
  double backoff_multiplier = 2.0;
  Duration max_backoff = Duration::Seconds(10);
  // Fraction of each backoff delay randomized away (the delay is drawn from
  // [backoff * (1 - jitter), backoff]) so settop fleets do not retry in
  // lock-step herds.
  double backoff_jitter = 0.0;
  // Seed of the entry's jitter PRNG; 0 derives one from the process
  // incarnation and the path.
  uint64_t jitter_seed = 0;
  // Budget for the whole call: resolves, attempts and backoff together.
  Duration deadline = Duration::Infinite();
};

template <typename P>
class BoundClient;

class BindingTable {
 public:
  // How long a shard map is trusted before it is re-read.
  static constexpr Duration kMapMaxAge = Duration::Seconds(15);

  BindingTable(ObjectRuntime& runtime, PathResolver resolver);
  ~BindingTable();

  BindingTable(const BindingTable&) = delete;
  BindingTable& operator=(const BindingTable&) = delete;

  // Jitter and a finite budget: the recovery-storm posture every client
  // should have.
  static BindingOptions DefaultOptions() {
    BindingOptions options;
    options.backoff_jitter = 0.25;
    options.deadline = Duration::Seconds(30);
    return options;
  }

  ObjectRuntime& runtime() const { return runtime_; }

  // A typed client for the service bound at `path`.
  template <typename P>
  BoundClient<P> Bind(std::string_view path,
                      const BindingOptions& options = DefaultOptions()) {
    return BoundClient<P>(*this, std::string(path), options, false);
  }
  // A typed client for the sharded service rooted at `base`: each call picks
  // its shard from the map at "<base>/.shards".
  template <typename P>
  BoundClient<P> BindSharded(std::string_view base,
                             const BindingOptions& options = DefaultOptions()) {
    return BoundClient<P>(*this, std::string(base), options, true);
  }

  // Caches `ref` for `path` as if it had just been resolved (well-known
  // references; benches that start from a warm client).
  void Prime(std::string_view path, const wire::ObjectRef& ref);

  // Reads `base`'s shard map: the cached map while it is younger than
  // kMapMaxAge, else a single-flight re-read. May call `done` synchronously.
  void ReadMap(std::string_view base,
               std::function<void(const wire::ShardMap&)> done,
               const trace::TraceContext& op = {});
  // The map last adopted for `base` (possibly expired); empty before the
  // first read completes.
  std::optional<wire::ShardMap> CachedMap(std::string_view base) const;

  struct Entry {
    std::string path;
    wire::ObjectRef ref;          // Null until the first resolve.
    std::optional<Time> fetched;  // Empty while invalidated.
    bool retired = false;         // Dropped by a shrink: calls fail fast.
    std::vector<std::function<void(Result<wire::ObjectRef>)>> waiters;
    Rng rng;                      // Backoff jitter.
    uint64_t rebinds = 0;         // Lookups issued.
    uint64_t coalesced = 0;       // Lookups that joined one in flight.
  };
  const Entry* Find(std::string_view path) const;
  size_t size() const { return entries_.size(); }
  // Entries retired by shrinks stay allocated for the table's lifetime:
  // in-flight calls and their backoff timers still point at them.
  size_t retired_count() const { return retired_.size(); }

 private:
  template <typename P>
  friend class BoundClient;

  // One call's progress through the retry loop, which re-resolves the entry
  // on rebindable failures. The table must outlive the call.
  template <typename T>
  struct Op {
    Entry* entry;
    BindingOptions options;
    trace::TraceContext trace;
    std::optional<Time> deadline;
    int attempt;
    Duration backoff;
    std::function<Future<T>(const wire::ObjectRef&)> call;
    std::function<void(Result<T>)> done;
  };

  template <typename T>
  void Attempt(std::shared_ptr<Op<T>> op) {
    if (op->entry->retired) {
      // Terminal, not transient: a resolve would wait on a name the cutover
      // removed for good.
      op->done(FailedPreconditionError("binding retired by shard cutover"));
      return;
    }
    WithRef(*op->entry, op->trace, [this, op](Result<wire::ObjectRef> ref) {
      if (!ref.ok()) {
        // The binding may be missing mid-fail-over; retry.
        Retry(op, ref.status());
        return;
      }
      // Re-install this call's context: this runs from another call's
      // resolve completion or from a backoff timer.
      trace::ScopedContext scoped(runtime_.tracer(), op->trace);
      op->call(*ref).OnReady([this, op](const Result<T>& result) {
        if (result.ok() || !IsRebindable(result.status())) {
          op->done(result);
          return;
        }
        op->entry->fetched.reset();
        Retry(op, result.status());
      });
    });
  }

  template <typename T>
  void Retry(std::shared_ptr<Op<T>> op, const Status& error) {
    trace::Tracer* tracer = runtime_.tracer();
    if (tracer != nullptr && op->trace.valid()) {
      tracer->Instant(op->trace, "rebind.attempt",
                      op->entry->path + " attempt=" +
                          std::to_string(op->attempt) + " error=" +
                          std::string(StatusCodeName(error.code())));
    }
    if (op->attempt >= op->options.max_attempts) {
      op->done(error);
      return;
    }
    Duration delay = op->backoff;
    if (op->options.backoff_jitter > 0.0) {
      delay = delay *
              (1.0 - op->options.backoff_jitter * op->entry->rng.NextDouble());
    }
    Executor& executor = runtime_.executor();
    if (op->deadline.has_value() && executor.Now() + delay >= *op->deadline) {
      op->done(DeadlineExceededError(
          "rebind deadline budget exhausted after " +
          std::to_string(op->attempt) +
          " attempt(s); last error: " + error.message()));
      return;
    }
    ++op->attempt;
    op->backoff = std::min(op->backoff * op->options.backoff_multiplier,
                           op->options.max_backoff);
    executor.ScheduleAfter(delay, [this, op] { Attempt(op); });
  }

  Entry& EntryFor(std::string_view path, const BindingOptions& options);
  bool Fresh(const Entry& entry) const;
  // Hands `cb` the entry's reference: at once when fresh, else after the
  // entry's single-flight resolve. The resolve span belongs to the leader's
  // trace (`op`); coalesced callers' traces show only their own retries.
  void WithRef(Entry& entry, const trace::TraceContext& op,
               std::function<void(Result<wire::ObjectRef>)> cb);
  // Folds a fetched ".shards" result into the map entry; returns the map to
  // route by.
  wire::ObjectRef AdoptMap(Entry& entry, const Result<wire::ObjectRef>& r);
  void OnStaleTarget(const wire::ObjectRef& target);

  ObjectRuntime& runtime_;
  PathResolver resolver_;
  uint64_t observer_ = 0;
  Metrics::Counter* hits_ = nullptr;  // Lookups answered by the table.
  Metrics::Counter* misses_ = nullptr;
  std::map<std::string, std::unique_ptr<Entry>, std::less<>> entries_;
  std::vector<std::unique_ptr<Entry>> retired_;
};

// A typed smart proxy over a table path. `Bind` routes every call to the
// path itself (a constant 1-shard map); `BindSharded` routes each call by key
// under the base's current shard map. Copyable value; the table must outlive
// it.
template <typename P>
class BoundClient {
 public:
  BoundClient() = default;
  BoundClient(BindingTable& table, std::string path, BindingOptions options,
              bool sharded)
      : table_(&table),
        path_(std::move(path)),
        options_(options),
        sharded_(sharded) {}

  // Invokes `call` with a typed proxy bound to a valid reference, retrying
  // through re-resolution on rebindable failures. `deadline` overrides the
  // client's budget for this call.
  template <typename T>
  void Call(std::function<Future<T>(const P&)> call,
            std::function<void(Result<T>)> done,
            std::optional<Duration> deadline = std::nullopt) const {
    Dispatch<T>(0, false, deadline.value_or(options_.deadline),
                std::move(call), std::move(done));
  }
  // Routes by `key` (settop host, session owner, ...): a key keeps its shard
  // for as long as the map does.
  template <typename T>
  void Call(uint64_t key, std::function<Future<T>(const P&)> call,
            std::function<void(Result<T>)> done) const {
    Dispatch<T>(key, false, options_.deadline, std::move(call),
                std::move(done));
  }
  // Routes to shard index `shard`, modulo the map's shard count (a client
  // shed by its home shard retries against a sibling).
  template <typename T>
  void CallShard(uint32_t shard, std::function<Future<T>(const P&)> call,
                 std::function<void(Result<T>)> done) const {
    Dispatch<T>(shard, true, options_.deadline, std::move(call),
                std::move(done));
  }

 private:
  template <typename T>
  void Dispatch(uint64_t key, bool is_shard, Duration budget,
                std::function<Future<T>(const P&)> call,
                std::function<void(Result<T>)> done) const {
    ObjectRuntime* runtime = &table_->runtime();
    auto op = std::make_shared<BindingTable::Op<T>>(BindingTable::Op<T>{
        nullptr, options_, {}, std::nullopt, 1, options_.initial_backoff,
        [runtime, call = std::move(call)](const wire::ObjectRef& ref) {
          return call(P(*runtime, ref));
        },
        std::move(done)});
    if (runtime->tracer() != nullptr) {
      op->trace = runtime->tracer()->current();
    }
    if (!budget.is_infinite()) {
      op->deadline = runtime->executor().Now() + budget;
    }
    auto route = [table = table_, base = path_, key, is_shard,
                  op](const wire::ShardMap& map) {
      uint32_t shard = is_shard ? static_cast<uint32_t>(key % map.shard_count)
                                : wire::ShardOf(key, map);
      op->entry = &table->EntryFor(wire::ShardPath(base, shard, map),
                                   op->options);
      table->Attempt(op);
    };
    if (sharded_) {
      table_->ReadMap(path_, std::move(route), op->trace);
    } else {
      route(wire::ShardMap{});
    }
  }

  BindingTable* table_ = nullptr;
  std::string path_;
  BindingOptions options_;
  bool sharded_ = false;
};

}  // namespace itv::rpc

#endif  // SRC_RPC_BINDING_TABLE_H_
