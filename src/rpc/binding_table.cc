#include "src/rpc/binding_table.h"

namespace itv::rpc {

namespace {

// "<base>" for a "<base>/.shards" path; empty for any other path.
std::string_view MapBase(std::string_view path) {
  size_t slash = path.rfind('/');
  bool is_map = slash != std::string_view::npos &&
                path.substr(slash + 1) == wire::kShardMapBindingName;
  return is_map ? path.substr(0, slash) : std::string_view();
}

}  // namespace

BindingTable::BindingTable(ObjectRuntime& runtime, PathResolver resolver)
    : runtime_(runtime), resolver_(std::move(resolver)) {
  if (Metrics* metrics = runtime_.metrics()) {
    hits_ = &metrics->Intern("resolve.cache.hit");
    misses_ = &metrics->Intern("resolve.cache.miss");
  }
  observer_ = runtime_.AddStaleTargetObserver(
      [this](const wire::ObjectRef& target, bool) { OnStaleTarget(target); });
}

BindingTable::~BindingTable() {
  runtime_.RemoveStaleTargetObserver(observer_);
}

void BindingTable::Prime(std::string_view path, const wire::ObjectRef& ref) {
  Entry& entry = EntryFor(path, BindingOptions());
  entry.ref = ref;
  entry.fetched = runtime_.executor().Now();
}

void BindingTable::ReadMap(std::string_view base,
                           std::function<void(const wire::ShardMap&)> done,
                           const trace::TraceContext& op) {
  WithRef(EntryFor(wire::ShardMapPath(base), BindingOptions()), op,
          [done = std::move(done)](Result<wire::ObjectRef> map) {
            done(map.ok() ? wire::DecodeShardMapRef(*map) : wire::ShardMap{});
          });
}

std::optional<wire::ShardMap> BindingTable::CachedMap(
    std::string_view base) const {
  const Entry* entry = Find(wire::ShardMapPath(base));
  if (entry == nullptr || entry->ref.is_null()) {
    return std::nullopt;
  }
  return wire::DecodeShardMapRef(entry->ref);
}

const BindingTable::Entry* BindingTable::Find(std::string_view path) const {
  auto it = entries_.find(path);
  return it == entries_.end() ? nullptr : it->second.get();
}

BindingTable::Entry& BindingTable::EntryFor(std::string_view path,
                                            const BindingOptions& options) {
  auto it = entries_.find(path);
  if (it == entries_.end()) {
    uint64_t seed = options.jitter_seed;
    if (seed == 0) {
      // The incarnation is unique per process start, so settop fleets do
      // not share a jitter sequence and fall into herd waves.
      uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the path.
      for (char c : path) {
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
      }
      seed = runtime_.incarnation() ^ h;
    }
    auto entry = std::make_unique<Entry>();
    entry->path = std::string(path);
    entry->rng = Rng(seed);
    it = entries_.emplace(entry->path, std::move(entry)).first;
  }
  return *it->second;
}

bool BindingTable::Fresh(const Entry& entry) const {
  return entry.fetched.has_value() &&
         (!wire::IsShardMapRef(entry.ref) ||
          runtime_.executor().Now() - *entry.fetched <= kMapMaxAge);
}

void BindingTable::WithRef(Entry& entry, const trace::TraceContext& op,
                           std::function<void(Result<wire::ObjectRef>)> cb) {
  bool fresh = Fresh(entry);
  if (Metrics::Counter* lookups = fresh ? hits_ : misses_) {
    ++*lookups;
  }
  if (fresh) {
    cb(entry.ref);
    return;
  }
  Metrics* metrics = runtime_.metrics();
  entry.waiters.push_back(std::move(cb));
  if (entry.waiters.size() > 1) {
    ++entry.coalesced;
    if (metrics != nullptr) {
      metrics->Add("rebind.coalesced");
    }
    return;
  }
  ++entry.rebinds;
  if (metrics != nullptr) {
    metrics->Add("rebind.count");
  }
  trace::Tracer* tracer = runtime_.tracer();
  Time started = runtime_.executor().Now();
  trace::TraceContext span;
  if (tracer != nullptr && op.valid()) {
    span = tracer->Child(op);
  }
  // The lookup's own messages run under the resolve span, linking them into
  // the leader's trace.
  trace::ScopedContext scoped(tracer, span);
  resolver_(entry.path, [this, &entry, started,
                         span](Result<wire::ObjectRef> r) {
    if (Metrics* m = runtime_.metrics()) {
      m->Observe("rebind.latency", (runtime_.executor().Now() - started).seconds());
    }
    if (trace::Tracer* t = runtime_.tracer()) {
      t->Span(span, "rebind.resolve", started,
              entry.path + (r.ok() ? "" : " error=" + std::string(StatusCodeName(
                                                          r.status().code()))));
    }
    if (!MapBase(entry.path).empty()) {
      r = AdoptMap(entry, r);
    } else if (r.ok() && !r->is_null()) {
      entry.ref = *r;
      entry.fetched = runtime_.executor().Now();
    }
    std::vector<std::function<void(Result<wire::ObjectRef>)>> waiters;
    waiters.swap(entry.waiters);
    for (auto& waiter : waiters) {
      waiter(r);
    }
  });
}

// Monotonic adoption. A lower version is a lagging name-service replica: the
// adopted map keeps serving and stays expired, so the next read retries. A
// higher version is a live cutover; a shrink retires the dropped shards'
// entries so their cached primaries can never serve another call.
wire::ObjectRef BindingTable::AdoptMap(Entry& entry,
                                       const Result<wire::ObjectRef>& r) {
  bool known = !entry.ref.is_null();
  wire::ShardMap cached =
      known ? wire::DecodeShardMapRef(entry.ref) : wire::ShardMap{};
  Time now = runtime_.executor().Now();
  if (r.ok() && wire::IsShardMapRef(*r)) {
    wire::ShardMap fetched = wire::DecodeShardMapRef(*r);
    if (known && fetched.version < cached.version) {
      return entry.ref;
    }
    std::string base(MapBase(entry.path));
    bool cutover = known && fetched.version > cached.version;
    for (uint32_t shard = fetched.shard_count;
         cutover && shard < cached.shard_count; ++shard) {
      auto it = entries_.find(wire::ShardPath(base, shard));
      if (it != entries_.end()) {
        it->second->retired = true;
        it->second->fetched.reset();
        retired_.push_back(std::move(it->second));
        entries_.erase(it);
      }
    }
    entry.ref = *r;
    entry.fetched = now;
  } else if (r.ok() || (IsNotFound(r.status()) && !cached.sharded())) {
    // No ".shards" binding (or a foreign one): the service is unsharded.
    entry.ref = wire::EncodeShardMapRef(wire::ShardMap{});
    entry.fetched = now;
  } else if (!known) {
    // Transient with nothing adopted yet (the name service is unreachable):
    // route unsharded without caching; the shard entry surfaces the error.
    return wire::EncodeShardMapRef(wire::ShardMap{});
  }
  // Otherwise transient: the name service is unreachable, or a known-sharded
  // base answered NOT_FOUND in the versioned publish's unbind+bind gap rather
  // than going unsharded. The last adopted map keeps serving, expired.
  return entry.ref;
}

void BindingTable::OnStaleTarget(const wire::ObjectRef& target) {
  // Builtin selectors and shard maps are null-endpoint pseudo-refs: a call
  // that fails against one says nothing about any cached reference.
  if (target.endpoint.is_null()) {
    return;
  }
  for (auto& [path, entry] : entries_) {
    if (!entry->fetched.has_value() || entry->ref.endpoint != target.endpoint) {
      continue;
    }
    entry->fetched.reset();
    // The shard map that routed here may have been read from the failed
    // process's era; re-read it with the entry.
    size_t slash = path.rfind('/');
    if (slash != std::string::npos) {
      auto map = entries_.find(wire::ShardMapPath(path.substr(0, slash)));
      if (map != entries_.end()) {
        map->second->fetched.reset();
      }
    }
  }
}

}  // namespace itv::rpc
