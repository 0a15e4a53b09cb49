// Client binding contract tests: rpc::BindingTable and its BoundClient over
// the simulated cluster. The contract, in the order tested:
//
//   - a bound path resolves once and then answers from the table; a call's
//     own rebindable error, or a stale-target notification (NACK / timeout)
//     for the cached endpoint, drops the entry and the next attempt goes
//     back to the resolver, with jittered backoff under a deadline budget;
//   - resolves are single-flight per entry, so a recovery storm costs one
//     lookup per process, not one per call;
//   - resolved references never age; only shard maps do (kMapMaxAge);
//   - a sharded base routes each key to its shard's own entry, so a failure
//     on one shard re-resolves that shard and its map and nothing else;
//     maps are adopted monotonically, a shrink retires the dropped shards,
//     and a NOT_FOUND after a sharded map is the publish gap, not a flip;
//   - a plain Bind never reads a shard map, and a notification about a
//     null-endpoint pseudo-ref invalidates nothing.
//
// Suite names follow the layers this table replaced.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/naming/name_client.h"
#include "src/rpc/binding_table.h"
#include "src/rpc/runtime.h"
#include "src/rpc/stub_helpers.h"
#include "src/sim/cluster.h"
#include "src/svc/harness.h"
#include "src/svc/settop_manager.h"
#include "src/wire/shard_map.h"

namespace itv::rpc {
namespace {

// --- Ping stubs ---------------------------------------------------------------

inline constexpr std::string_view kPingInterface = "itv.test.Ping";
inline constexpr std::string_view kBase = "svc/ping";

enum PingMethod : uint32_t {
  kPingMethodPing = 1,
  kPingMethodFail = 2,  // Replies with `fail_with`.
  kPingMethodHang = 3,  // Never replies (the caller times out).
};

class PingSkeleton : public Skeleton {
 public:
  std::string_view interface_name() const override { return kPingInterface; }
  void Dispatch(uint32_t method_id, const wire::Bytes& args,
                const CallContext& ctx, ReplyFn reply) override {
    switch (method_id) {
      case kPingMethodPing:
        ++pings;
        return ReplyWith(reply, pings);
      case kPingMethodFail:
        return ReplyError(reply, fail_with);
      case kPingMethodHang:
        return;
      default:
        return ReplyBadMethod(reply, method_id);
    }
  }
  uint64_t pings = 0;
  Status fail_with = NotFoundError("nope");
};

class PingProxy : public Proxy {
 public:
  using Proxy::Proxy;
  Future<uint64_t> Ping() const {
    return DecodeReply<uint64_t>(Call(kPingMethodPing, {}));
  }
  Future<void> Fail() const { return DecodeEmptyReply(Call(kPingMethodFail, {})); }
  Future<void> Hang() const { return DecodeEmptyReply(Call(kPingMethodHang, {})); }
};

Future<uint64_t> Ping(const PingProxy& p) { return p.Ping(); }

// --- Single-service fixture ---------------------------------------------------

class BindingTableTest : public ::testing::Test {
 protected:
  BindingTableTest() {
    server_ = &cluster_.AddServer("forge");
    client_node_ = &cluster_.AddServer("kiln");
    client_proc_ = &client_node_->Spawn("client");
    SpawnService();
  }

  // (Re)starts the ping service on the same well-known port and records the
  // fresh reference as what the resolver hands out.
  void SpawnService() {
    server_proc_ = &server_->Spawn("ping", 700);
    skeleton_ = server_proc_->Emplace<PingSkeleton>();
    current_ref_ = server_proc_->runtime().Export(skeleton_);
  }

  void KillService() {
    server_->Kill(server_proc_->pid());
    cluster_.RunUntilIdle();
  }

  // A path resolver that counts lookups, like a name service would under
  // "ns.resolve". Paths in `names_` resolve to their own reference, every
  // other path to the ping service. Results are delivered asynchronously — a
  // real resolve is a name-service round trip, and single-flight coalescing
  // only matters while a lookup is genuinely in flight.
  PathResolver MakeResolver() {
    return [this](const std::string& path,
                  std::function<void(Result<wire::ObjectRef>)> cb) {
      ++resolve_calls_;
      ++resolves_by_path_[path];
      last_resolved_path_ = path;
      auto named = names_.find(path);
      wire::ObjectRef ref = named != names_.end() ? named->second : current_ref_;
      Result<wire::ObjectRef> r =
          ref.is_null() && !resolve_null_
              ? Result<wire::ObjectRef>(NotFoundError("no binding"))
              : Result<wire::ObjectRef>(ref);
      client_proc_->executor().ScheduleAfter(Duration::Millis(10),
                                             [cb, r] { cb(r); });
    };
  }

  BindingTable& Table() {
    if (table_ == nullptr) {
      table_ = client_proc_->Emplace<BindingTable>(client_proc_->runtime(),
                                                   MakeResolver());
    }
    return *table_;
  }

  // Calls Ping through `client` and runs the cluster for `run`.
  Result<uint64_t> PingVia(const BoundClient<PingProxy>& client,
                           Duration run = Duration::Seconds(1)) {
    Result<uint64_t> out = InternalError("unset");
    client.Call<uint64_t>(Ping, [&](Result<uint64_t> r) { out = std::move(r); });
    cluster_.RunFor(run);
    return out;
  }

  uint64_t Rebinds(std::string_view path) {
    const BindingTable::Entry* entry = Table().Find(path);
    return entry == nullptr ? 0 : entry->rebinds;
  }

  sim::Cluster cluster_;
  sim::Node* server_ = nullptr;
  sim::Node* client_node_ = nullptr;
  sim::Process* server_proc_ = nullptr;
  sim::Process* client_proc_ = nullptr;
  PingSkeleton* skeleton_ = nullptr;
  wire::ObjectRef current_ref_;
  std::map<std::string, wire::ObjectRef> names_;
  bool resolve_null_ = false;  // Answer OK with a null reference.
  BindingTable* table_ = nullptr;
  int resolve_calls_ = 0;
  std::map<std::string, int> resolves_by_path_;
  std::string last_resolved_path_;
};

// --- Bind, cache, re-resolve --------------------------------------------------

using RebinderTest = BindingTableTest;

TEST_F(RebinderTest, FirstCallResolvesAndSucceeds) {
  Result<uint64_t> out = PingVia(Table().Bind<PingProxy>("svc/ping"));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, 1u);
  EXPECT_EQ(resolve_calls_, 1);
}

TEST_F(RebinderTest, CachedRefSkipsResolve) {
  BoundClient<PingProxy> ping = Table().Bind<PingProxy>("svc/ping");
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(PingVia(ping).ok());
  }
  EXPECT_EQ(resolve_calls_, 1);
  EXPECT_EQ(Rebinds("svc/ping"), 1u);
}

TEST_F(RebinderTest, RebindsAfterServiceRestart) {
  BoundClient<PingProxy> ping = Table().Bind<PingProxy>("svc/ping");
  ASSERT_TRUE(PingVia(ping).ok());

  // Restart the service on the same port: the cached reference now NACKs.
  KillService();
  SpawnService();
  Result<uint64_t> out = PingVia(ping, Duration::Seconds(5));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, 1u);  // The new incarnation answered.
  EXPECT_EQ(resolve_calls_, 2);  // One initial + one rebind.
}

TEST_F(RebinderTest, GivesUpAfterMaxAttempts) {
  KillService();
  BindingOptions opts;
  opts.max_attempts = 3;
  opts.initial_backoff = Duration::Millis(10);
  Result<uint64_t> out =
      PingVia(Table().Bind<PingProxy>("svc/ping", opts), Duration::Seconds(10));
  EXPECT_TRUE(IsUnavailable(out.status())) << out.status();
  EXPECT_EQ(resolve_calls_, 3);
}

TEST_F(RebinderTest, NonRebindableErrorsAreNotRetried) {
  Result<void> out = OkStatus();
  Table().Bind<PingProxy>("svc/ping").Call<void>(
      [](const PingProxy& p) { return p.Fail(); },
      [&](Result<void> r) { out = std::move(r); });
  cluster_.RunFor(Duration::Seconds(2));
  EXPECT_TRUE(IsNotFound(out.status()));
  EXPECT_EQ(resolve_calls_, 1);
}

TEST_F(RebinderTest, ResolveFailureRetriesUntilBindingAppears) {
  // The binding appears only after 1 second (e.g. primary/backup fail-over).
  wire::ObjectRef live = current_ref_;
  current_ref_ = wire::ObjectRef{};
  client_proc_->executor().ScheduleAfter(Duration::Seconds(1),
                                         [this, live] { current_ref_ = live; });
  BindingOptions opts;
  opts.max_attempts = 20;
  opts.initial_backoff = Duration::Millis(200);
  opts.backoff_multiplier = 1.0;
  Result<uint64_t> out =
      PingVia(Table().Bind<PingProxy>("svc/ping", opts), Duration::Seconds(10));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_GT(resolve_calls_, 1);
}

TEST_F(BindingTableTest, BindResolvesByPathAndCaches) {
  BoundClient<PingProxy> ping = Table().Bind<PingProxy>("svc/ping");
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(PingVia(ping).ok());
  }
  EXPECT_EQ(resolve_calls_, 1);  // First call resolves; the rest hit the cache.
  EXPECT_EQ(last_resolved_path_, "svc/ping");
  EXPECT_EQ(Table().size(), 1u);
  ASSERT_NE(Table().Find("svc/ping"), nullptr);
  EXPECT_EQ(Table().Find("svc/ping")->ref, current_ref_);
  EXPECT_EQ(Table().Find("svc/other"), nullptr);
}

TEST_F(BindingTableTest, SameBindingSharedAcrossBinds) {
  BindingOptions other;
  other.max_attempts = 7;
  ASSERT_TRUE(PingVia(Table().Bind<PingProxy>("svc/ping")).ok());
  ASSERT_TRUE(PingVia(Table().Bind<PingProxy>("svc/ping", other)).ok());
  EXPECT_EQ(Table().size(), 1u);  // Options are per call; the entry is per path.
  EXPECT_EQ(resolve_calls_, 1);
}

TEST_F(BindingTableTest, PinnedBindingNeverConsultsResolver) {
  // A primed entry (a well-known reference) answers without any lookup.
  Table().Prime("ping/pinned", current_ref_);
  BoundClient<PingProxy> ping = Table().Bind<PingProxy>("ping/pinned");
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(PingVia(ping).ok());
  }
  EXPECT_EQ(resolve_calls_, 0);
}

// --- Single-flight re-resolution ----------------------------------------------

TEST_F(BindingTableTest, ConcurrentColdCallsCoalesceIntoOneResolve) {
  constexpr int kCalls = 16;
  BoundClient<PingProxy> ping = Table().Bind<PingProxy>("svc/ping");
  int ok = 0;
  for (int i = 0; i < kCalls; ++i) {
    ping.Call<uint64_t>(Ping, [&](Result<uint64_t> r) { ok += r.ok(); });
  }
  cluster_.RunFor(Duration::Seconds(5));
  EXPECT_EQ(ok, kCalls);
  EXPECT_EQ(resolve_calls_, 1);  // One lookup for all sixteen calls.
  EXPECT_EQ(Table().Find("svc/ping")->rebinds, 1u);
  EXPECT_EQ(Table().Find("svc/ping")->coalesced, kCalls - 1u);
}

TEST_F(BindingTableTest, StormAfterRestartCoalescesPerProcess) {
  // Warm the cache, then restart the service: every concurrent call fails
  // with UNAVAILABLE and wants to re-resolve at once. The entry must fold
  // them into one lookup (plus the initial one).
  BindingOptions opts;  // No jitter: keep the retry instants aligned so the
  opts.initial_backoff = Duration::Millis(50);  // storm truly collides.
  BoundClient<PingProxy> ping = Table().Bind<PingProxy>("svc/ping", opts);
  ASSERT_TRUE(PingVia(ping).ok());

  KillService();
  SpawnService();

  constexpr int kCalls = 12;
  int ok = 0;
  for (int i = 0; i < kCalls; ++i) {
    ping.Call<uint64_t>(Ping, [&](Result<uint64_t> r) { ok += r.ok(); });
  }
  cluster_.RunFor(Duration::Seconds(10));
  EXPECT_EQ(ok, kCalls);
  // One warm-up resolve plus one shared post-restart resolve.
  EXPECT_EQ(resolve_calls_, 2);
  EXPECT_EQ(Table().Find("svc/ping")->rebinds, 2u);
  EXPECT_GE(Table().Find("svc/ping")->coalesced, kCalls - 1u);
}

TEST_F(BindingTableTest, FailedSharedResolveFailsAllWaiters) {
  current_ref_ = wire::ObjectRef{};  // Resolver finds nothing.
  BindingOptions opts;
  opts.max_attempts = 2;
  opts.initial_backoff = Duration::Millis(10);
  BoundClient<PingProxy> ping = Table().Bind<PingProxy>("svc/ping", opts);
  int failed = 0;
  for (int i = 0; i < 5; ++i) {
    ping.Call<uint64_t>(Ping, [&](Result<uint64_t> r) { failed += !r.ok(); });
  }
  cluster_.RunFor(Duration::Seconds(5));
  EXPECT_EQ(failed, 5);
  // Two attempts each, but resolves stay shared per retry wave, far below
  // the 10 a per-call lookup would cost.
  EXPECT_LE(resolve_calls_, 4);
}

TEST_F(BindingTableTest, ShardStormDoesNotReresolveOtherShards) {
  // Each path has its own entry: a re-resolution storm on one shard's path
  // stays on that entry, and the others keep their cached references.
  BindingOptions opts;
  opts.initial_backoff = Duration::Millis(50);
  std::vector<BoundClient<PingProxy>> shards;
  for (int s = 1; s <= 4; ++s) {
    shards.push_back(
        Table().Bind<PingProxy>("svc/ping/" + std::to_string(s), opts));
    ASSERT_TRUE(PingVia(shards.back()).ok());
  }

  KillService();
  SpawnService();
  // All four paths share the service's endpoint, so the storm's NACKs drop
  // every entry; only shard 4 calls, and only shard 4 may resolve.
  constexpr int kStorm = 10;
  int storm_ok = 0;
  for (int i = 0; i < kStorm; ++i) {
    shards[3].Call<uint64_t>(Ping,
                             [&](Result<uint64_t> r) { storm_ok += r.ok(); });
  }
  cluster_.RunFor(Duration::Seconds(10));
  EXPECT_EQ(storm_ok, kStorm);
  // Shard 4: initial resolve plus one shared post-restart resolve.
  EXPECT_EQ(resolves_by_path_["svc/ping/4"], 2);
  EXPECT_GE(Table().Find("svc/ping/4")->coalesced,
            static_cast<uint64_t>(kStorm - 1));
  // Shards 1-3: untouched by the storm.
  for (int s = 1; s <= 3; ++s) {
    EXPECT_EQ(resolves_by_path_["svc/ping/" + std::to_string(s)], 1)
        << "shard " << s;
    EXPECT_EQ(Rebinds("svc/ping/" + std::to_string(s)), 1u) << "shard " << s;
  }
}

// --- Deadline propagation -----------------------------------------------------

TEST_F(BindingTableTest, DeadlineBudgetExhaustedMidFailover) {
  // Service dies and never comes back; the resolver keeps handing out the
  // dead reference, so every attempt fails UNAVAILABLE and wants to retry.
  // A 2 s budget must cut the retry loop short with DEADLINE_EXCEEDED well
  // before the 20-attempt policy runs out.
  KillService();
  BindingOptions opts;
  opts.max_attempts = 20;
  opts.initial_backoff = Duration::Millis(500);
  opts.backoff_multiplier = 2.0;
  BoundClient<PingProxy> ping = Table().Bind<PingProxy>("svc/ping", opts);

  Result<uint64_t> out = InternalError("unset");
  bool done = false;
  Time start = cluster_.Now();
  ping.Call<uint64_t>(
      Ping,
      [&](Result<uint64_t> r) {
        out = std::move(r);
        done = true;
      },
      Duration::Seconds(2));
  cluster_.RunFor(Duration::Seconds(30));
  ASSERT_TRUE(done);
  EXPECT_TRUE(IsDeadlineExceeded(out.status())) << out.status();
  // The budget was honored: we gave up around the 2 s mark, not after the
  // full exponential-backoff ladder (which would take > 15 s).
  EXPECT_LE((cluster_.Now() - start).seconds(), 30.0);
  EXPECT_LT(Table().Find("svc/ping")->rebinds, 8u);
}

TEST_F(BindingTableTest, BudgetLeftoverAllowsRecovery) {
  // Fail-over completes inside the budget: the call must ride through it.
  BoundClient<PingProxy> ping = Table().Bind<PingProxy>("svc/ping");
  ASSERT_TRUE(PingVia(ping).ok());

  KillService();
  SpawnService();

  Result<uint64_t> out = InternalError("unset");
  ping.Call<uint64_t>(
      Ping, [&](Result<uint64_t> r) { out = std::move(r); },
      Duration::Seconds(10));
  cluster_.RunFor(Duration::Seconds(15));
  EXPECT_TRUE(out.ok()) << out.status();
}

// --- Metrics, jitter, lifetime ------------------------------------------------

TEST_F(BindingTableTest, RebindMetricsFlowIntoProcessMetrics) {
  Metrics& m = cluster_.metrics();
  uint64_t count_before = m.Get("rebind.count");
  uint64_t coalesced_before = m.Get("rebind.coalesced");

  BoundClient<PingProxy> ping = Table().Bind<PingProxy>("svc/ping");
  int ok = 0;
  for (int i = 0; i < 4; ++i) {
    ping.Call<uint64_t>(Ping, [&](Result<uint64_t> r) { ok += r.ok(); });
  }
  cluster_.RunFor(Duration::Seconds(5));
  ASSERT_EQ(ok, 4);
  EXPECT_EQ(m.Get("rebind.count") - count_before, 1u);
  EXPECT_EQ(m.Get("rebind.coalesced") - coalesced_before, 3u);
  const Histogram* latency = m.FindHistogram("rebind.latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_GE(latency->count(), 1u);
}

TEST_F(BindingTableTest, JitteredBackoffStaysWithinConfiguredBounds) {
  // With jitter, retry delays land in (backoff * (1 - jitter), backoff]: the
  // whole ladder finishes no later than un-jittered, and still finishes.
  KillService();
  current_ref_ = wire::ObjectRef{};
  BindingOptions opts;
  opts.max_attempts = 4;
  opts.initial_backoff = Duration::Millis(100);
  opts.backoff_multiplier = 2.0;
  opts.backoff_jitter = 0.5;
  opts.jitter_seed = 42;
  BoundClient<PingProxy> ping = Table().Bind<PingProxy>("svc/ping", opts);
  bool done = false;
  Time start = cluster_.Now();
  Time done_at;
  ping.Call<uint64_t>(Ping, [&](Result<uint64_t> r) {
    done = !r.ok();
    done_at = cluster_.Now();
  });
  cluster_.RunFor(Duration::Seconds(5));
  ASSERT_TRUE(done);
  double elapsed = (done_at - start).seconds();
  // Un-jittered ladder: 100 + 200 + 400 ms of sleep plus four 10 ms
  // resolves. Jitter in [0, 0.5) only shortens delays.
  EXPECT_LE(elapsed, 0.8);
  EXPECT_EQ(resolve_calls_, 4);
}

TEST_F(BindingTableTest, TableDestroyedBeforeRuntimeIgnoresLaterNack) {
  // A table that goes away while its process lives on (a settop reboot
  // rebuilds its table) must stop observing the runtime: a later NACK for
  // the reference it cached must not reach it.
  auto table =
      std::make_unique<BindingTable>(client_proc_->runtime(), MakeResolver());
  ASSERT_TRUE(PingVia(table->Bind<PingProxy>("svc/ping")).ok());
  wire::ObjectRef stale = current_ref_;
  table.reset();

  KillService();
  SpawnService();
  Future<uint64_t> call = PingProxy(client_proc_->runtime(), stale).Ping();
  cluster_.RunFor(Duration::Seconds(1));
  ASSERT_TRUE(call.is_ready());
  EXPECT_TRUE(IsUnavailable(call.result().status()));
}

// --- Entry lifecycle (the contract the process resolution cache had) ----------

using ResolutionCacheTest = BindingTableTest;

TEST_F(ResolutionCacheTest, MissThenInsertThenHit) {
  Metrics& m = cluster_.metrics();
  uint64_t hits = m.Get("resolve.cache.hit");
  uint64_t misses = m.Get("resolve.cache.miss");
  BoundClient<PingProxy> ping = Table().Bind<PingProxy>("svc/ping");
  ASSERT_TRUE(PingVia(ping).ok());
  EXPECT_EQ(m.Get("resolve.cache.miss") - misses, 1u);
  EXPECT_EQ(m.Get("resolve.cache.hit") - hits, 0u);
  ASSERT_TRUE(PingVia(ping).ok());
  EXPECT_EQ(m.Get("resolve.cache.miss") - misses, 1u);
  EXPECT_EQ(m.Get("resolve.cache.hit") - hits, 1u);
}

TEST_F(ResolutionCacheTest, NullRefsAreNeverCached) {
  // A resolver answering OK with a null reference leaves the entry empty:
  // the call fails, and the next one asks the resolver again.
  current_ref_ = wire::ObjectRef{};
  resolve_null_ = true;
  BoundClient<PingProxy> ping = Table().Bind<PingProxy>("svc/ping");
  EXPECT_FALSE(PingVia(ping).ok());
  EXPECT_FALSE(Table().Find("svc/ping")->fetched.has_value());
  EXPECT_FALSE(PingVia(ping).ok());
  EXPECT_EQ(resolve_calls_, 2);
}

TEST_F(ResolutionCacheTest, InvalidateTargetDropsAllPathsToEndpoint) {
  sim::Process& other = server_->Spawn("other", 701);
  names_["svc/c"] = other.runtime().Export(other.Emplace<PingSkeleton>());
  for (const char* path : {"svc/a", "svc/b", "svc/c"}) {
    ASSERT_TRUE(PingVia(Table().Bind<PingProxy>(path)).ok()) << path;
  }
  // Any call NACKed by the ping process (here: an object it never exported)
  // is evidence against every entry pointing at that process.
  wire::ObjectRef missing = current_ref_;
  missing.object_id = 999;
  (void)PingProxy(client_proc_->runtime(), missing).Ping();
  cluster_.RunFor(Duration::Seconds(1));
  EXPECT_FALSE(Table().Find("svc/a")->fetched.has_value());
  EXPECT_FALSE(Table().Find("svc/b")->fetched.has_value());
  EXPECT_TRUE(Table().Find("svc/c")->fetched.has_value());
}

TEST_F(ResolutionCacheTest, EntriesExpireAfterMaxAge) {
  // Only maps age: a reshard sends no NACK. References are dropped only by
  // evidence (an error or a stale-target notification).
  names_[wire::ShardMapPath(kBase)] = wire::EncodeShardMapRef({4});
  BoundClient<PingProxy> ping = Table().BindSharded<PingProxy>(kBase);
  ASSERT_TRUE(PingVia(ping).ok());
  cluster_.RunFor(BindingTable::kMapMaxAge - Duration::Seconds(3));
  ASSERT_TRUE(PingVia(ping).ok());
  EXPECT_EQ(resolves_by_path_[wire::ShardMapPath(kBase)], 1);
  cluster_.RunFor(BindingTable::kMapMaxAge);
  ASSERT_TRUE(PingVia(ping).ok());
  EXPECT_EQ(resolves_by_path_[wire::ShardMapPath(kBase)], 2);
  EXPECT_EQ(resolve_calls_, 3);  // Two map reads, one shard resolve.
}

TEST_F(ResolutionCacheTest, DefaultMaxAgeBoundaryIsInclusive) {
  ASSERT_EQ(BindingTable::kMapMaxAge, Duration::Seconds(15));
  names_[wire::ShardMapPath(kBase)] = wire::EncodeShardMapRef({4});
  auto read = [this] {
    Table().ReadMap(kBase, [](const wire::ShardMap&) {});
  };
  read();
  cluster_.RunFor(Duration::Seconds(1));
  Time fetched = *Table().Find(wire::ShardMapPath(kBase))->fetched;
  // A map exactly kMapMaxAge old still serves: expiry is `age > max age`.
  cluster_.RunUntil(fetched + BindingTable::kMapMaxAge);
  read();
  EXPECT_EQ(resolve_calls_, 1);
  cluster_.RunFor(Duration::Millis(1));
  read();
  EXPECT_EQ(resolve_calls_, 2);
}

TEST_F(ResolutionCacheTest, InvalidateTargetDropsSiblingShardMap) {
  // Two shards on two processes, routed by a 2-shard map.
  wire::ShardMap map{2};
  names_[wire::ShardMapPath(kBase)] = wire::EncodeShardMapRef(map);
  std::vector<sim::Process*> shards;
  for (uint32_t s = 0; s < 2; ++s) {
    shards.push_back(&server_->Spawn("shard", static_cast<uint16_t>(701 + s)));
    names_[wire::ShardPath(kBase, s)] =
        shards[s]->runtime().Export(shards[s]->Emplace<PingSkeleton>());
  }
  BoundClient<PingProxy> ping = Table().BindSharded<PingProxy>(kBase);
  for (uint32_t s = 0; s < 2; ++s) {
    uint64_t key = 1;
    while (wire::ShardOf(key, map) != s) {
      ++key;
    }
    bool ok = false;
    ping.Call<uint64_t>(key, Ping, [&](Result<uint64_t> r) { ok = r.ok(); });
    cluster_.RunFor(Duration::Seconds(1));
    ASSERT_TRUE(ok) << "shard " << s;
  }
  // A NACK from shard 1's dead primary drops that shard's entry AND the map
  // that routed to it; the other shard keeps its entry.
  wire::ObjectRef dead = names_[wire::ShardPath(kBase, 0)];
  server_->Kill(shards[0]->pid());
  cluster_.RunUntilIdle();
  (void)PingProxy(client_proc_->runtime(), dead).Ping();
  cluster_.RunFor(Duration::Seconds(1));
  EXPECT_FALSE(Table().Find(wire::ShardPath(kBase, 0))->fetched.has_value());
  EXPECT_FALSE(Table().Find(wire::ShardMapPath(kBase))->fetched.has_value());
  EXPECT_TRUE(Table().Find(wire::ShardPath(kBase, 1))->fetched.has_value());
}

TEST_F(ResolutionCacheTest, InvalidatePathDropsOnlyThatPath) {
  // A call's own rebindable error (here an UNAVAILABLE reply, no NACK)
  // re-resolves that call's path only, even when another path shares the
  // endpoint.
  skeleton_->fail_with = UnavailableError("busy");
  ASSERT_TRUE(PingVia(Table().Bind<PingProxy>("svc/b")).ok());
  BindingOptions twice;
  twice.max_attempts = 2;
  twice.initial_backoff = Duration::Millis(10);
  Result<void> out = OkStatus();
  Table().Bind<PingProxy>("svc/a", twice).Call<void>(
      [](const PingProxy& p) { return p.Fail(); },
      [&](Result<void> r) { out = std::move(r); });
  cluster_.RunFor(Duration::Seconds(2));
  EXPECT_TRUE(IsUnavailable(out.status()));
  EXPECT_EQ(resolves_by_path_["svc/a"], 2);
  EXPECT_EQ(resolves_by_path_["svc/b"], 1);
  EXPECT_TRUE(Table().Find("svc/b")->fetched.has_value());
}

// --- Sharded bases ------------------------------------------------------------

TEST(ShardMapTest, EncodeDecodeRoundtrip) {
  wire::ShardMap map{5, 0xfeedfacecafebeefull};
  wire::ObjectRef ref = wire::EncodeShardMapRef(map);
  EXPECT_TRUE(wire::IsShardMapRef(ref));
  EXPECT_FALSE(ref.is_null());  // Must survive name-server bind validation.
  EXPECT_EQ(wire::DecodeShardMapRef(ref), map);

  wire::ObjectRef live;
  live.endpoint = wire::Endpoint{7, 700};
  live.incarnation = 3;
  live.object_id = 9;
  EXPECT_FALSE(wire::IsShardMapRef(live));
}

TEST(ShardMapTest, ShardOfIsStableAndInRange) {
  wire::ShardMap map{4, wire::kDefaultShardSalt};
  for (uint64_t key = 1; key < 200; ++key) {
    uint32_t s = wire::ShardOf(key, map);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, wire::ShardOf(key, map));  // Pure function of (key, map).
  }
  // Unsharded map routes everything to shard 0 / the base path.
  wire::ShardMap single;
  EXPECT_EQ(wire::ShardOf(12345, single), 0u);
  EXPECT_EQ(wire::ShardPath(kBase, 0, single), kBase);
  EXPECT_EQ(wire::ShardPath(kBase, 2, map), "svc/ping/3");
}

class ShardRouterTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kShards = 4;

  ShardRouterTest() {
    server_ = &cluster_.AddServer("forge");
    client_node_ = &cluster_.AddServer("kiln");
    client_proc_ = &client_node_->Spawn("client");
    map_.shard_count = kShards;
    for (uint32_t s = 0; s < kShards; ++s) {
      SpawnShard(s);
    }
    table_ = client_proc_->Emplace<BindingTable>(client_proc_->runtime(),
                                                 MakeResolver());
  }

  // (Re)starts shard `s`'s primary on a fresh port; the resolver hands out
  // the fresh reference afterwards, like a promoted backup's new binding.
  void SpawnShard(uint32_t s) {
    ++spawn_count_[s];
    procs_[s] = &server_->Spawn("shard-" + std::to_string(s),
                                700 + s + 10 * spawn_count_[s]);
    skeletons_[s] = procs_[s]->Emplace<PingSkeleton>();
    refs_[s] = procs_[s]->runtime().Export(skeletons_[s]);
  }

  void KillShard(uint32_t s) {
    server_->Kill(procs_[s]->pid());
    cluster_.RunUntilIdle();
  }

  // Name-service stand-in: serves the shard map at "<base>/.shards" (unless
  // unsharded), shard primaries at "<base>/1".."<base>/N", and — in the
  // unsharded configuration — shard 0's servant at the base path itself.
  // Counts lookups per path; async delivery like a real NS round trip.
  PathResolver MakeResolver() {
    return [this](const std::string& path,
                  std::function<void(Result<wire::ObjectRef>)> cb) {
      ++resolves_[path];
      Result<wire::ObjectRef> r(NotFoundError("no binding"));
      if (path == wire::ShardMapPath(kBase)) {
        if (sharded_) {
          r = Result<wire::ObjectRef>(wire::EncodeShardMapRef(map_));
        }
      } else if (!sharded_ && path == kBase) {
        r = Result<wire::ObjectRef>(refs_[0]);
      } else {
        for (uint32_t s = 0; s < kShards; ++s) {
          if (path == wire::ShardPath(kBase, s)) {
            r = Result<wire::ObjectRef>(refs_[s]);
          }
        }
      }
      client_proc_->executor().ScheduleAfter(Duration::Millis(10),
                                             [cb, r] { cb(r); });
    };
  }

  // Smallest key that hashes to `shard` under the test map.
  uint64_t KeyFor(uint32_t shard) {
    for (uint64_t k = 1;; ++k) {
      if (wire::ShardOf(k, map_) == shard) {
        return k;
      }
    }
  }

  BindingOptions FastRetry() {
    BindingOptions opts;
    opts.initial_backoff = Duration::Millis(50);
    opts.max_attempts = 20;
    return opts;
  }

  // One ping routed by `key`, run to completion.
  bool Call(uint64_t key, Duration run = Duration::Seconds(2)) {
    bool ok = false;
    table_->BindSharded<PingProxy>(kBase, FastRetry())
        .Call<uint64_t>(key, Ping, [&](Result<uint64_t> r) { ok = r.ok(); });
    cluster_.RunFor(run);
    return ok;
  }

  // Lets every cached map age out; references stay.
  void AgeMaps() {
    cluster_.RunFor(BindingTable::kMapMaxAge + Duration::Seconds(1));
  }

  uint32_t AdoptedVersion() {
    std::optional<wire::ShardMap> map = table_->CachedMap(kBase);
    return map.has_value() ? map->version : 0;
  }
  bool Fresh(const std::string& path) {
    const BindingTable::Entry* entry = table_->Find(path);
    return entry != nullptr && entry->fetched.has_value();
  }
  uint64_t Rebinds(uint32_t s) {
    return table_->Find(wire::ShardPath(kBase, s))->rebinds;
  }
  int MapResolves() { return resolves_[wire::ShardMapPath(kBase)]; }
  int ShardResolves(uint32_t s) { return resolves_[wire::ShardPath(kBase, s)]; }

  sim::Cluster cluster_;
  sim::Node* server_ = nullptr;
  sim::Node* client_node_ = nullptr;
  sim::Process* client_proc_ = nullptr;
  sim::Process* procs_[kShards] = {};
  PingSkeleton* skeletons_[kShards] = {};
  wire::ObjectRef refs_[kShards];
  int spawn_count_[kShards] = {};
  wire::ShardMap map_;
  bool sharded_ = true;
  BindingTable* table_ = nullptr;
  std::map<std::string, int> resolves_;
};

TEST_F(ShardRouterTest, RoutesByKeyAndCachesTheMap) {
  for (uint32_t s = 0; s < kShards; ++s) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(Call(KeyFor(s), Duration::Millis(200)));
    }
  }
  // Every shard's servant saw exactly its keys' calls: routing is by hash,
  // not round-robin or sticky-to-first.
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(skeletons_[s]->pings, 3u) << "shard " << s;
    EXPECT_EQ(ShardResolves(s), 1) << "shard " << s;
  }
  // One map fetch served all twelve routes.
  EXPECT_EQ(MapResolves(), 1);
  ASSERT_TRUE(table_->CachedMap(kBase).has_value());
  EXPECT_EQ(*table_->CachedMap(kBase), map_);
}

TEST_F(ShardRouterTest, HashStableAcrossMapReloads) {
  uint64_t key = KeyFor(3);
  ASSERT_TRUE(Call(key));
  EXPECT_EQ(skeletons_[3]->pings, 1u);

  // Re-read the map: the same key must land on the same shard, or sessions
  // would straddle primaries.
  AgeMaps();
  ASSERT_TRUE(Call(key));
  EXPECT_EQ(MapResolves(), 2);  // The reload really happened...
  EXPECT_EQ(ShardResolves(3), 1);  // ...while the reference did not age.
  EXPECT_EQ(skeletons_[3]->pings, 2u);
  for (uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(skeletons_[s]->pings, 0u) << "shard " << s;
  }
}

TEST_F(ShardRouterTest, UnshardedServiceFallsBackToBasePath) {
  sharded_ = false;  // ".shards" now resolves NOT_FOUND, like any plain name.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(Call(/*key=*/i * 977 + 1, Duration::Millis(200)));
  }
  EXPECT_EQ(skeletons_[0]->pings, 5u);  // Every key routes to the base path.
  EXPECT_EQ(resolves_[std::string(kBase)], 1);
  // The NOT_FOUND is cached as a 1-shard map: one lookup, not one per call.
  EXPECT_EQ(MapResolves(), 1);
  ASSERT_TRUE(table_->CachedMap(kBase).has_value());
  EXPECT_FALSE(table_->CachedMap(kBase)->sharded());
}

TEST_F(ShardRouterTest, PlainBindIssuesNoShardMapLookup) {
  // Bind is a constant 1-shard map: it must never probe "<path>/.shards",
  // or every heartbeating settop would pay one lookup per map age.
  sharded_ = false;
  BoundClient<PingProxy> base = table_->Bind<PingProxy>(kBase, FastRetry());
  for (int i = 0; i < 3; ++i) {
    bool ok = false;
    base.Call<uint64_t>(Ping, [&](Result<uint64_t> r) { ok = r.ok(); });
    cluster_.RunFor(Duration::Seconds(1));
    ASSERT_TRUE(ok);
    AgeMaps();
  }
  EXPECT_EQ(MapResolves(), 0);
  EXPECT_EQ(resolves_[std::string(kBase)], 1);
}

// --- Per-shard blast radius ---------------------------------------------------

TEST_F(ShardRouterTest, PrimaryMoveRebindsOnlyThatShard) {
  for (uint32_t s = 0; s < kShards; ++s) {
    ASSERT_TRUE(Call(KeyFor(s))) << "shard " << s;
  }

  // Shard 2's primary dies and a new incarnation takes over its binding.
  KillShard(2);
  SpawnShard(2);
  ASSERT_TRUE(Call(KeyFor(2)));
  EXPECT_EQ(skeletons_[2]->pings, 1u);  // The new incarnation answered.

  // Only shard 2 re-resolved; the other shards' entries were never touched.
  EXPECT_EQ(ShardResolves(2), 2);
  for (uint32_t s : {0u, 1u, 3u}) {
    EXPECT_EQ(ShardResolves(s), 1) << "shard " << s;
    EXPECT_EQ(Rebinds(s), 1u) << "shard " << s;
  }
  // Other shards still answer without any new lookups.
  ASSERT_TRUE(Call(KeyFor(0)));
  EXPECT_EQ(ShardResolves(0), 1);
}

TEST_F(ShardRouterTest, TimeoutOnOneShardReresolvesOnlyThatShardAndItsMap) {
  for (uint32_t s = 0; s < kShards; ++s) {
    ASSERT_TRUE(Call(KeyFor(s))) << "shard " << s;
  }
  // Shard 2's primary stops answering: one call times out (no retry).
  BindingOptions once = FastRetry();
  once.max_attempts = 1;
  Result<void> hung = OkStatus();
  table_->BindSharded<PingProxy>(kBase, once)
      .Call<void>(KeyFor(2), [](const PingProxy& p) { return p.Hang(); },
                  [&](Result<void> r) { hung = std::move(r); });
  cluster_.RunFor(Duration::Seconds(3));
  EXPECT_TRUE(IsDeadlineExceeded(hung.status())) << hung.status();
  EXPECT_FALSE(Fresh(wire::ShardPath(kBase, 2)));
  EXPECT_FALSE(Fresh(wire::ShardMapPath(kBase)));

  for (uint32_t s = 0; s < kShards; ++s) {
    ASSERT_TRUE(Call(KeyFor(s))) << "shard " << s;
  }
  EXPECT_EQ(MapResolves(), 2);
  EXPECT_EQ(ShardResolves(2), 2);
  for (uint32_t s : {0u, 1u, 3u}) {
    EXPECT_EQ(ShardResolves(s), 1) << "shard " << s;
  }
}

TEST_F(ShardRouterTest, NullEndpointNotificationKeepsEveryMap) {
  // Short runs: the whole test stays inside one map age.
  for (uint32_t s = 0; s < kShards; ++s) {
    ASSERT_TRUE(Call(KeyFor(s), Duration::Millis(200))) << "shard " << s;
  }
  // A call to a pseudo-ref (a builtin selector, say: null endpoint, nonzero
  // incarnation) times out, and the runtime reports it stale. No cached
  // reference or map is routed through a null endpoint, so nothing drops.
  wire::ObjectRef pseudo;
  pseudo.incarnation = 1;
  pseudo.type_id = wire::TypeIdFromName(kPingInterface);
  Future<uint64_t> probe = PingProxy(client_proc_->runtime(), pseudo).Ping();
  cluster_.RunFor(Duration::Seconds(3));
  ASSERT_TRUE(probe.is_ready());
  EXPECT_FALSE(probe.result().ok());
  EXPECT_TRUE(Fresh(wire::ShardMapPath(kBase)));

  for (uint32_t s = 0; s < kShards; ++s) {
    ASSERT_TRUE(Call(KeyFor(s), Duration::Millis(200))) << "shard " << s;
    EXPECT_EQ(ShardResolves(s), 1) << "shard " << s;
  }
  EXPECT_EQ(MapResolves(), 1);
}

TEST_F(ShardRouterTest, StormOnOneShardIsSingleFlightPerShard) {
  for (uint32_t s = 0; s < kShards; ++s) {
    ASSERT_TRUE(Call(KeyFor(s))) << "shard " << s;
  }

  // Shard 3 fails over, then takes a 12-call storm at one virtual instant.
  KillShard(3);
  SpawnShard(3);
  constexpr int kStorm = 12;
  int ok = 0;
  BoundClient<PingProxy> ping = table_->BindSharded<PingProxy>(kBase, FastRetry());
  for (int i = 0; i < kStorm; ++i) {
    ping.Call<uint64_t>(KeyFor(3), Ping,
                        [&](Result<uint64_t> r) { ok += r.ok(); });
  }
  cluster_.RunFor(Duration::Seconds(10));
  EXPECT_EQ(ok, kStorm);

  // The storm folded into one shared re-resolve on shard 3's entry...
  EXPECT_EQ(ShardResolves(3), 2);
  EXPECT_GE(table_->Find(wire::ShardPath(kBase, 3))->coalesced,
            static_cast<uint64_t>(kStorm - 1));
  // ...and shards 0-2 saw no re-resolution at all.
  for (uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(ShardResolves(s), 1) << "shard " << s;
    EXPECT_EQ(Rebinds(s), 1u) << "shard " << s;
  }
}

// --- Versioned adoption (live resharding) -------------------------------------

TEST_F(ShardRouterTest, ShrinkCutoverRetiresDroppedShardBindings) {
  // Prime every shard's entry under v1.
  for (uint32_t s = 0; s < kShards; ++s) {
    ASSERT_TRUE(Call(KeyFor(s))) << "shard " << s;
  }
  EXPECT_EQ(AdoptedVersion(), 1u);

  // Publish v2: 4 -> 2 shards. The next route past the map's age re-reads it
  // and must cut over: dropped shards' entries retire at adoption.
  uint64_t old_keys[kShards];
  uint64_t pings_before[kShards];
  for (uint32_t s = 0; s < kShards; ++s) {
    old_keys[s] = KeyFor(s);
    pings_before[s] = skeletons_[s]->pings;
  }
  map_ = wire::NextShardMap(map_, 2);
  AgeMaps();
  for (uint32_t s = 0; s < kShards; ++s) {
    ASSERT_TRUE(Call(old_keys[s])) << "old shard " << s;
  }
  EXPECT_EQ(AdoptedVersion(), 2u);
  EXPECT_EQ(table_->retired_count(), 2u);
  // The dropped shards' entries are gone from the live table and their
  // servants saw no post-cutover traffic.
  EXPECT_EQ(table_->Find(wire::ShardPath(kBase, 2)), nullptr);
  EXPECT_EQ(table_->Find(wire::ShardPath(kBase, 3)), nullptr);
  EXPECT_EQ(skeletons_[2]->pings, pings_before[2]);
  EXPECT_EQ(skeletons_[3]->pings, pings_before[3]);
  // Surviving shards keep their entries (no gratuitous re-resolution).
  EXPECT_EQ(ShardResolves(0), 1);
  EXPECT_EQ(ShardResolves(1), 1);
}

TEST_F(ShardRouterTest, IgnoresStaleLowerVersionMap) {
  wire::ShardMap v1 = map_;
  ASSERT_TRUE(Call(KeyFor(0)));

  // Adopt v2 (same shard count: a pure version bump, no retirement).
  map_ = wire::NextShardMap(v1, kShards);
  AgeMaps();
  ASSERT_TRUE(Call(KeyFor(1)));
  ASSERT_EQ(AdoptedVersion(), 2u);
  EXPECT_EQ(table_->retired_count(), 0u);

  // A lagging name-service replica re-serves v1: the table must keep v2 AND
  // keep the map expired, so every route re-fetches until the replicas
  // converge on the new map.
  map_ = v1;
  AgeMaps();
  int fetches = MapResolves();
  ASSERT_TRUE(Call(KeyFor(2)));
  EXPECT_EQ(AdoptedVersion(), 2u);
  EXPECT_EQ(MapResolves(), fetches + 1);
  ASSERT_TRUE(Call(KeyFor(3)));
  EXPECT_EQ(MapResolves(), fetches + 2);  // Still refetching: not adopted.

  // The replica catches up; the fetch parks the map fresh again.
  map_ = wire::NextShardMap(v1, kShards);
  ASSERT_TRUE(Call(KeyFor(0)));
  int settled = MapResolves();
  ASSERT_TRUE(Call(KeyFor(1)));
  EXPECT_EQ(MapResolves(), settled);  // Cache hit: adoption refreshed it.
}

TEST_F(ShardRouterTest, NotFoundAfterShardedMapIsTransient) {
  ASSERT_TRUE(Call(KeyFor(3)));
  EXPECT_EQ(skeletons_[3]->pings, 1u);

  // The versioned publish swaps ".shards" with unbind+bind; a resolve lands
  // in the gap and sees NOT_FOUND. The table must NOT flip to unsharded —
  // that would hash every key to the base path mid-cutover.
  sharded_ = false;
  AgeMaps();
  ASSERT_TRUE(Call(KeyFor(3)));
  EXPECT_EQ(skeletons_[3]->pings, 2u);  // Still routed to shard 3.
  ASSERT_TRUE(table_->CachedMap(kBase).has_value());
  EXPECT_TRUE(table_->CachedMap(kBase)->sharded());
  int fetches = MapResolves();
  ASSERT_TRUE(Call(KeyFor(3)));
  EXPECT_EQ(MapResolves(), fetches + 1);  // Stays expired: keeps retrying.

  // The publish's bind half lands; the next fetch re-adopts and settles.
  sharded_ = true;
  ASSERT_TRUE(Call(KeyFor(3)));
  int settled = MapResolves();
  ASSERT_TRUE(Call(KeyFor(3)));
  EXPECT_EQ(MapResolves(), settled);
}

TEST_F(ShardRouterTest, SettopStormDuringCutoverSingleFlightsTheMapFetch) {
  // Prime under v1.
  for (uint32_t s = 0; s < kShards; ++s) {
    ASSERT_TRUE(Call(KeyFor(s), Duration::Millis(200)));
  }
  ASSERT_EQ(MapResolves(), 1);

  // Cutover to v2 (4 -> 2) lands while 64 settops all route at one virtual
  // instant. This process must fold the storm into ONE map fetch — fetches
  // stay O(processes), not O(settops) — and every call must complete.
  map_ = wire::NextShardMap(map_, 2);
  AgeMaps();
  constexpr int kSettops = 64;
  int ok = 0;
  BoundClient<PingProxy> ping = table_->BindSharded<PingProxy>(kBase, FastRetry());
  for (int i = 0; i < kSettops; ++i) {
    ping.Call<uint64_t>(/*key=*/i * 977 + 1, Ping,
                        [&](Result<uint64_t> r) { ok += r.ok(); });
  }
  cluster_.RunFor(Duration::Seconds(10));
  EXPECT_EQ(ok, kSettops);
  EXPECT_EQ(MapResolves(), 2);  // One pre-cutover fetch + one for the storm.
  EXPECT_EQ(AdoptedVersion(), 2u);
  // Post-cutover traffic stayed on the surviving shards.
  EXPECT_EQ(skeletons_[2]->pings + skeletons_[3]->pings, 2u);  // Priming only.
}

// --- Through the cluster harness ----------------------------------------------

class CacheHarnessTest : public ::testing::Test {
 protected:
  CacheHarnessTest() {
    svc::HarnessOptions opts;
    opts.server_count = 2;
    harness_ = std::make_unique<svc::ClusterHarness>(opts);
    harness_->Boot();
  }

  sim::Cluster& cluster() { return harness_->cluster(); }

  // Spawns a ping servant on `server` and binds it at `path`.
  PingSkeleton* BindPing(size_t server, const std::string& path) {
    sim::Process& service = harness_->SpawnProcessOn(server, "pingsvc");
    auto* skeleton = service.Emplace<PingSkeleton>();
    wire::ObjectRef ref = service.runtime().Export(skeleton);
    // Registered with its SSC, so the name service's audit keeps it bound.
    svc::SscProxy ssc(service.runtime(), svc::SscRefAt(service.host()));
    ssc.NotifyReady(service.pid(), {ref}).OnReady([](const Result<void>&) {});
    sim::Process& setup = harness_->SpawnProcessOn(0, "setup");
    naming::NameClient nc = harness_->ClientFor(setup);
    nc.Unbind(path).OnReady([](const Result<void>&) {});
    cluster().RunFor(Duration::Seconds(1));
    bool bound = false;
    nc.Bind(path, ref).OnReady([&bound](const Result<void>& r) { bound = r.ok(); });
    cluster().RunFor(Duration::Seconds(1));
    EXPECT_TRUE(bound);
    return skeleton;
  }

  bool PingVia(const BoundClient<PingProxy>& client) {
    bool ok = false;
    client.Call<uint64_t>(Ping, [&](Result<uint64_t> r) { ok = r.ok(); });
    cluster().RunFor(Duration::Seconds(1));
    return ok;
  }

  std::unique_ptr<svc::ClusterHarness> harness_;
};

TEST_F(CacheHarnessTest, CacheHitSkipsNameServiceRpc) {
  BindPing(1, "svc/cacheping");
  sim::Process& proc = harness_->SpawnProcessOn(0, "client");
  auto* table = proc.Emplace<BindingTable>(
      proc.runtime(), harness_->ClientFor(proc).PathResolverFn());
  BoundClient<PingProxy> ping = table->Bind<PingProxy>("svc/cacheping");
  ASSERT_TRUE(PingVia(ping));
  // Background services resolve through the same name service, so the
  // global ns.resolve counter cannot be compared exactly; the table's own
  // count can: a hit means this client sent zero NS messages.
  ASSERT_TRUE(PingVia(ping));
  ASSERT_TRUE(PingVia(ping));
  EXPECT_EQ(table->Find("svc/cacheping")->rebinds, 1u);
}

TEST_F(CacheHarnessTest, NackInvalidatesThenExactlyOneReResolve) {
  BindPing(0, "svc/cacheping");
  sim::Node& settop = harness_->AddSettop(1);
  sim::Process& proc = settop.Spawn("app");
  auto* table = proc.Emplace<BindingTable>(
      proc.runtime(), harness_->ClientFor(proc).PathResolverFn());
  BoundClient<PingProxy> ping = table->Bind<PingProxy>("svc/cacheping");
  ASSERT_TRUE(PingVia(ping));

  // Kill v1 and bind a replacement on the other server (new endpoint).
  // (Bounded runs, not RunUntilIdle: primary binders keep verifying their
  // bindings forever, so a booted cluster never goes idle.)
  harness_->server(0).Kill(harness_->server(0).FindProcessByName("pingsvc")->pid());
  cluster().RunFor(Duration::Seconds(1));
  PingSkeleton* replacement = BindPing(1, "svc/cacheping");

  // The call through the stale reference NACKs, the entry drops, and exactly
  // one lookup recovers it; later calls hit the table again.
  ASSERT_TRUE(PingVia(ping));
  EXPECT_EQ(table->Find("svc/cacheping")->rebinds, 2u);
  ASSERT_TRUE(PingVia(ping));
  EXPECT_EQ(table->Find("svc/cacheping")->rebinds, 2u);
  EXPECT_EQ(replacement->pings, 2u);
}

// --- Acceptance: recovery-storm resolve count is O(processes) -----------------

TEST(BindingStormTest, ResolvesScaleWithProcessesNotCalls) {
  // 64 settop processes each hold a primed binding to a popular service and
  // fire 4 concurrent calls right after the service restarts (paper Section
  // 8.2's recovery storm). Without single-flight the name service would see
  // ~256 resolves; the binding layer folds each process's calls into one.
  constexpr size_t kSettops = 64;
  constexpr int kCallsPerSettop = 4;

  svc::HarnessOptions hopts;
  hopts.server_count = 2;
  hopts.start_csc = false;
  svc::ClusterHarness harness(hopts);
  harness.Boot();
  sim::Cluster& cluster = harness.cluster();

  auto spawn_service = [&]() -> wire::ObjectRef {
    sim::Process& p = harness.SpawnProcessOn(1, "popular");
    auto* skeleton = p.Emplace<svc::SettopManagerService>(p.executor());
    wire::ObjectRef ref = p.runtime().Export(skeleton);
    svc::SscProxy ssc(p.runtime(), svc::SscRefAt(p.host()));
    ssc.NotifyReady(p.pid(), {ref}).OnReady([](const Result<void>&) {});
    return ref;
  };
  wire::ObjectRef ref_v1 = spawn_service();
  sim::Process& setup = harness.SpawnProcessOn(0, "setup");
  harness.ClientFor(setup).Bind("svc/popular", ref_v1).OnReady(
      [](const Result<void>&) {});
  cluster.RunFor(Duration::Seconds(2));

  struct SettopClient {
    sim::Process* process;
    BindingTable* table;
    int ok = 0;
  };
  std::vector<SettopClient> settops;
  settops.reserve(kSettops);
  for (size_t i = 0; i < kSettops; ++i) {
    sim::Node& node = harness.AddSettop(static_cast<uint8_t>(1 + (i % 2)));
    sim::Process& p = node.Spawn("client");
    auto* table = p.Emplace<BindingTable>(
        p.runtime(), harness.ClientFor(p).PathResolverFn());
    table->Prime("svc/popular", ref_v1);
    settops.push_back(SettopClient{&p, table});
  }

  // Restart the popular service and repoint the name binding.
  harness.server(1).Kill(harness.server(1).FindProcessByName("popular")->pid());
  cluster.RunFor(Duration::Millis(200));
  wire::ObjectRef ref_v2 = spawn_service();
  harness.ClientFor(setup).Unbind("svc/popular").OnReady(
      [](const Result<void>&) {});
  cluster.RunFor(Duration::Seconds(1));
  harness.ClientFor(setup).Bind("svc/popular", ref_v2).OnReady(
      [](const Result<void>&) {});
  cluster.RunFor(Duration::Seconds(1));

  uint64_t resolves_before = harness.metrics().Get("ns.resolve");

  // The storm: every settop fires all its calls at the same virtual instant.
  for (SettopClient& s : settops) {
    BoundClient<svc::SettopManagerProxy> mgr =
        s.table->Bind<svc::SettopManagerProxy>("svc/popular");
    for (int c = 0; c < kCallsPerSettop; ++c) {
      sim::Process* p = s.process;
      SettopClient* self = &s;
      mgr.Call<void>(
          [p](const svc::SettopManagerProxy& proxy) {
            return proxy.Heartbeat(p->host());
          },
          [self](Result<void> r) { self->ok += r.ok(); });
    }
  }
  cluster.RunFor(Duration::Seconds(30));

  uint64_t total_calls = 0;
  uint64_t coalesced = 0;
  for (const SettopClient& s : settops) {
    EXPECT_EQ(s.ok, kCallsPerSettop);
    total_calls += kCallsPerSettop;
    coalesced += s.table->Find("svc/popular")->coalesced;
  }
  uint64_t resolves = harness.metrics().Get("ns.resolve") - resolves_before;
  // O(processes): every settop needs about one lookup; allow slack for a
  // straggler retry, but stay far below one lookup per in-flight call.
  EXPECT_GE(resolves, kSettops / 2);
  EXPECT_LE(resolves, 2 * kSettops);
  EXPECT_LT(resolves, total_calls);
  // The folded calls show up in the coalescing counters. (Not every extra
  // call coalesces — jitter spreads retries, and late ones hit the already
  // refreshed entry, which is just as cheap.)
  EXPECT_GT(coalesced, 0u);
}

}  // namespace
}  // namespace itv::rpc
