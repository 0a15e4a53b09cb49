// Name service tests: context tree semantics, replicated contexts and
// selectors, master election and update replication, and auditing (paper
// Section 4). The primary/backup election over the name space (Section 5)
// is tested in lifecycle_test.cc.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rand.h"
#include "src/naming/context_tree.h"
#include "src/naming/name_client.h"
#include "src/naming/name_server.h"
#include "src/naming/selector.h"
#include "src/sim/cluster.h"

namespace itv::naming {
namespace {

wire::ObjectRef FakeRef(uint32_t host, uint16_t port, uint64_t object_id = 1,
                        std::string_view type = "itv.test.Svc") {
  wire::ObjectRef ref;
  ref.endpoint = {host, port};
  ref.incarnation = 99;
  ref.type_id = wire::TypeIdFromName(type);
  ref.object_id = object_id;
  return ref;
}

NameUpdate Bind(const std::string& path, const wire::ObjectRef& ref) {
  return NameUpdate{NameOp::kBind, SplitPath(path), ref};
}
NameUpdate Unbind(const std::string& path) {
  return NameUpdate{NameOp::kUnbind, SplitPath(path), {}};
}
NameUpdate NewContext(const std::string& path) {
  return NameUpdate{NameOp::kBindNewContext, SplitPath(path), {}};
}
NameUpdate NewReplContext(const std::string& path) {
  return NameUpdate{NameOp::kBindReplContext, SplitPath(path), {}};
}

// --- ContextTree --------------------------------------------------------------

TEST(ContextTreeTest, BindAndListInNestedContexts) {
  ContextTree tree;
  ASSERT_TRUE(tree.Apply(NewContext("svc")).ok());
  ASSERT_TRUE(tree.Apply(Bind("svc/mms", FakeRef(1, 2))).ok());
  auto list = tree.List(SplitPath("svc"));
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ((*list)[0].name, "mms");
  EXPECT_EQ((*list)[0].kind, BindingKind::kObject);
}

TEST(ContextTreeTest, BindIntoMissingContextFails) {
  ContextTree tree;
  EXPECT_TRUE(IsNotFound(tree.Apply(Bind("svc/mms", FakeRef(1, 2)))));
}

TEST(ContextTreeTest, DoubleBindIsAlreadyExists) {
  ContextTree tree;
  ASSERT_TRUE(tree.Apply(NewContext("svc")).ok());
  ASSERT_TRUE(tree.Apply(Bind("svc/mms", FakeRef(1, 2))).ok());
  EXPECT_TRUE(IsAlreadyExists(tree.Apply(Bind("svc/mms", FakeRef(3, 4)))));
}

TEST(ContextTreeTest, SelectorSlotIsRebindable) {
  ContextTree tree;
  ASSERT_TRUE(tree.Apply(NewReplContext("svc")).ok());
  ASSERT_TRUE(
      tree.Apply(Bind("svc/selector",
                      MakeBuiltinSelectorRef(BuiltinSelector::kFirst)))
          .ok());
  EXPECT_TRUE(
      tree.Apply(Bind("svc/selector",
                      MakeBuiltinSelectorRef(BuiltinSelector::kRoundRobin)))
          .ok());
}

TEST(ContextTreeTest, SelectorSlotNeverReplacesALocalContext) {
  // A policy bind on a replicated context's selector slot must not destroy a
  // local context bound there, empty or not: its export would outlive it.
  ContextTree tree;
  ASSERT_TRUE(tree.Apply(NewReplContext("r")).ok());
  ASSERT_TRUE(tree.Apply(NewContext("r/selector")).ok());
  ASSERT_TRUE(tree.Apply(Bind("r/selector/x", FakeRef(1, 2))).ok());
  NameUpdate policy =
      Bind("r/selector", MakeBuiltinSelectorRef(BuiltinSelector::kFirst));
  EXPECT_EQ(tree.Apply(policy).code(), StatusCode::kFailedPrecondition);
  auto list = tree.List(SplitPath("r/selector"));
  ASSERT_TRUE(list.ok()) << list.status();
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ((*list)[0].name, "x");

  ASSERT_TRUE(tree.Apply(Unbind("r/selector/x")).ok());
  EXPECT_EQ(tree.Apply(policy).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(tree.Apply(Unbind("r/selector")).ok());
  EXPECT_TRUE(tree.Apply(policy).ok());
}

TEST(ContextTreeTest, UnbindNonEmptyContextFails) {
  ContextTree tree;
  ASSERT_TRUE(tree.Apply(NewContext("svc")).ok());
  ASSERT_TRUE(tree.Apply(Bind("svc/x", FakeRef(1, 2))).ok());
  EXPECT_EQ(tree.Apply(Unbind("svc")).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(tree.Apply(Unbind("svc/x")).ok());
  EXPECT_TRUE(tree.Apply(Unbind("svc")).ok());
}

TEST(ContextTreeTest, SnapshotRoundTripPreservesStructure) {
  ContextTree tree;
  ASSERT_TRUE(tree.Apply(NewContext("svc")).ok());
  ASSERT_TRUE(tree.Apply(NewReplContext("svc/rds")).ok());
  ASSERT_TRUE(tree.Apply(Bind("svc/rds/1", FakeRef(1, 2))).ok());
  ASSERT_TRUE(tree.Apply(Bind("svc/rds/2", FakeRef(3, 4))).ok());
  ASSERT_TRUE(tree
                  .Apply(Bind("svc/rds/selector",
                              MakeBuiltinSelectorRef(BuiltinSelector::kFirst)))
                  .ok());

  auto decoded = ContextTree::DecodeSnapshot(tree.EncodeSnapshot());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(tree.StructurallyEquals(*decoded));
  EXPECT_EQ(decoded->node_count(), tree.node_count());
}

TEST(ContextTreeTest, CorruptSnapshotRejected) {
  ContextTree tree;
  ASSERT_TRUE(tree.Apply(NewContext("svc")).ok());
  wire::Bytes snap = tree.EncodeSnapshot();
  snap.push_back(0xff);
  EXPECT_FALSE(ContextTree::DecodeSnapshot(snap).ok());
}

TEST(ContextTreeTest, SameUpdateSequenceYieldsIdenticalTrees) {
  std::vector<NameUpdate> updates = {
      NewContext("svc"),        NewReplContext("svc/mds"),
      Bind("svc/mds/1", FakeRef(1, 2)), Bind("svc/mds/2", FakeRef(3, 4)),
      Bind("svc/db", FakeRef(5, 6)),    Unbind("svc/mds/1"),
  };
  ContextTree a, b;
  for (const NameUpdate& u : updates) {
    Status sa = a.Apply(u);
    Status sb = b.Apply(u);
    EXPECT_EQ(sa.code(), sb.code());
  }
  EXPECT_TRUE(a.StructurallyEquals(b));
}

TEST(ContextTreeTest, AllBoundObjectsSkipsSelectorsAndContexts) {
  ContextTree tree;
  ASSERT_TRUE(tree.Apply(NewContext("svc")).ok());
  ASSERT_TRUE(tree.Apply(NewReplContext("svc/rds")).ok());
  ASSERT_TRUE(tree.Apply(Bind("svc/rds/1", FakeRef(1, 2))).ok());
  ASSERT_TRUE(tree
                  .Apply(Bind("svc/rds/selector",
                              MakeBuiltinSelectorRef(BuiltinSelector::kFirst)))
                  .ok());
  ASSERT_TRUE(tree.Apply(Bind("svc/db", FakeRef(3, 4))).ok());
  auto objects = tree.AllBoundObjects();
  ASSERT_EQ(objects.size(), 2u);
  EXPECT_EQ(JoinPath(objects[0].path), "svc/db");
  EXPECT_EQ(JoinPath(objects[1].path), "svc/rds/1");
}

// --- Builtin selectors ----------------------------------------------------------

TEST(SelectorTest, FirstAndRoundRobin) {
  std::vector<std::string> names{"1", "2", "3"};
  std::vector<wire::ObjectRef> refs(3);
  uint64_t rr = 0;
  EXPECT_EQ(EvalBuiltinSelector(BuiltinSelector::kFirst, 0, names, refs, &rr),
            0u);
  EXPECT_EQ(
      EvalBuiltinSelector(BuiltinSelector::kRoundRobin, 0, names, refs, &rr),
      0u);
  EXPECT_EQ(
      EvalBuiltinSelector(BuiltinSelector::kRoundRobin, 0, names, refs, &rr),
      1u);
  EXPECT_EQ(
      EvalBuiltinSelector(BuiltinSelector::kRoundRobin, 0, names, refs, &rr),
      2u);
  EXPECT_EQ(
      EvalBuiltinSelector(BuiltinSelector::kRoundRobin, 0, names, refs, &rr),
      0u);
}

TEST(SelectorTest, ByCallerHostMatchesAndFallsBack) {
  std::vector<std::string> names{"a", "b"};
  std::vector<wire::ObjectRef> refs{FakeRef(100, 1), FakeRef(200, 1)};
  uint64_t rr = 0;
  EXPECT_EQ(EvalBuiltinSelector(BuiltinSelector::kByCallerHost, 200, names,
                                refs, &rr),
            1u);
  EXPECT_EQ(EvalBuiltinSelector(BuiltinSelector::kByCallerHost, 999, names,
                                refs, &rr),
            0u);
}

TEST(SelectorTest, NeighborhoodSelectsByCallerIp) {
  std::vector<std::string> names{"1", "2"};
  std::vector<wire::ObjectRef> refs(2);
  uint64_t rr = 0;
  uint32_t settop_nb2 = MakeSettopHost(2, 7);
  EXPECT_EQ(EvalBuiltinSelector(BuiltinSelector::kNeighborhood, settop_nb2,
                                names, refs, &rr),
            1u);
  uint32_t settop_nb9 = MakeSettopHost(9, 7);
  EXPECT_EQ(EvalBuiltinSelector(BuiltinSelector::kNeighborhood, settop_nb9,
                                names, refs, &rr),
            std::nullopt);
  // Server callers cannot be neighborhood-selected.
  EXPECT_EQ(EvalBuiltinSelector(BuiltinSelector::kNeighborhood,
                                MakeServerHost(1), names, refs, &rr),
            std::nullopt);
}

TEST(SelectorTest, EmptyReplicaListSelectsNothing) {
  std::vector<std::string> names;
  std::vector<wire::ObjectRef> refs;
  uint64_t rr = 0;
  EXPECT_EQ(EvalBuiltinSelector(BuiltinSelector::kFirst, 0, names, refs, &rr),
            std::nullopt);
}

// --- Name service over the simulated cluster ------------------------------------

// Spawns one name service replica per server node.
class NameServiceFixture : public ::testing::Test {
 protected:
  void BootNameService(size_t replica_count) {
    std::vector<wire::Endpoint> peers;
    for (size_t i = 0; i < replica_count; ++i) {
      sim::Node& node = cluster_.AddServer("server" + std::to_string(i + 1));
      servers_.push_back(&node);
      peers.push_back({node.host(), kNameServicePort});
    }
    for (size_t i = 0; i < replica_count; ++i) {
      SpawnReplica(i);
    }
    // Let the election settle.
    cluster_.RunFor(Duration::Seconds(5));
  }

  NameServer* SpawnReplica(size_t index) {
    std::vector<wire::Endpoint> peers;
    for (sim::Node* node : servers_) {
      peers.push_back({node->host(), kNameServicePort});
    }
    sim::Process& p = servers_[index]->Spawn("nsd", kNameServicePort);
    NameServerOptions opts;
    opts.replica_id = static_cast<uint32_t>(index + 1);
    opts.peers = peers;
    auto* ns = p.Emplace<NameServer>(p.runtime(), p.executor(), opts,
                                     &cluster_.metrics());
    ns->Start();
    replicas_[index] = ns;
    return ns;
  }

  NameServer* Master() {
    for (auto& [index, ns] : replicas_) {
      if (ns != nullptr && servers_[index]->FindProcessByName("nsd") != nullptr &&
          ns->is_master()) {
        return ns;
      }
    }
    return nullptr;
  }

  sim::Process& SpawnClient(const std::string& name = "client") {
    if (client_node_ == nullptr) {
      client_node_ = &cluster_.AddServer("client-node");
    }
    return client_node_->Spawn(name);
  }

  template <typename T>
  Result<T> Wait(Future<T> f, Duration limit = Duration::Seconds(5)) {
    cluster_.RunFor(limit);
    if (!f.is_ready()) {
      return DeadlineExceededError("future not ready in test");
    }
    return f.result();
  }

  // Every live replica exports exactly one object per context node, plus its
  // replica skeleton.
  void ExpectOneExportPerContext(const std::string& after) {
    for (auto& [index, ns] : replicas_) {
      sim::Process* nsd = servers_[index]->FindProcessByName("nsd");
      ASSERT_NE(nsd, nullptr);
      EXPECT_EQ(nsd->runtime().exported_count(), ns->tree().node_count() + 1)
          << "replica " << index + 1 << " after " << after;
    }
  }

  // Names the service accepted during a random update run.
  struct BoundName {
    std::string path;
    bool context;
  };

  // Submits one random update through `nc`: a new local or replicated
  // context, an object bind, or an unbind of a bound name (which fails for a
  // non-empty context). Returns a description of the update.
  std::string RandomUpdate(Rng& rng, const NameClient& nc,
                           std::vector<BoundName>* bound) {
    std::vector<std::string> parents{""};
    for (const BoundName& b : *bound) {
      if (b.context) {
        parents.push_back(b.path + "/");
      }
    }
    const std::string& parent = parents[rng.Below(parents.size())];
    std::string id = std::to_string(next_name_++);
    uint64_t pick = rng.Below(100);
    if (pick < 30 && !bound->empty()) {
      size_t victim = rng.Below(bound->size());
      std::string path = (*bound)[victim].path;
      if (Wait(nc.Unbind(path), Duration::Millis(500)).ok()) {
        bound->erase(bound->begin() + static_cast<long>(victim));
      }
      return "unbind " + path;
    }
    if (pick < 55) {
      std::string path = parent + "c" + id;
      if (Wait(nc.BindNewContext(path), Duration::Millis(500)).ok()) {
        bound->push_back({path, true});
      }
      return "new context " + path;
    }
    if (pick < 65) {
      std::string path = parent + "r" + id;
      if (Wait(nc.BindReplContext(path), Duration::Millis(500)).ok()) {
        bound->push_back({path, true});
      }
      return "new replicated context " + path;
    }
    std::string path = parent + "o" + id;
    if (Wait(nc.Bind(path, FakeRef(5, 5, next_name_)), Duration::Millis(500))
            .ok()) {
      bound->push_back({path, false});
    }
    return "bind " + path;
  }

  sim::Cluster cluster_;
  uint64_t next_name_ = 1;
  std::vector<sim::Node*> servers_;
  std::map<size_t, NameServer*> replicas_;
  sim::Node* client_node_ = nullptr;
};

class SingleReplicaTest : public NameServiceFixture {
 protected:
  SingleReplicaTest() { BootNameService(1); }
};

TEST_F(SingleReplicaTest, SingleReplicaElectsItself) {
  EXPECT_TRUE(replicas_[0]->is_master());
}

TEST_F(SingleReplicaTest, BindResolveRoundTrip) {
  sim::Process& client = SpawnClient();
  NameClient nc(client.runtime(), servers_[0]->host());
  ASSERT_TRUE(Wait(nc.BindNewContext("svc")).ok());
  wire::ObjectRef ref = FakeRef(42, 4242);
  ASSERT_TRUE(Wait(nc.Bind("svc/mms", ref)).ok());
  auto resolved = Wait(nc.Resolve("svc/mms"));
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  EXPECT_EQ(*resolved, ref);
}

TEST_F(SingleReplicaTest, ResolveMissingIsNotFound) {
  sim::Process& client = SpawnClient();
  NameClient nc(client.runtime(), servers_[0]->host());
  EXPECT_TRUE(IsNotFound(Wait(nc.Resolve("svc/nothing")).status()));
}

TEST_F(SingleReplicaTest, DoubleBindRejected) {
  sim::Process& client = SpawnClient();
  NameClient nc(client.runtime(), servers_[0]->host());
  ASSERT_TRUE(Wait(nc.BindNewContext("svc")).ok());
  ASSERT_TRUE(Wait(nc.Bind("svc/x", FakeRef(1, 1))).ok());
  EXPECT_TRUE(IsAlreadyExists(Wait(nc.Bind("svc/x", FakeRef(2, 2))).status()));
}

TEST_F(SingleReplicaTest, ResolveContextNameReturnsContextObject) {
  sim::Process& client = SpawnClient();
  NameClient nc(client.runtime(), servers_[0]->host());
  ASSERT_TRUE(Wait(nc.BindNewContext("apps")).ok());
  auto ctx = Wait(nc.Resolve("apps"));
  ASSERT_TRUE(ctx.ok());
  EXPECT_EQ(ctx->type_id, wire::TypeIdFromName(kNamingContextInterface));

  // Operations relative to the resolved context object work.
  NamingContextProxy proxy(client.runtime(), *ctx);
  ASSERT_TRUE(Wait(proxy.Bind({"vod"}, FakeRef(9, 9))).ok());
  auto through_root = Wait(nc.Resolve("apps/vod"));
  ASSERT_TRUE(through_root.ok());
  EXPECT_EQ(*through_root, FakeRef(9, 9));
}

TEST_F(SingleReplicaTest, ReplicatedContextSelectsFirstByDefault) {
  sim::Process& client = SpawnClient();
  NameClient nc(client.runtime(), servers_[0]->host());
  ASSERT_TRUE(Wait(nc.BindNewContext("svc")).ok());
  ASSERT_TRUE(Wait(nc.BindReplContext("svc/rds")).ok());
  ASSERT_TRUE(Wait(nc.Bind("svc/rds/1", FakeRef(1, 1))).ok());
  ASSERT_TRUE(Wait(nc.Bind("svc/rds/2", FakeRef(2, 2))).ok());
  auto r = Wait(nc.Resolve("svc/rds"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, FakeRef(1, 1));
}

TEST_F(SingleReplicaTest, RoundRobinSelectorRotates) {
  sim::Process& client = SpawnClient();
  NameClient nc(client.runtime(), servers_[0]->host());
  ASSERT_TRUE(Wait(nc.BindNewContext("svc")).ok());
  ASSERT_TRUE(Wait(nc.BindReplContext("svc/rds")).ok());
  ASSERT_TRUE(Wait(nc.Bind("svc/rds/1", FakeRef(1, 1))).ok());
  ASSERT_TRUE(Wait(nc.Bind("svc/rds/2", FakeRef(2, 2))).ok());
  ASSERT_TRUE(Wait(nc.SetSelector("svc/rds", BuiltinSelector::kRoundRobin)).ok());

  auto r1 = Wait(nc.Resolve("svc/rds"));
  auto r2 = Wait(nc.Resolve("svc/rds"));
  auto r3 = Wait(nc.Resolve("svc/rds"));
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
  EXPECT_EQ(*r1, FakeRef(1, 1));
  EXPECT_EQ(*r2, FakeRef(2, 2));
  EXPECT_EQ(*r3, FakeRef(1, 1));
}

TEST_F(SingleReplicaTest, DirectReplicaNamingBypassesSelector) {
  sim::Process& client = SpawnClient();
  NameClient nc(client.runtime(), servers_[0]->host());
  ASSERT_TRUE(Wait(nc.BindNewContext("svc")).ok());
  ASSERT_TRUE(Wait(nc.BindReplContext("svc/cmgr")).ok());
  ASSERT_TRUE(Wait(nc.Bind("svc/cmgr/1", FakeRef(1, 1))).ok());
  ASSERT_TRUE(Wait(nc.Bind("svc/cmgr/2", FakeRef(2, 2))).ok());
  // Paper Figure 4: resolve("svc/cmgr/1") names the replica directly.
  auto r = Wait(nc.Resolve("svc/cmgr/2"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, FakeRef(2, 2));
}

TEST_F(SingleReplicaTest, NeighborhoodSelectorRoutesSettops) {
  sim::Process& client = SpawnClient();
  NameClient nc(client.runtime(), servers_[0]->host());
  ASSERT_TRUE(Wait(nc.BindNewContext("svc")).ok());
  ASSERT_TRUE(Wait(nc.BindReplContext("svc/cmgr")).ok());
  ASSERT_TRUE(Wait(nc.Bind("svc/cmgr/1", FakeRef(1, 1))).ok());
  ASSERT_TRUE(Wait(nc.Bind("svc/cmgr/2", FakeRef(2, 2))).ok());
  ASSERT_TRUE(
      Wait(nc.SetSelector("svc/cmgr", BuiltinSelector::kNeighborhood)).ok());

  // A settop in neighborhood 2 resolves to replica "2".
  sim::Node& settop = cluster_.AddSettop(2);
  sim::Process& sp = settop.Spawn("app");
  NameClient settop_nc(sp.runtime(), servers_[0]->host());
  auto r = Wait(settop_nc.Resolve("svc/cmgr"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, FakeRef(2, 2));

  // A settop in an unassigned neighborhood gets NOT_FOUND.
  sim::Node& stray = cluster_.AddSettop(7);
  sim::Process& strayp = stray.Spawn("app");
  NameClient stray_nc(strayp.runtime(), servers_[0]->host());
  EXPECT_TRUE(IsNotFound(Wait(stray_nc.Resolve("svc/cmgr")).status()));
}

TEST_F(SingleReplicaTest, ReplicatedContextOfContexts) {
  // Paper Figure 7: resolving "bin/vod" picks a context via the selector and
  // completes the lookup inside it.
  sim::Process& client = SpawnClient();
  NameClient nc(client.runtime(), servers_[0]->host());
  ASSERT_TRUE(Wait(nc.BindReplContext("bin")).ok());
  ASSERT_TRUE(Wait(nc.BindNewContext("bin/1")).ok());
  ASSERT_TRUE(Wait(nc.BindNewContext("bin/2")).ok());
  ASSERT_TRUE(Wait(nc.Bind("bin/1/vod", FakeRef(1, 1))).ok());
  ASSERT_TRUE(Wait(nc.Bind("bin/2/vod", FakeRef(2, 2))).ok());
  auto r = Wait(nc.Resolve("bin/vod"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, FakeRef(1, 1));  // Default selector: first (context "1").
}

TEST_F(SingleReplicaTest, CustomRemoteSelectorIsInvoked) {
  // A least-loaded selector object living in a separate process.
  sim::Process& selp = servers_[0]->Spawn("selector-svc");
  auto* impl = selp.Emplace<LeastLoadedSelector>();
  auto* skel = selp.Emplace<SelectorSkeleton>(*impl);
  wire::ObjectRef selector_ref = selp.runtime().Export(skel);
  impl->ReportLoad("1", 10);
  impl->ReportLoad("2", 3);

  sim::Process& client = SpawnClient();
  NameClient nc(client.runtime(), servers_[0]->host());
  ASSERT_TRUE(Wait(nc.BindNewContext("svc")).ok());
  ASSERT_TRUE(Wait(nc.BindReplContext("svc/mds")).ok());
  ASSERT_TRUE(Wait(nc.Bind("svc/mds/1", FakeRef(1, 1))).ok());
  ASSERT_TRUE(Wait(nc.Bind("svc/mds/2", FakeRef(2, 2))).ok());
  ASSERT_TRUE(Wait(nc.SetSelectorObject("svc/mds", selector_ref)).ok());

  auto r = Wait(nc.Resolve("svc/mds"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, FakeRef(2, 2));  // Least loaded.

  impl->ReportLoad("2", 30);
  auto r2 = Wait(nc.Resolve("svc/mds"));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, FakeRef(1, 1));
}

TEST_F(SingleReplicaTest, DeadCustomSelectorFallsBackToFirst) {
  sim::Process& selp = servers_[0]->Spawn("selector-svc");
  auto* impl = selp.Emplace<LeastLoadedSelector>();
  auto* skel = selp.Emplace<SelectorSkeleton>(*impl);
  wire::ObjectRef selector_ref = selp.runtime().Export(skel);

  sim::Process& client = SpawnClient();
  NameClient nc(client.runtime(), servers_[0]->host());
  ASSERT_TRUE(Wait(nc.BindNewContext("svc")).ok());
  ASSERT_TRUE(Wait(nc.BindReplContext("svc/mds")).ok());
  ASSERT_TRUE(Wait(nc.Bind("svc/mds/1", FakeRef(1, 1))).ok());
  ASSERT_TRUE(Wait(nc.Bind("svc/mds/2", FakeRef(2, 2))).ok());
  ASSERT_TRUE(Wait(nc.SetSelectorObject("svc/mds", selector_ref)).ok());

  servers_[0]->Kill(selp.pid());
  cluster_.RunFor(Duration::Millis(100));
  auto r = Wait(nc.Resolve("svc/mds"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, FakeRef(1, 1));
  EXPECT_GE(cluster_.metrics().Get("ns.selector.fallback"), 1u);
}

TEST_F(SingleReplicaTest, ListAppliesSelectorListReplDoesNot) {
  sim::Process& client = SpawnClient();
  NameClient nc(client.runtime(), servers_[0]->host());
  ASSERT_TRUE(Wait(nc.BindReplContext("rds")).ok());
  ASSERT_TRUE(Wait(nc.Bind("rds/1", FakeRef(1, 1))).ok());
  ASSERT_TRUE(Wait(nc.Bind("rds/2", FakeRef(2, 2))).ok());

  auto selected = Wait(nc.List("rds"));
  ASSERT_TRUE(selected.ok());
  ASSERT_EQ(selected->size(), 1u);
  EXPECT_EQ((*selected)[0].name, "1");

  auto all = Wait(nc.ListRepl("rds"));
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 2u);  // Selector binding excluded? No selector bound.
}

TEST_F(SingleReplicaTest, BootstrapRefSurvivesNameServiceRestart) {
  sim::Process& client = SpawnClient();
  NameClient nc(client.runtime(), servers_[0]->host());
  ASSERT_TRUE(Wait(nc.BindNewContext("svc")).ok());

  // Kill and restart the name service replica.
  servers_[0]->Kill(servers_[0]->FindProcessByName("nsd")->pid());
  cluster_.RunUntilIdle();
  replicas_[0] = nullptr;
  SpawnReplica(0);
  cluster_.RunFor(Duration::Seconds(5));

  // Same bootstrap reference keeps working (the name space is rebuilt by
  // service re-registration; here it is simply empty again).
  auto r = Wait(nc.BindNewContext("svc2"));
  EXPECT_TRUE(r.ok()) << r.status();
}

TEST_F(SingleReplicaTest, ExportsTrackContextsThroughRandomUpdates) {
  sim::Process& client = SpawnClient();
  NameClient nc(client.runtime(), servers_[0]->host());
  Rng rng(1401);
  std::vector<BoundName> bound;
  ExpectOneExportPerContext("boot");
  for (int step = 0; step < 200; ++step) {
    std::string update = RandomUpdate(rng, nc, &bound);
    ExpectOneExportPerContext(update);
    if (HasFailure()) {
      return;
    }
  }
  EXPECT_GT(replicas_[0]->tree().node_count(), 10u);
}

TEST_F(SingleReplicaTest, ContextRefOutlivesThousandBindsInIt) {
  sim::Process& client = SpawnClient();
  NameClient nc(client.runtime(), servers_[0]->host());
  ASSERT_TRUE(Wait(nc.BindNewContext("apps")).ok());
  auto ctx = Wait(nc.Resolve("apps"));
  ASSERT_TRUE(ctx.ok()) << ctx.status();

  std::vector<Future<void>> binds;
  for (uint64_t i = 0; i < 1000; ++i) {
    binds.push_back(
        nc.Bind("apps/o" + std::to_string(i), FakeRef(7, 7, i + 1)));
  }
  cluster_.RunFor(Duration::Seconds(10));
  for (const Future<void>& f : binds) {
    ASSERT_TRUE(f.is_ready() && f.result().ok());
  }

  NamingContextProxy proxy(client.runtime(), *ctx);
  ASSERT_TRUE(Wait(proxy.Bind({"late"}, FakeRef(8, 8))).ok());
  auto late = Wait(proxy.Resolve({"late"}));
  ASSERT_TRUE(late.ok()) << late.status();
  EXPECT_EQ(*late, FakeRef(8, 8));
  auto last = Wait(proxy.Resolve({"o999"}));
  ASSERT_TRUE(last.ok()) << last.status();
  EXPECT_EQ(*last, FakeRef(7, 7, 1000));
}

TEST_F(SingleReplicaTest, UnboundContextRefIsNotServed) {
  sim::Process& client = SpawnClient();
  NameClient nc(client.runtime(), servers_[0]->host());
  ASSERT_TRUE(Wait(nc.BindNewContext("tmp")).ok());
  auto ctx = Wait(nc.Resolve("tmp"));
  ASSERT_TRUE(ctx.ok()) << ctx.status();
  ASSERT_TRUE(Wait(nc.Unbind("tmp")).ok());

  NamingContextProxy stale(client.runtime(), *ctx);
  EXPECT_FALSE(Wait(stale.Resolve({"x"})).ok());
  EXPECT_FALSE(Wait(stale.Bind({"x"}, FakeRef(1, 1))).ok());

  // A new context of the same name is a new object; the old ref stays dead.
  ASSERT_TRUE(Wait(nc.BindNewContext("tmp")).ok());
  auto fresh = Wait(nc.Resolve("tmp"));
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_NE(fresh->object_id, ctx->object_id);
  EXPECT_FALSE(Wait(stale.Bind({"x"}, FakeRef(1, 1))).ok());
  auto list = Wait(nc.List("tmp"));
  ASSERT_TRUE(list.ok()) << list.status();
  EXPECT_TRUE(list->empty());
}

// --- Multi-replica ---------------------------------------------------------------

class ThreeReplicaTest : public NameServiceFixture {
 protected:
  ThreeReplicaTest() { BootNameService(3); }
};

TEST_F(ThreeReplicaTest, ExactlyOneMasterElected) {
  int masters = 0;
  for (auto& [i, ns] : replicas_) {
    masters += ns->is_master();
  }
  EXPECT_EQ(masters, 1);
  // All replicas agree on who the master is.
  uint32_t master_id = replicas_[0]->master_id();
  EXPECT_NE(master_id, 0u);
  EXPECT_EQ(replicas_[1]->master_id(), master_id);
  EXPECT_EQ(replicas_[2]->master_id(), master_id);
}

TEST_F(ThreeReplicaTest, UpdateThroughAnyReplicaReachesAll) {
  sim::Process& client = SpawnClient();
  // Talk to replica 3 specifically (may or may not be master).
  NameClient nc(client.runtime(), servers_[2]->host());
  ASSERT_TRUE(Wait(nc.BindNewContext("svc")).ok());
  ASSERT_TRUE(Wait(nc.Bind("svc/mms", FakeRef(7, 7))).ok());
  cluster_.RunFor(Duration::Seconds(3));  // Propagation.

  // Resolve locally at EVERY replica.
  for (size_t i = 0; i < 3; ++i) {
    sim::Process& c = SpawnClient("c" + std::to_string(i));
    NameClient local(c.runtime(), servers_[i]->host());
    auto r = Wait(local.Resolve("svc/mms"));
    ASSERT_TRUE(r.ok()) << "replica " << i << ": " << r.status();
    EXPECT_EQ(*r, FakeRef(7, 7));
  }
  // Trees converged structurally.
  EXPECT_TRUE(replicas_[0]->tree().StructurallyEquals(replicas_[1]->tree()));
  EXPECT_TRUE(replicas_[1]->tree().StructurallyEquals(replicas_[2]->tree()));
}

TEST_F(ThreeReplicaTest, ResolveIsServedLocallyWithoutMasterTraffic) {
  sim::Process& client = SpawnClient();
  NameClient nc(client.runtime(), servers_[0]->host());
  ASSERT_TRUE(Wait(nc.BindNewContext("svc")).ok());
  ASSERT_TRUE(Wait(nc.Bind("svc/x", FakeRef(1, 1))).ok());
  cluster_.RunFor(Duration::Seconds(3));

  uint64_t forwarded_before = cluster_.metrics().Get("ns.update.forwarded");
  // 50 resolves against a slave replica: no new forwards.
  NameServer* master = Master();
  ASSERT_NE(master, nullptr);
  size_t slave_index = 0;
  for (size_t i = 0; i < 3; ++i) {
    if (replicas_[i] != master) {
      slave_index = i;
      break;
    }
  }
  NameClient slave_nc(client.runtime(), servers_[slave_index]->host());
  for (int i = 0; i < 50; ++i) {
    auto r = Wait(slave_nc.Resolve("svc/x"), Duration::Seconds(1));
    ASSERT_TRUE(r.ok());
  }
  EXPECT_EQ(cluster_.metrics().Get("ns.update.forwarded"), forwarded_before);
}

TEST_F(ThreeReplicaTest, MasterCrashTriggersReelectionAndUpdatesResume) {
  sim::Process& client = SpawnClient();
  NameClient nc(client.runtime(), servers_[0]->host());
  ASSERT_TRUE(Wait(nc.BindNewContext("svc")).ok());
  cluster_.RunFor(Duration::Seconds(3));

  NameServer* master = Master();
  ASSERT_NE(master, nullptr);
  size_t master_index = 0;
  for (size_t i = 0; i < 3; ++i) {
    if (replicas_[i] == master) {
      master_index = i;
    }
  }
  servers_[master_index]->Kill(
      servers_[master_index]->FindProcessByName("nsd")->pid());
  replicas_.erase(master_index);
  cluster_.RunFor(Duration::Seconds(10));  // Re-election.

  int masters = 0;
  for (auto& [i, ns] : replicas_) {
    masters += ns->is_master();
  }
  EXPECT_EQ(masters, 1);

  // Updates flow again (through a surviving replica).
  size_t survivor = replicas_.begin()->first;
  NameClient nc2(client.runtime(), servers_[survivor]->host());
  auto r = Wait(nc2.Bind("svc/after", FakeRef(5, 5)), Duration::Seconds(10));
  EXPECT_TRUE(r.ok()) << r.status();
}

TEST_F(ThreeReplicaTest, ResolverFailsOverPastADeadHomeReplica) {
  // A settop's lookups start at its home replica and fall back in ring order
  // (paper Section 4.6: any replica serves reads). No state is kept between
  // lookups: while the home replica is dead, each lookup pays its timeout.
  sim::Process& client = SpawnClient();
  NameClient setup(client.runtime(), servers_[1]->host());
  ASSERT_TRUE(Wait(setup.BindNewContext("svc")).ok());
  ASSERT_TRUE(Wait(setup.Bind("svc/x", FakeRef(1, 1))).ok());
  cluster_.RunFor(Duration::Seconds(3));

  std::vector<uint32_t> hosts;
  for (sim::Node* server : servers_) {
    hosts.push_back(server->host());
  }
  NameClient nc(client.runtime(),
                std::make_shared<const std::vector<uint32_t>>(hosts));
  rpc::PathResolver resolver = nc.PathResolverFn();
  auto resolve = [&](const std::string& path) {
    Promise<wire::ObjectRef> done;
    Future<wire::ObjectRef> f = done.future();
    resolver(path, [done](Result<wire::ObjectRef> r) mutable {
      done.Set(std::move(r));
    });
    return Wait(f, Duration::Seconds(10));
  };
  // The client's lookups, by replica host.
  std::map<uint32_t, int> requests;
  cluster_.network().SetTap([&requests, me = client.host()](
                                const wire::Endpoint& src,
                                const wire::Endpoint& dst,
                                const wire::Message& msg) {
    if (msg.kind == wire::MsgKind::kRequest && src.host == me) {
      ++requests[dst.host];
    }
  });
  auto failovers = [this] {
    return cluster_.metrics().Get("naming.resolve_failover");
  };

  servers_[0]->Crash();
  auto first = resolve("svc/x");
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(*first, FakeRef(1, 1));
  EXPECT_EQ(requests[hosts[0]], 1);
  EXPECT_EQ(requests[hosts[1]], 1);
  EXPECT_EQ(failovers(), 1u);

  // The second lookup starts at the home replica again.
  requests.clear();
  auto second = resolve("svc/x");
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(requests[hosts[0]], 1);
  EXPECT_EQ(requests[hosts[1]], 1);
  EXPECT_EQ(requests[hosts[2]], 0);
  EXPECT_EQ(failovers(), 2u);

  // NOT_FOUND is an answer: no further replica is asked.
  requests.clear();
  auto missing = resolve("svc/nothing");
  EXPECT_TRUE(IsNotFound(missing.status())) << missing.status();
  EXPECT_EQ(requests[hosts[1]], 1);
  EXPECT_EQ(requests[hosts[2]], 0);
  EXPECT_EQ(failovers(), 3u);

  // With every replica unreachable, one pass ends on the last replica's
  // timeout.
  servers_[1]->Crash();
  servers_[2]->Crash();
  requests.clear();
  auto none = resolve("svc/x");
  EXPECT_TRUE(IsDeadlineExceeded(none.status())) << none.status();
  EXPECT_NE(none.status().message().find(
                wire::Endpoint{hosts[2], kNameServicePort}.ToString()),
            std::string::npos)
      << none.status();
  for (uint32_t host : hosts) {
    EXPECT_EQ(requests[host], 1) << host;
  }
  EXPECT_EQ(failovers(), 5u);
}

TEST_F(ThreeReplicaTest, QuorumLossFreezesUpdatesButReadsStayLocal) {
  // "Availability is improved because the name service is available as long
  // as a majority of replicas are alive" (Section 4.6) — and conversely:
  // below a majority, updates must stop (no split-brain), while resolves
  // keep being served from the survivor's local tree.
  sim::Process& client = SpawnClient();
  NameClient nc(client.runtime(), servers_[0]->host());
  ASSERT_TRUE(Wait(nc.BindNewContext("svc")).ok());
  ASSERT_TRUE(Wait(nc.Bind("svc/x", FakeRef(1, 1))).ok());
  cluster_.RunFor(Duration::Seconds(3));

  // Crash two of the three replicas' servers, keeping server 1.
  servers_[1]->Crash();
  servers_[2]->Crash();
  cluster_.RunFor(Duration::Seconds(15));  // Election attempts churn, fail.

  // Reads: still served locally by the survivor.
  auto read = Wait(nc.Resolve("svc/x"));
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, FakeRef(1, 1));

  // Writes: no master can exist with 1 of 3 replicas.
  auto write = Wait(nc.Bind("svc/y", FakeRef(2, 2)), Duration::Seconds(10));
  ASSERT_FALSE(write.ok());
  EXPECT_TRUE(IsUnavailable(write.status())) << write.status();

  // Quorum restored: a crashed server comes back with a fresh replica; the
  // two of three elect, catch up, and updates flow again.
  servers_[1]->Restart();
  SpawnReplica(1);
  cluster_.RunFor(Duration::Seconds(15));
  auto healed = Wait(nc.Bind("svc/y", FakeRef(2, 2)), Duration::Seconds(10));
  EXPECT_TRUE(healed.ok()) << healed.status();
}

TEST_F(ThreeReplicaTest, PartitionedMasterStepsDownNoSplitBrain) {
  // Partition the master onto the minority side: the quorum lease makes it
  // step down (refusing further updates), the majority elects a successor,
  // and after healing the old master follows the new one — updates made on
  // the majority side survive, and at no point do two masters accept writes.
  NameServer* master = Master();
  ASSERT_NE(master, nullptr);
  size_t master_index = 0;
  for (size_t i = 0; i < 3; ++i) {
    if (replicas_[i] == master) {
      master_index = i;
    }
  }
  uint32_t master_host = servers_[master_index]->host();
  for (size_t i = 0; i < 3; ++i) {
    if (i != master_index) {
      cluster_.network().Partition(master_host, servers_[i]->host(), true);
    }
  }
  cluster_.RunFor(Duration::Seconds(15));

  // Old master stepped down; exactly one master exists, on the majority side.
  EXPECT_FALSE(master->is_master());
  int masters = 0;
  for (auto& [i, ns] : replicas_) {
    masters += ns->is_master();
  }
  EXPECT_EQ(masters, 1);

  // Writes through the minority replica fail; through the majority succeed.
  sim::Process& minority_client = SpawnClient("minority");
  cluster_.network().Partition(minority_client.host(), master_host, false);
  NameClient minority_nc(minority_client.runtime(), master_host);
  auto blocked = Wait(minority_nc.BindNewContext("minority-write"),
                      Duration::Seconds(10));
  EXPECT_TRUE(IsUnavailable(blocked.status())) << blocked.status();

  size_t majority_index = (master_index + 1) % 3;
  sim::Process& majority_client = SpawnClient("majority");
  NameClient majority_nc(majority_client.runtime(),
                         servers_[majority_index]->host());
  ASSERT_TRUE(Wait(majority_nc.BindNewContext("svc"), Duration::Seconds(10)).ok());
  ASSERT_TRUE(
      Wait(majority_nc.Bind("svc/winner", FakeRef(9, 9)), Duration::Seconds(10))
          .ok());

  // Heal: the deposed master rejoins as a slave and catches up via snapshot.
  for (size_t i = 0; i < 3; ++i) {
    if (i != master_index) {
      cluster_.network().Partition(master_host, servers_[i]->host(), false);
    }
  }
  cluster_.RunFor(Duration::Seconds(15));
  EXPECT_FALSE(master->is_master());
  auto caught_up = Wait(minority_nc.Resolve("svc/winner"));
  ASSERT_TRUE(caught_up.ok()) << caught_up.status();
  EXPECT_EQ(*caught_up, FakeRef(9, 9));
}

TEST_F(ThreeReplicaTest, PartitionedReplicaCatchesUpViaSnapshot) {
  // Partition replica 3 from the others; write; heal; it catches up.
  NameServer* master = Master();
  ASSERT_NE(master, nullptr);
  size_t slave_index = 2;
  if (replicas_[2] == master) {
    slave_index = 1;
  }
  uint32_t slave_host = servers_[slave_index]->host();
  for (size_t i = 0; i < 3; ++i) {
    if (i != slave_index) {
      cluster_.network().Partition(slave_host, servers_[i]->host(), true);
    }
  }

  sim::Process& client = SpawnClient();
  size_t reachable = (slave_index + 1) % 3;
  NameClient nc(client.runtime(), servers_[reachable]->host());
  ASSERT_TRUE(Wait(nc.BindNewContext("svc"), Duration::Seconds(10)).ok());
  ASSERT_TRUE(Wait(nc.Bind("svc/x", FakeRef(3, 3)), Duration::Seconds(10)).ok());

  // Heal; heartbeats carry the master seq and trigger a snapshot fetch.
  for (size_t i = 0; i < 3; ++i) {
    if (i != slave_index) {
      cluster_.network().Partition(slave_host, servers_[i]->host(), false);
    }
  }
  cluster_.RunFor(Duration::Seconds(10));

  sim::Process& c2 = SpawnClient("c2");
  NameClient lagged(c2.runtime(), slave_host);
  auto r = Wait(lagged.Resolve("svc/x"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, FakeRef(3, 3));
  EXPECT_GE(cluster_.metrics().Get("ns.snapshot.installed"), 1u);
}

TEST_F(ThreeReplicaTest, CaughtUpReplicaServesItsContextRefs) {
  NameServer* master = Master();
  ASSERT_NE(master, nullptr);
  size_t slave_index = replicas_[2] == master ? 1 : 2;
  uint32_t slave_host = servers_[slave_index]->host();
  for (size_t i = 0; i < 3; ++i) {
    if (i != slave_index) {
      cluster_.network().Partition(slave_host, servers_[i]->host(), true);
    }
  }
  sim::Process& client = SpawnClient();
  size_t reachable = (slave_index + 1) % 3;
  NameClient nc(client.runtime(), servers_[reachable]->host());
  ASSERT_TRUE(Wait(nc.BindNewContext("svc"), Duration::Seconds(10)).ok());
  ASSERT_TRUE(
      Wait(nc.Bind("svc/x", FakeRef(3, 3)), Duration::Seconds(10)).ok());
  for (size_t i = 0; i < 3; ++i) {
    if (i != slave_index) {
      cluster_.network().Partition(slave_host, servers_[i]->host(), false);
    }
  }
  cluster_.RunFor(Duration::Seconds(10));
  ASSERT_GE(cluster_.metrics().Get("ns.snapshot.installed"), 1u);

  sim::Process& c2 = SpawnClient("c2");
  NameClient lagged(c2.runtime(), slave_host);
  auto ctx = Wait(lagged.Resolve("svc"));
  ASSERT_TRUE(ctx.ok()) << ctx.status();
  EXPECT_EQ(ctx->endpoint.host, slave_host);
  NamingContextProxy proxy(c2.runtime(), *ctx);
  auto r = Wait(proxy.Resolve({"x"}));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, FakeRef(3, 3));
}

TEST_F(ThreeReplicaTest, ExportsTrackContextsThroughUpdatesAndSnapshot) {
  NameServer* master = Master();
  ASSERT_NE(master, nullptr);
  size_t slave_index = replicas_[2] == master ? 1 : 2;
  size_t reachable = (slave_index + 1) % 3;
  uint32_t slave_host = servers_[slave_index]->host();
  sim::Process& client = SpawnClient();
  Rng rng(1403);
  std::vector<BoundName> bound;

  // Each phase submits through a random replica (or, while one is cut off,
  // through a reachable one) and checks every replica after every update.
  auto run_phase = [&](int steps, bool any_replica) {
    for (int step = 0; step < steps && !HasFailure(); ++step) {
      size_t via = any_replica ? rng.Below(3) : reachable;
      NameClient nc(client.runtime(), servers_[via]->host());
      std::string update = RandomUpdate(rng, nc, &bound);
      ExpectOneExportPerContext(update);
    }
  };

  run_phase(60, true);
  uint64_t installed = cluster_.metrics().Get("ns.snapshot.installed");
  for (size_t i = 0; i < 3; ++i) {
    if (i != slave_index) {
      cluster_.network().Partition(slave_host, servers_[i]->host(), true);
    }
  }
  run_phase(60, false);
  for (size_t i = 0; i < 3; ++i) {
    if (i != slave_index) {
      cluster_.network().Partition(slave_host, servers_[i]->host(), false);
    }
  }
  cluster_.RunFor(Duration::Seconds(10));
  EXPECT_GT(cluster_.metrics().Get("ns.snapshot.installed"), installed);
  ExpectOneExportPerContext("snapshot install");
  run_phase(60, true);

  cluster_.RunFor(Duration::Seconds(3));
  EXPECT_TRUE(replicas_[0]->tree().StructurallyEquals(replicas_[1]->tree()));
  EXPECT_TRUE(replicas_[1]->tree().StructurallyEquals(replicas_[2]->tree()));
  EXPECT_GT(replicas_[0]->tree().node_count(), 10u);
}

// --- Auditing -------------------------------------------------------------------

// Scripted liveness oracle standing in for the RAS.
class FakeAudit : public ObjectAudit {
 public:
  void MarkDead(const wire::ObjectRef& ref) { dead_.insert(KeyOf(ref)); }

  void CheckObjects(const std::vector<wire::ObjectRef>& refs,
                    std::function<void(std::vector<uint8_t>)> cb) override {
    std::vector<uint8_t> alive;
    alive.reserve(refs.size());
    for (const auto& ref : refs) {
      alive.push_back(dead_.count(KeyOf(ref)) == 0 ? 1 : 0);
    }
    cb(std::move(alive));
  }

 private:
  static std::string KeyOf(const wire::ObjectRef& ref) { return ref.ToString(); }
  std::set<std::string> dead_;
};

TEST_F(SingleReplicaTest, AuditRemovesDeadObjectsWithinInterval) {
  FakeAudit audit;
  replicas_[0]->SetAudit(&audit);

  sim::Process& client = SpawnClient();
  NameClient nc(client.runtime(), servers_[0]->host());
  ASSERT_TRUE(Wait(nc.BindNewContext("svc")).ok());
  wire::ObjectRef doomed = FakeRef(8, 8);
  ASSERT_TRUE(Wait(nc.Bind("svc/doomed", doomed)).ok());
  ASSERT_TRUE(Wait(nc.Bind("svc/healthy", FakeRef(9, 9))).ok());

  audit.MarkDead(doomed);
  cluster_.RunFor(Duration::Seconds(11));  // One audit sweep (10 s default).

  EXPECT_TRUE(IsNotFound(Wait(nc.Resolve("svc/doomed")).status()));
  auto healthy = Wait(nc.Resolve("svc/healthy"));
  EXPECT_TRUE(healthy.ok());
  EXPECT_GE(cluster_.metrics().Get("ns.audit.unbind"), 1u);
}

// --- Versioned shard-map publish (live resharding) ---------------------------

class ShardMapPublishTest : public SingleReplicaTest {
 protected:
  Result<wire::ShardMap> Publish(sim::Process& p, const wire::ShardMap& map,
                                 const std::string& base = "svc/mms") {
    auto out = std::make_shared<Result<wire::ShardMap>>(
        DeadlineExceededError("publish never completed"));
    PublishShardMap(p.executor(),
                    NameClient(p.runtime(), servers_[0]->host()), base, map,
                    [out](Result<wire::ShardMap> r) { *out = std::move(r); });
    cluster_.RunFor(Duration::Seconds(5));
    return *out;
  }

  Result<wire::ShardMap> ReadMap(const std::string& base = "svc/mms") {
    sim::Process& reader = SpawnClient("map-reader");
    NameClient nc(reader.runtime(), servers_[0]->host());
    auto r = Wait(nc.Resolve(wire::ShardMapPath(base)));
    if (!r.ok()) {
      return r.status();
    }
    if (!wire::IsShardMapRef(*r)) {
      return InternalError("not a shard map ref");
    }
    return wire::DecodeShardMapRef(*r);
  }
};

TEST_F(ShardMapPublishTest, FirstPublishBindsTheMap) {
  sim::Process& p = SpawnClient("mmsd-1");
  wire::ShardMap v1{4, 0xabcdefull};
  auto r = Publish(p, v1);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, v1);
  auto read = ReadMap();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, v1);
  EXPECT_EQ(read->version, 1u);
}

TEST_F(ShardMapPublishTest, NewerVersionSwapsOlderIsRefusedWithWinner) {
  sim::Process& p = SpawnClient("mmsd-1");
  wire::ShardMap v1{4, 0xabcdefull};
  ASSERT_TRUE(Publish(p, v1).ok());

  // The reshard controller publishes the successor: the CAS swaps v1 -> v2.
  wire::ShardMap v2 = wire::NextShardMap(v1, 8);
  auto r2 = Publish(p, v2);
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(*r2, v2);
  auto read = ReadMap();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->version, 2u);
  EXPECT_EQ(read->shard_count, 8u);

  // A replica restarting with its deployment-time v1 must NOT roll the
  // cluster back: the publish succeeds but reports the incumbent winner.
  auto again = Publish(p, v1);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(*again, v2);
  read = ReadMap();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->version, 2u);
}

TEST_F(ShardMapPublishTest, ConcurrentPublishersConvergeOnHighestVersion) {
  sim::Process& p1 = SpawnClient("mmsd-1");
  sim::Process& p2 = SpawnClient("mmsd-2");
  wire::ShardMap v1{4, 0x1234ull};
  wire::ShardMap v2 = wire::NextShardMap(v1, 8);

  // Both replicas publish at one virtual instant — a restart racing a
  // reshard. Whatever interleaving the CAS resolves to, the higher version
  // must end up bound: the v2 publisher must never be rolled back, while the
  // v1 publisher may legitimately complete before v2 exists (if its bind won
  // the race) or learn the v2 winner (if it lost).
  auto out1 = std::make_shared<Result<wire::ShardMap>>(
      DeadlineExceededError("pending"));
  auto out2 = std::make_shared<Result<wire::ShardMap>>(
      DeadlineExceededError("pending"));
  PublishShardMap(p1.executor(), NameClient(p1.runtime(), servers_[0]->host()),
                  "svc/mms", v1,
                  [out1](Result<wire::ShardMap> r) { *out1 = std::move(r); });
  PublishShardMap(p2.executor(), NameClient(p2.runtime(), servers_[0]->host()),
                  "svc/mms", v2,
                  [out2](Result<wire::ShardMap> r) { *out2 = std::move(r); });
  cluster_.RunFor(Duration::Seconds(10));

  ASSERT_TRUE(out1->ok()) << out1->status();
  ASSERT_TRUE(out2->ok()) << out2->status();
  EXPECT_EQ(**out2, v2);
  EXPECT_TRUE(**out1 == v1 || **out1 == v2);
  auto read = ReadMap();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, v2);

  // And a straggler re-publishing v1 afterwards cannot roll v2 back.
  auto late = Publish(p1, v1);
  ASSERT_TRUE(late.ok()) << late.status();
  EXPECT_EQ(*late, v2);
  read = ReadMap();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, v2);
}

TEST_F(ShardMapPublishTest, ForeignBindingIsFailedPrecondition) {
  sim::Process& p = SpawnClient("mmsd-1");
  NameClient setup(p.runtime(), servers_[0]->host());
  ASSERT_TRUE(Wait(setup.BindNewContext("svc")).ok());
  ASSERT_TRUE(Wait(setup.BindNewContext("svc/mms")).ok());
  ASSERT_TRUE(
      Wait(setup.Bind(wire::ShardMapPath("svc/mms"), FakeRef(5, 5))).ok());

  wire::ShardMap map{4, 0x77ull};
  auto r = Publish(p, map);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition) << r.status();
}

}  // namespace
}  // namespace itv::naming
