// A guided tour of the OCS naming system and substrates on a simulated
// cluster: hierarchical contexts, replicated contexts with builtin and
// custom selectors (paper Sections 4-5), the database, and the file
// service's FileSystemContext grafted into the name space (Section 4.6).

#include <cstdio>

#include "src/db/database_service.h"
#include "src/files/file_service.h"
#include "src/naming/name_client.h"
#include "src/naming/selector.h"
#include "src/svc/harness.h"
#include "src/svc/ssc.h"

using namespace itv;

namespace {

template <typename T>
Result<T> Await(sim::Cluster& cluster, Future<T> f) {
  cluster.RunFor(Duration::Seconds(3));
  if (!f.is_ready()) {
    return DeadlineExceededError("timed out");
  }
  return f.result();
}

std::string Show(const Result<wire::ObjectRef>& r) {
  return r.ok() ? r->ToString() : r.status().ToString();
}

}  // namespace

int main() {
  svc::HarnessOptions opts;
  opts.server_count = 2;
  opts.neighborhood_count = 2;
  svc::ClusterHarness harness(opts);
  sim::Cluster& cluster = harness.cluster();

  // A file service on server 1, bound into the global name space.
  harness.RegisterServiceType("filesd", [&harness](const svc::ServiceContext& ctx) {
    auto* fs = ctx.process.Emplace<files::FileService>(
        ctx.process.runtime(), &harness.DiskFor(ctx.process.host()));
    (void)fs->CreateFile("fonts/helvetica", {'f', 'o', 'n', 't'});
    ctx.StartLifecycle("files", fs->root_ref());
  });
  harness.AssignService("filesd", harness.HostOf(0));
  harness.Boot();
  cluster.RunFor(Duration::Seconds(8));

  sim::Process& client = harness.SpawnProcessOn(0, "tour");
  naming::NameClient nc = harness.ClientFor(client);

  // Real servant objects to bind (bindings of unregistered/dead objects are
  // garbage-collected by the audit within seconds — the system working as
  // designed, but unhelpful for a tour).
  class GameSkeleton : public rpc::Skeleton {
   public:
    std::string_view interface_name() const override {
      return "itv.example.Game";
    }
    void Dispatch(uint32_t, const wire::Bytes&, const rpc::CallContext&,
                  rpc::ReplyFn reply) override {
      rpc::ReplyOk(reply);
    }
  };
  sim::Process& games = harness.SpawnProcessOn(1, "games");
  std::vector<wire::ObjectRef> game_refs;
  for (int i = 0; i < 4; ++i) {
    auto* servant = games.Emplace<GameSkeleton>();
    game_refs.push_back(games.runtime().Export(servant));
  }
  svc::SscProxy games_ssc(games.runtime(), svc::SscRefAt(games.host()));
  (void)Await(cluster, games_ssc.NotifyReady(games.pid(), game_refs));

  std::printf("== contexts ==\n");
  (void)Await(cluster, nc.BindNewContext("apps"));
  (void)Await(cluster, nc.BindNewContext("apps/games"));
  (void)Await(cluster, nc.Bind("apps/games/doom", game_refs[0]));
  std::printf("resolve apps/games/doom -> %s\n",
              Show(Await(cluster, nc.Resolve("apps/games/doom"))).c_str());

  std::printf("\n== replicated context + round-robin selector ==\n");
  (void)Await(cluster, nc.BindReplContext("apps/arcade"));
  for (int i = 1; i <= 3; ++i) {
    (void)Await(cluster, nc.Bind("apps/arcade/" + std::to_string(i),
                                 game_refs[static_cast<size_t>(i)]));
  }
  (void)Await(cluster,
              nc.SetSelector("apps/arcade", naming::BuiltinSelector::kRoundRobin));
  for (int i = 0; i < 4; ++i) {
    auto r = Await(cluster, nc.Resolve("apps/arcade"));
    std::printf("resolve apps/arcade -> replica object_id=%llu\n",
                r.ok() ? static_cast<unsigned long long>(r->object_id) : 0ull);
  }

  std::printf("\n== custom selector object (least-loaded) ==\n");
  sim::Process& selector_proc = harness.SpawnProcessOn(1, "selector");
  auto* least_loaded = selector_proc.Emplace<naming::LeastLoadedSelector>();
  auto* selector_skel =
      selector_proc.Emplace<naming::SelectorSkeleton>(*least_loaded);
  wire::ObjectRef selector_ref = selector_proc.runtime().Export(selector_skel);
  (void)Await(cluster, nc.SetSelectorObject("apps/arcade", selector_ref));
  least_loaded->ReportLoad("1", 10);
  least_loaded->ReportLoad("2", 1);
  least_loaded->ReportLoad("3", 5);
  auto chosen = Await(cluster, nc.Resolve("apps/arcade"));
  std::printf("least-loaded selector chose object_id=%llu (replica \"2\" = %llu)\n",
              chosen.ok() ? static_cast<unsigned long long>(chosen->object_id)
                          : 0ull,
              static_cast<unsigned long long>(game_refs[2].object_id));

  std::printf("\n== per-caller selectors ==\n");
  auto local_ras = Await(cluster, nc.Resolve("svc/ras"));
  std::printf("svc/ras resolved from server 1 -> host %u.0.%u.1 "
              "(by-caller-host selector)\n",
              local_ras.ok() ? local_ras->endpoint.host >> 24 : 0,
              local_ras.ok() ? (local_ras->endpoint.host >> 8) & 0xff : 0);

  std::printf("\n== database ==\n");
  auto db_ref = Await(cluster, nc.Resolve("svc/db"));
  if (db_ref.ok()) {
    db::DatabaseProxy db(client.runtime(), *db_ref);
    (void)Await(cluster, db.Put("tour", "movie-of-the-week", "T2"));
    auto v = Await(cluster, db.Get("tour", "movie-of-the-week"));
    std::printf("db.Get(tour, movie-of-the-week) -> %s\n",
                v.ok() ? v->c_str() : v.status().ToString().c_str());
  }

  std::printf("\n== file service through the name space ==\n");
  auto file_ref = Await(cluster, nc.Resolve("files/fonts/helvetica"));
  std::printf("resolve files/fonts/helvetica -> %s\n", Show(file_ref).c_str());
  if (file_ref.ok()) {
    files::FileProxy file(client.runtime(), *file_ref);
    auto data = Await(cluster, file.Read(0, 16));
    std::printf("file contents: \"%.*s\"\n",
                data.ok() ? static_cast<int>(data->size()) : 0,
                data.ok() ? reinterpret_cast<const char*>(data->data()) : "");
  }

  std::printf("\n== the name space, as the paper's Figure 8 ==\n");
  for (const char* path : {"", "svc", "apps", "apps/arcade"}) {
    auto listing = Await(cluster, nc.ListRepl(path));
    if (!listing.ok()) {
      continue;
    }
    std::printf("%s/\n", *path == '\0' ? "(root)" : path);
    for (const naming::Binding& b : *listing) {
      const char* kind = b.kind == naming::BindingKind::kContext ? "ctx"
                         : b.kind == naming::BindingKind::kReplContext
                             ? "repl-ctx"
                             : "object";
      std::printf("  %-20s %s\n", b.name.c_str(), kind);
    }
  }
  return 0;
}
