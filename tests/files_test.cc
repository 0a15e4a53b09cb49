// File service tests (paper Sections 3.3, 4.3, 4.6): FileSystemContext as a
// NamingContext subtype, file objects with read/write, persistence, and —
// crucially — the name service recursively resolving *through* the bound
// remote context.

#include <gtest/gtest.h>

#include "src/db/disk.h"
#include "src/files/file_service.h"
#include "src/svc/harness.h"

namespace itv::files {
namespace {

class FilesTest : public ::testing::Test {
 protected:
  FilesTest() : harness_(MakeOptions()) {
    harness_.RegisterServiceType("filesd", [this](const svc::ServiceContext& ctx) {
      auto* fs = ctx.process.Emplace<FileService>(
          ctx.process.runtime(), &harness_.DiskFor(ctx.process.host()),
          ctx.metrics);
      fs_ = fs;
      // Idempotent provisioning: a restarted instance reloads these from the
      // node disk, so ALREADY_EXISTS is fine.
      (void)fs->MakeDirectory("fonts");
      (void)fs->CreateFile("fonts/helvetica", {'a', 'b', 'c'});
      (void)fs->CreateFile("motd", {'h', 'i'});
      ctx.StartLifecycle("files", fs->root_ref());
    });
    harness_.AssignService("filesd", harness_.HostOf(0));
    harness_.Boot();
    cluster().RunFor(Duration::Seconds(8));
    client_ = &harness_.SpawnProcessOn(1, "client");  // Remote from the FS.
  }

  static svc::HarnessOptions MakeOptions() {
    svc::HarnessOptions opts;
    opts.server_count = 2;
    return opts;
  }

  sim::Cluster& cluster() { return harness_.cluster(); }

  template <typename T>
  Result<T> Wait(Future<T> f, Duration limit = Duration::Seconds(5)) {
    cluster().RunFor(limit);
    if (!f.is_ready()) {
      return DeadlineExceededError("future not ready");
    }
    return f.result();
  }

  svc::ClusterHarness harness_;
  FileService* fs_ = nullptr;
  sim::Process* client_ = nullptr;
};

TEST_F(FilesTest, NameServiceResolvesThroughFileSystemContext) {
  // "files" is bound in the cluster name space; resolving "files/fonts/
  // helvetica" makes the name service recurse into the remote context.
  naming::NameClient nc = harness_.ClientFor(*client_);
  auto file_ref = Wait(nc.Resolve("files/fonts/helvetica"));
  ASSERT_TRUE(file_ref.ok()) << file_ref.status();
  EXPECT_EQ(file_ref->type_id, wire::TypeIdFromName(kFileInterface));

  FileProxy file(client_->runtime(), *file_ref);
  auto data = Wait(file.Read(0, 100));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, (wire::Bytes{'a', 'b', 'c'}));
  EXPECT_GE(cluster().metrics().Get("ns.resolve.remote"), 1u);
}

TEST_F(FilesTest, ResolveMissingFileIsNotFound) {
  naming::NameClient nc = harness_.ClientFor(*client_);
  EXPECT_TRUE(IsNotFound(Wait(nc.Resolve("files/fonts/nope")).status()));
  EXPECT_TRUE(IsNotFound(Wait(nc.Resolve("files/motd/into-a-file")).status()));
}

TEST_F(FilesTest, DirectoryContextOperations) {
  naming::NameClient nc = harness_.ClientFor(*client_);
  auto dir_ref = Wait(nc.Resolve("files/fonts"));
  ASSERT_TRUE(dir_ref.ok());
  EXPECT_EQ(dir_ref->type_id,
            wire::TypeIdFromName(naming::kFileSystemContextInterface));

  FileSystemContextProxy dir(client_->runtime(), *dir_ref);
  auto listing = Wait(dir.List({}));
  ASSERT_TRUE(listing.ok());
  ASSERT_EQ(listing->size(), 1u);
  EXPECT_EQ((*listing)[0].name, "helvetica");
  EXPECT_EQ((*listing)[0].kind, naming::BindingKind::kObject);

  // Create a file through the FileSystemContext's extra operation.
  auto created = Wait(dir.CreateFile({"courier"}, {'x'}));
  ASSERT_TRUE(created.ok()) << created.status();
  FileProxy file(client_->runtime(), *created);
  auto size = Wait(file.Size());
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 1);

  // Duplicate creation rejected.
  EXPECT_TRUE(IsAlreadyExists(Wait(dir.CreateFile({"courier"}, {})).status()));
}

TEST_F(FilesTest, FileWriteExtendsAndPersists) {
  naming::NameClient nc = harness_.ClientFor(*client_);
  auto file_ref = Wait(nc.Resolve("files/motd"));
  ASSERT_TRUE(file_ref.ok());
  FileProxy file(client_->runtime(), *file_ref);
  ASSERT_TRUE(Wait(file.Write(2, {'!', '!'})).ok());
  auto data = Wait(file.Read(0, 100));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, (wire::Bytes{'h', 'i', '!', '!'}));

  // Out-of-range offset rejected.
  auto bad = Wait(file.Write(100, {'x'}));
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
}

TEST_F(FilesTest, MkdirAndUnbindThroughContextInterface) {
  naming::NameClient nc = harness_.ClientFor(*client_);
  auto root_ref = Wait(nc.Resolve("files"));
  ASSERT_TRUE(root_ref.ok());
  FileSystemContextProxy root(client_->runtime(), *root_ref);

  ASSERT_TRUE(Wait(root.BindNewContext({"tmp"})).ok());
  EXPECT_TRUE(IsAlreadyExists(Wait(root.BindNewContext({"tmp"})).status()));
  auto created = Wait(root.CreateFile({"tmp", "scratch"}, {'z'}));
  ASSERT_TRUE(created.ok());

  // Non-empty directory cannot be unbound.
  auto busy = Wait(root.Unbind({"tmp"}));
  EXPECT_EQ(busy.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(Wait(root.Unbind({"tmp", "scratch"})).ok());
  ASSERT_TRUE(Wait(root.Unbind({"tmp"})).ok());

  // Foreign bindings are not supported on a file system.
  auto bind = Wait(root.Bind({"alien"}, *root_ref));
  EXPECT_EQ(bind.status().code(), StatusCode::kUnimplemented);
}

TEST_F(FilesTest, ContentsSurviveServiceRestart) {
  naming::NameClient nc = harness_.ClientFor(*client_);
  auto file_ref = Wait(nc.Resolve("files/motd"));
  ASSERT_TRUE(file_ref.ok());
  ASSERT_TRUE(Wait(FileProxy(client_->runtime(), *file_ref).Write(0, {'X'})).ok());

  // Kill the filesd process; the SSC restarts it; the fresh instance reloads
  // from the node disk and rebinds (after the audit removes the old ref).
  sim::Process* filesd = harness_.server(0).FindProcessByName("filesd");
  ASSERT_NE(filesd, nullptr);
  harness_.server(0).Kill(filesd->pid());
  cluster().RunFor(Duration::Seconds(30));

  auto new_ref = Wait(nc.Resolve("files/motd"));
  ASSERT_TRUE(new_ref.ok()) << new_ref.status();
  auto data = Wait(FileProxy(client_->runtime(), *new_ref).Read(0, 10));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, (wire::Bytes{'X', 'i'}));
}

TEST_F(FilesTest, LocalHelpersMatchRpcView) {
  ASSERT_NE(fs_, nullptr);
  EXPECT_GE(fs_->file_count(), 2u);
  auto motd = fs_->ReadWholeFile("motd");
  ASSERT_TRUE(motd.ok());
  EXPECT_EQ(motd->size(), 2u);
  EXPECT_TRUE(IsNotFound(fs_->ReadWholeFile("missing").status()));
}

}  // namespace
}  // namespace itv::files
