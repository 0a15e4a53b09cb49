// Property-based tests: randomized (but seeded, hence reproducible) sweeps
// checking invariants against reference models. Parameterized over seeds via
// TEST_P / INSTANTIATE_TEST_SUITE_P.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/auth/auth_service.h"
#include "src/auth/chacha20.h"
#include "src/auth/hmac.h"
#include "src/common/rand.h"
#include "src/db/disk.h"
#include "src/db/store.h"
#include "src/naming/context_tree.h"
#include "src/sim/scheduler.h"
#include "src/wire/message.h"

namespace itv {
namespace {

class SeededTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  Rng rng_{GetParam()};
};

// --- Wire round trips ----------------------------------------------------------

class WireProperty : public SeededTest {};

wire::Bytes RandomBytes(Rng& rng, size_t max_len) {
  wire::Bytes out(rng.Below(max_len + 1));
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.Below(256));
  }
  return out;
}

std::string RandomString(Rng& rng, size_t max_len) {
  wire::Bytes b = RandomBytes(rng, max_len);
  return std::string(b.begin(), b.end());
}

wire::Message RandomMessage(Rng& rng) {
  wire::Message m;
  m.kind = static_cast<wire::MsgKind>(1 + rng.Below(3));
  m.call_id = rng.Next();
  m.object_id = rng.Next();
  m.type_id = rng.Next();
  m.method_id = static_cast<uint32_t>(rng.Next());
  m.target_incarnation = rng.Next();
  m.status = static_cast<StatusCode>(rng.Below(15));
  m.status_message = RandomString(rng, 64);
  m.auth.principal = RandomString(rng, 32);
  m.auth.ticket_id = rng.Next();
  m.auth.ticket_blob = RandomBytes(rng, 64);
  m.auth.signature = RandomBytes(rng, 32);
  m.auth.encrypted = rng.Bernoulli(0.5);
  m.payload = RandomBytes(rng, 512);
  return m;
}

void ExpectSameMessage(const wire::Message& a, const wire::Message& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.call_id, b.call_id);
  EXPECT_EQ(a.object_id, b.object_id);
  EXPECT_EQ(a.type_id, b.type_id);
  EXPECT_EQ(a.method_id, b.method_id);
  EXPECT_EQ(a.target_incarnation, b.target_incarnation);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.status_message, b.status_message);
  EXPECT_EQ(a.auth.principal, b.auth.principal);
  EXPECT_EQ(a.auth.ticket_id, b.auth.ticket_id);
  EXPECT_EQ(a.auth.ticket_blob, b.auth.ticket_blob);
  EXPECT_EQ(a.auth.signature, b.auth.signature);
  EXPECT_EQ(a.auth.encrypted, b.auth.encrypted);
  EXPECT_EQ(a.payload, b.payload);
}

TEST_P(WireProperty, MessageEncodeDecodeRoundTrips) {
  for (int i = 0; i < 200; ++i) {
    wire::Message m = RandomMessage(rng_);
    wire::Bytes encoded = wire::EncodeMessage(m);
    EXPECT_EQ(encoded.size(), m.EncodedSize());
    wire::Message out;
    ASSERT_TRUE(wire::DecodeMessage(encoded, &out));
    ExpectSameMessage(m, out);
  }
}

TEST_P(WireProperty, TruncatedMessagesNeverDecode) {
  wire::Message m = RandomMessage(rng_);
  wire::Bytes encoded = wire::EncodeMessage(m);
  for (int i = 0; i < 100; ++i) {
    size_t cut = rng_.Below(encoded.size());  // Strictly shorter.
    wire::Bytes truncated(encoded.begin(),
                          encoded.begin() + static_cast<long>(cut));
    wire::Message out;
    EXPECT_FALSE(wire::DecodeMessage(truncated, &out)) << "cut=" << cut;
  }
}

TEST_P(WireProperty, ReaderNeverReadsPastEnd) {
  // Random bytes through every reader primitive: must not crash, and a
  // failed reader stays failed.
  for (int i = 0; i < 200; ++i) {
    wire::Bytes junk = RandomBytes(rng_, 64);
    wire::Reader r(junk);
    while (r.ok() && r.remaining() > 0) {
      switch (rng_.Below(6)) {
        case 0:
          r.ReadU8();
          break;
        case 1:
          r.ReadU32();
          break;
        case 2:
          r.ReadU64();
          break;
        case 3:
          r.ReadString();
          break;
        case 4:
          r.ReadBytes();
          break;
        default:
          r.ReadDouble();
          break;
      }
    }
    bool ok_at_end = r.ok();
    r.ReadU64();
    if (!ok_at_end) {
      EXPECT_FALSE(r.ok());
    }
  }
}

// The transport decodes a frame body it owns and then drops; an rvalue buffer
// binds to the one DecodeMessage overload and must decode exactly as an
// lvalue copy of the same bytes does.
TEST_P(WireProperty, MoveDecodeMatchesCopyDecode) {
  for (int i = 0; i < 200; ++i) {
    wire::Message m = RandomMessage(rng_);
    wire::Bytes encoded = wire::EncodeMessage(m);
    EXPECT_EQ(encoded.size(), m.EncodedSize());

    wire::Message copied;
    ASSERT_TRUE(wire::DecodeMessage(encoded, &copied));
    wire::Message moved;
    ASSERT_TRUE(wire::DecodeMessage(wire::Bytes(encoded), &moved));
    ExpectSameMessage(copied, moved);
    ExpectSameMessage(m, moved);
  }
}

TEST_P(WireProperty, EncodeMessageToRecycledBufferIsByteIdentical) {
  wire::Bytes recycled = RandomBytes(rng_, 300);  // Dirty buffer to reuse.
  for (int i = 0; i < 100; ++i) {
    wire::Message m = RandomMessage(rng_);
    wire::Bytes reference = wire::EncodeMessage(m);
    wire::Writer w(std::move(recycled));
    wire::EncodeMessageTo(m, w);
    recycled = w.TakeBytes();
    EXPECT_EQ(recycled, reference);
  }
}

TEST_P(WireProperty, SignedSpansMatchSignedPortion) {
  auth::Key key = auth::KeyFromString("span-check");
  for (int i = 0; i < 200; ++i) {
    wire::Message m = RandomMessage(rng_);
    wire::Bytes buffered = m.SignedPortion();
    wire::Bytes spans;
    m.ForEachSignedSpan([&spans](const void* data, size_t n) {
      const auto* p = static_cast<const uint8_t*>(data);
      spans.insert(spans.end(), p, p + n);
    });
    ASSERT_EQ(spans, buffered);
    auth::HmacSha256Stream hmac(key);
    m.ForEachSignedSpan(
        [&hmac](const void* data, size_t n) { hmac.Update(data, n); });
    EXPECT_EQ(hmac.Finish(), auth::HmacSha256(key, buffered));
  }
}

TEST_P(WireProperty, TruncatedMessagesNeverDecodeByMove) {
  wire::Message m = RandomMessage(rng_);
  wire::Bytes encoded = wire::EncodeMessage(m);
  for (int i = 0; i < 100; ++i) {
    size_t cut = rng_.Below(encoded.size());  // Strictly shorter.
    wire::Bytes truncated(encoded.begin(),
                          encoded.begin() + static_cast<long>(cut));
    wire::Message out;
    EXPECT_FALSE(wire::DecodeMessage(std::move(truncated), &out))
        << "cut=" << cut;
  }
}

TEST_P(WireProperty, CorruptedMessagesDecodeWithoutCrashing) {
  // Single-bit flips anywhere in the frame must either decode cleanly (flips
  // in opaque fields are not the wire layer's to detect — the HMAC catches
  // them) or fail, and never read out of bounds. Run under ASan/UBSan in CI.
  wire::Message m = RandomMessage(rng_);
  wire::Bytes encoded = wire::EncodeMessage(m);
  for (int i = 0; i < 200; ++i) {
    wire::Bytes corrupt = encoded;
    corrupt[rng_.Below(corrupt.size())] ^=
        static_cast<uint8_t>(1u << rng_.Below(8));
    wire::Message out;
    (void)wire::DecodeMessage(corrupt, &out);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireProperty, ::testing::Values(1, 2, 3, 4, 5));

// --- Crypto ---------------------------------------------------------------------

class CryptoProperty : public SeededTest {};

TEST_P(CryptoProperty, ChaChaRoundTripsAndDiffers) {
  for (int i = 0; i < 50; ++i) {
    auth::Key key = auth::KeyFromString(RandomString(rng_, 16));
    uint64_t nonce = rng_.Next();
    wire::Bytes plain = RandomBytes(rng_, 300);
    wire::Bytes cipher = auth::ChaCha20Crypted(key, nonce, plain);
    if (!plain.empty()) {
      EXPECT_NE(cipher, plain);
    }
    EXPECT_EQ(auth::ChaCha20Crypted(key, nonce, cipher), plain);
  }
}

TEST_P(CryptoProperty, SealedTicketsRejectAnyBitFlip) {
  auth::Key key = auth::KeyFromString(RandomString(rng_, 16));
  auth::TicketContents contents{rng_.Next(), RandomString(rng_, 20),
                                auth::KeyFromString("session")};
  wire::Bytes blob = auth::SealTicketBlob(key, contents);
  for (int i = 0; i < 64; ++i) {
    wire::Bytes tampered = blob;
    size_t byte = rng_.Below(tampered.size());
    tampered[byte] ^= static_cast<uint8_t>(1 + rng_.Below(255));
    EXPECT_FALSE(
        auth::UnsealTicketBlobWithId(key, contents.ticket_id, tampered)
            .has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CryptoProperty, ::testing::Values(10, 11, 12));

// --- Store vs reference model ------------------------------------------------------

class StoreProperty : public SeededTest {};

TEST_P(StoreProperty, MatchesMapModelThroughCrashes) {
  db::MemoryDisk disk;
  std::map<std::pair<std::string, std::string>, std::string> model;
  auto store = std::make_unique<db::Store>(disk);

  const std::string tables[] = {"a", "b"};
  for (int op = 0; op < 800; ++op) {
    std::string table = tables[rng_.Below(2)];
    std::string key = "k" + std::to_string(rng_.Below(20));
    switch (rng_.Below(4)) {
      case 0:
      case 1: {  // Put.
        std::string value = RandomString(rng_, 24);
        ASSERT_TRUE(store->Put(table, key, value).ok());
        model[{table, key}] = value;
        break;
      }
      case 2: {  // Delete.
        Status s = store->Delete(table, key);
        bool existed = model.erase({table, key}) > 0;
        EXPECT_EQ(s.ok(), existed);
        break;
      }
      default: {  // "Crash" and recover from disk.
        if (rng_.Bernoulli(0.1)) {
          store = std::make_unique<db::Store>(disk);
        }
        auto got = store->Get(table, key);
        auto it = model.find({table, key});
        if (it == model.end()) {
          EXPECT_TRUE(IsNotFound(got.status()));
        } else {
          ASSERT_TRUE(got.ok());
          EXPECT_EQ(*got, it->second);
        }
        break;
      }
    }
  }
  // Final full comparison after one more recovery.
  store = std::make_unique<db::Store>(disk);
  for (const std::string& table : tables) {
    auto rows = store->Scan(table);
    size_t expected = 0;
    for (const auto& [tk, value] : model) {
      if (tk.first == table) {
        ++expected;
      }
    }
    EXPECT_EQ(rows.size(), expected);
    for (const auto& [key, value] : rows) {
      EXPECT_EQ(model.at({table, key}), value);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreProperty, ::testing::Values(21, 22, 23, 24));

// --- ContextTree: replication determinism under random ops -------------------------

class TreeProperty : public SeededTest {};

TEST_P(TreeProperty, RandomOpSequencesKeepReplicasIdentical) {
  naming::ContextTree primary;
  naming::ContextTree replica;
  std::vector<naming::Name> known_contexts = {{}};

  for (int op = 0; op < 500; ++op) {
    naming::NameUpdate update;
    const naming::Name& base = known_contexts[rng_.Below(known_contexts.size())];
    update.path = base;
    update.path.push_back("n" + std::to_string(rng_.Below(6)));
    switch (rng_.Below(4)) {
      case 0:
        update.op = naming::NameOp::kBind;
        update.ref.endpoint = {static_cast<uint32_t>(rng_.Next()),
                               static_cast<uint16_t>(rng_.Below(65536))};
        update.ref.incarnation = rng_.Next();
        break;
      case 1:
        update.op = naming::NameOp::kBindNewContext;
        break;
      case 2:
        update.op = naming::NameOp::kBindReplContext;
        break;
      default:
        update.op = naming::NameOp::kUnbind;
        break;
    }
    Status a = primary.Apply(update);
    Status b = replica.Apply(update);
    // The replication invariant: both replicas accept/reject identically...
    ASSERT_EQ(a.code(), b.code()) << "op " << op;
    if (a.ok() && (update.op == naming::NameOp::kBindNewContext ||
                   update.op == naming::NameOp::kBindReplContext)) {
      known_contexts.push_back(update.path);
    }
    if (!a.ok() && update.op == naming::NameOp::kUnbind) {
      continue;
    }
  }
  // ...and end up structurally identical.
  EXPECT_TRUE(primary.StructurallyEquals(replica));

  // Snapshot transfer reproduces the same tree (a joining replica).
  auto joined = naming::ContextTree::DecodeSnapshot(primary.EncodeSnapshot());
  ASSERT_TRUE(joined.ok());
  EXPECT_TRUE(joined->StructurallyEquals(primary));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeProperty, ::testing::Values(31, 32, 33, 34));

// --- Scheduler ordering under random load -------------------------------------------

class SchedulerProperty : public SeededTest {};

TEST_P(SchedulerProperty, FiringOrderMatchesTimeAndCancellation) {
  sim::Scheduler scheduler;
  struct Planned {
    TimerId id;
    Time when;
    bool cancelled = false;
  };
  std::vector<Planned> planned;
  std::vector<Time> fired_at;

  for (int i = 0; i < 300; ++i) {
    Time when = Time::FromNanos(static_cast<int64_t>(rng_.Below(1000000)));
    Planned p;
    p.when = when;
    p.id = scheduler.ScheduleAt(when, [&fired_at, &scheduler] {
      fired_at.push_back(scheduler.Now());
    });
    planned.push_back(p);
  }
  // Cancel a random third.
  size_t cancelled = 0;
  for (Planned& p : planned) {
    if (rng_.Bernoulli(0.33)) {
      EXPECT_TRUE(scheduler.Cancel(p.id));
      p.cancelled = true;
      ++cancelled;
    }
  }
  scheduler.RunUntilIdle();

  EXPECT_EQ(fired_at.size(), planned.size() - cancelled);
  for (size_t i = 1; i < fired_at.size(); ++i) {
    EXPECT_LE(fired_at[i - 1], fired_at[i]);  // Monotone firing.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerProperty, ::testing::Values(41, 42, 43));

}  // namespace
}  // namespace itv
