#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/load/admission.h"
#include "src/load/load_board.h"
#include "src/media/broadcast.h"
#include "src/media/cmgr.h"
#include "src/media/mds.h"
#include "src/rpc/stub_helpers.h"
#include "src/wire/message.h"
#include "src/wire/object_ref.h"
#include "src/wire/serialize.h"

namespace itv::wire {
namespace {

TEST(SerializeTest, PrimitiveRoundTrip) {
  Writer w;
  w.WriteU8(0xab);
  w.WriteBool(true);
  w.WriteU16(0x1234);
  w.WriteU32(0xdeadbeef);
  w.WriteU64(0x0123456789abcdefull);
  w.WriteI32(-42);
  w.WriteI64(-1234567890123ll);
  w.WriteDouble(3.5);
  w.WriteString("hello");

  Reader r(w.bytes());
  EXPECT_EQ(r.ReadU8(), 0xab);
  EXPECT_TRUE(r.ReadBool());
  EXPECT_EQ(r.ReadU16(), 0x1234);
  EXPECT_EQ(r.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(r.ReadU64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.ReadI32(), -42);
  EXPECT_EQ(r.ReadI64(), -1234567890123ll);
  EXPECT_EQ(r.ReadDouble(), 3.5);
  EXPECT_EQ(r.ReadString(), "hello");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SerializeTest, TruncatedReadSetsStickyError) {
  Writer w;
  w.WriteU32(7);
  Reader r(w.bytes());
  EXPECT_EQ(r.ReadU64(), 0u);  // Not enough bytes.
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.ReadU32(), 0u);  // Error is sticky.
  EXPECT_FALSE(r.ok());
}

TEST(SerializeTest, OversizedStringLengthFailsCleanly) {
  Writer w;
  w.WriteU32(1000000);  // Claims a megabyte that is not there.
  Reader r(w.bytes());
  EXPECT_EQ(r.ReadString(), "");
  EXPECT_FALSE(r.ok());
}

TEST(SerializeTest, EmptyStringAndBytes) {
  Writer w;
  w.WriteString("");
  w.WriteBytes({});
  Reader r(w.bytes());
  EXPECT_EQ(r.ReadString(), "");
  EXPECT_TRUE(r.ReadBytes().empty());
  EXPECT_TRUE(r.ok());
}

TEST(SerializeTest, VectorRoundTrip) {
  std::vector<std::string> in{"a", "bb", ""};
  Bytes b = EncodeValue(in);
  std::vector<std::string> out;
  ASSERT_TRUE(DecodeValue(b, &out));
  EXPECT_EQ(out, in);
}

TEST(SerializeTest, NestedVectorRoundTrip) {
  std::vector<std::vector<uint32_t>> in{{1, 2}, {}, {3}};
  Bytes b = EncodeValue(in);
  std::vector<std::vector<uint32_t>> out;
  ASSERT_TRUE(DecodeValue(b, &out));
  EXPECT_EQ(out, in);
}

TEST(SerializeTest, OptionalRoundTrip) {
  std::optional<std::string> some = "x";
  std::optional<std::string> none;
  Bytes b1 = EncodeValue(some);
  Bytes b2 = EncodeValue(none);
  std::optional<std::string> o1, o2 = "junk";
  ASSERT_TRUE(DecodeValue(b1, &o1));
  ASSERT_TRUE(DecodeValue(b2, &o2));
  EXPECT_EQ(o1, some);
  EXPECT_EQ(o2, std::nullopt);
}

TEST(SerializeTest, MapRoundTrip) {
  std::map<std::string, uint64_t> in{{"a", 1}, {"b", 2}};
  Bytes b = EncodeValue(in);
  std::map<std::string, uint64_t> out;
  ASSERT_TRUE(DecodeValue(b, &out));
  EXPECT_EQ(out, in);
}

TEST(SerializeTest, DecodeValueRejectsTrailingBytes) {
  Writer w;
  w.WriteU32(1);
  w.WriteU8(0xff);
  uint32_t v = 0;
  EXPECT_FALSE(DecodeValue(w.bytes(), &v));
}

TEST(EndpointTest, ToStringDottedQuad) {
  Endpoint e{(10u << 24) | (0u << 16) | (3u << 8) | 1u, 7001};
  EXPECT_EQ(e.ToString(), "10.0.3.1:7001");
}

TEST(EndpointTest, NullAndComparison) {
  Endpoint null_ep;
  EXPECT_TRUE(null_ep.is_null());
  Endpoint e{1, 2};
  EXPECT_FALSE(e.is_null());
  EXPECT_NE(e, null_ep);
}

TEST(ObjectRefTest, RoundTrip) {
  ObjectRef ref;
  ref.endpoint = {0x0a000101, 500};
  ref.incarnation = 77;
  ref.type_id = TypeIdFromName("itv.NamingContext");
  ref.object_id = 3;
  Bytes b = EncodeValue(ref);
  ObjectRef out;
  ASSERT_TRUE(DecodeValue(b, &out));
  EXPECT_EQ(out, ref);
}

TEST(ObjectRefTest, NullDetection) {
  ObjectRef ref;
  EXPECT_TRUE(ref.is_null());
  ref.incarnation = 1;
  EXPECT_FALSE(ref.is_null());
}

TEST(TypeIdTest, DistinctForSystemInterfaces) {
  const char* names[] = {
      "itv.NamingContext", "itv.ReplicatedContext", "itv.Selector",
      "itv.ResourceAudit", "itv.ServerServiceController",
      "itv.ClusterServiceController", "itv.ConnectionManager",
      "itv.MediaDelivery", "itv.Movie", "itv.MediaManagement",
      "itv.ReliableDelivery", "itv.SettopManager", "itv.Database",
      "itv.Auth", "itv.FileSystemContext",
  };
  std::set<uint64_t> ids;
  for (const char* n : names) {
    ids.insert(TypeIdFromName(n));
  }
  EXPECT_EQ(ids.size(), std::size(names));
}

TEST(TypeIdTest, IsConstexprAndStable) {
  static_assert(TypeIdFromName("itv.Echo") != 0);
  EXPECT_EQ(TypeIdFromName("itv.Echo"), TypeIdFromName("itv.Echo"));
}

Message MakeSampleMessage() {
  Message m;
  m.kind = MsgKind::kRequest;
  m.call_id = 42;
  m.object_id = 3;
  m.type_id = TypeIdFromName("itv.Echo");
  m.method_id = 2;
  m.target_incarnation = 99;
  m.auth.principal = "settop/11.1.0.1";
  m.auth.ticket_id = 1234;
  m.auth.signature = {1, 2, 3};
  m.auth.encrypted = false;
  m.payload = {9, 8, 7};
  return m;
}

TEST(MessageTest, EncodeDecodeRoundTrip) {
  Message m = MakeSampleMessage();
  Bytes b = EncodeMessage(m);
  Message out;
  ASSERT_TRUE(DecodeMessage(b, &out));
  EXPECT_EQ(out.kind, m.kind);
  EXPECT_EQ(out.call_id, m.call_id);
  EXPECT_EQ(out.object_id, m.object_id);
  EXPECT_EQ(out.type_id, m.type_id);
  EXPECT_EQ(out.method_id, m.method_id);
  EXPECT_EQ(out.target_incarnation, m.target_incarnation);
  EXPECT_EQ(out.status, m.status);
  EXPECT_EQ(out.auth.principal, m.auth.principal);
  EXPECT_EQ(out.auth.ticket_id, m.auth.ticket_id);
  EXPECT_EQ(out.auth.signature, m.auth.signature);
  EXPECT_EQ(out.payload, m.payload);
}

TEST(MessageTest, ReplyStatusRoundTrip) {
  Message m;
  m.kind = MsgKind::kReply;
  m.call_id = 1;
  m.status = itv::StatusCode::kNotFound;
  m.status_message = "no such movie";
  Bytes b = EncodeMessage(m);
  Message out;
  ASSERT_TRUE(DecodeMessage(b, &out));
  EXPECT_EQ(out.status, itv::StatusCode::kNotFound);
  EXPECT_EQ(out.status_message, "no such movie");
}

TEST(MessageTest, BadMagicRejected) {
  Bytes b = EncodeMessage(MakeSampleMessage());
  b[0] ^= 0xff;
  Message out;
  EXPECT_FALSE(DecodeMessage(b, &out));
}

TEST(MessageTest, TruncationRejected) {
  Bytes b = EncodeMessage(MakeSampleMessage());
  for (size_t cut : {b.size() - 1, b.size() / 2, size_t{5}}) {
    Bytes t(b.begin(), b.begin() + static_cast<long>(cut));
    Message out;
    EXPECT_FALSE(DecodeMessage(t, &out)) << "cut=" << cut;
  }
}

TEST(MessageTest, SignedPortionCoversRoutingAndPayload) {
  Message a = MakeSampleMessage();
  Message b = a;
  EXPECT_EQ(a.SignedPortion(), b.SignedPortion());
  b.method_id = 5;
  EXPECT_NE(a.SignedPortion(), b.SignedPortion());
  b = a;
  b.payload = {0};
  EXPECT_NE(a.SignedPortion(), b.SignedPortion());
  b = a;
  b.auth.principal = "attacker";
  EXPECT_NE(a.SignedPortion(), b.SignedPortion());
  // The signature itself must NOT be covered (it is computed over this).
  b = a;
  b.auth.signature = {9, 9};
  EXPECT_EQ(a.SignedPortion(), b.SignedPortion());
}

// --- Load/media wire types (PR10): round-trip, field order, legacy decode ----

// Tiny deterministic PRNG (splitmix64) so the property loops are stable.
uint64_t NextRand(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

TEST(MediaWireTest, MdsLoadRoundTrip) {
  media::MdsLoad in;
  in.active_streams = 7;
  in.reserved_bps = 21'000'000;
  in.capacity_bps = 48'000'000;
  in.seq = (55ull << 20) + 3;
  Bytes b = EncodeValue(in);
  media::MdsLoad out;
  ASSERT_TRUE(DecodeValue(b, &out));
  EXPECT_EQ(out, in);
}

TEST(MediaWireTest, MdsLoadFieldOrderStability) {
  // The wire layout is a contract: u32 streams, i64 reserved, i64 capacity,
  // u64 seq. A reader pulling fields in that order must see these values.
  media::MdsLoad in;
  in.active_streams = 2;
  in.reserved_bps = 6'000'000;
  in.capacity_bps = 48'000'000;
  in.seq = 9;
  Writer w;
  WireWrite(w, in);
  Reader r(w.bytes());
  EXPECT_EQ(r.ReadU32(), 2u);
  EXPECT_EQ(r.ReadI64(), 6'000'000);
  EXPECT_EQ(r.ReadI64(), 48'000'000);
  EXPECT_EQ(r.ReadU64(), 9u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(MediaWireTest, MdsSyncRoundTrip) {
  // MdsLoad sits between two lists in the sync reply, so its seq is a fixed
  // field: a pre-seq encoding would eat the session list's length.
  media::MdsSync in;
  in.titles = {media::MovieInfo{"T2", 3'000'000, 1'350'000'000}};
  in.load.active_streams = 1;
  in.load.reserved_bps = 3'000'000;
  in.load.capacity_bps = 48'000'000;
  in.load.seq = (7ull << 20) + 2;
  media::SessionInfo session;
  session.stream_id = (7ull << 20) + 1;
  session.title = "T2";
  session.settop_host = 0x0b010001;
  session.connection.connection_id = 42;
  session.connection.downstream_bps = 3'000'000;
  session.movie.endpoint = {0x0a000101, 500};
  session.movie.object_id = 12;
  in.sessions = {session};
  Bytes b = EncodeValue(in);
  media::MdsSync out;
  ASSERT_TRUE(DecodeValue(b, &out));
  EXPECT_EQ(out.titles, in.titles);
  EXPECT_EQ(out.load, in.load);
  ASSERT_EQ(out.sessions.size(), 1u);
  EXPECT_EQ(out.sessions[0].stream_id, session.stream_id);
  EXPECT_EQ(out.sessions[0].settop_host, session.settop_host);
  EXPECT_EQ(out.sessions[0].connection.connection_id, 42u);
  EXPECT_EQ(out.sessions[0].movie, session.movie);

  Writer legacy;  // Pre-seq MdsLoad: stops after capacity_bps.
  legacy.WriteU32(3);
  legacy.WriteI64(9'000'000);
  legacy.WriteI64(48'000'000);
  media::MdsLoad load;
  EXPECT_FALSE(DecodeValue(legacy.bytes(), &load));
}

TEST(MediaWireTest, BootParamsRoundTripKeepsReplicaOrder) {
  // The replica list leads the boot parameters, home replica first: the
  // settop's lookups fall back down it in this order.
  media::BootParams in;
  in.ns_replicas = {0x0a000301, 0x0a000101, 0x0a000201};
  in.kernel_version = 3;
  in.kernel_size_bytes = 2'000'000;
  in.boot_channel_bps = 8'000'000;
  Bytes b = EncodeValue(in);
  media::BootParams out;
  ASSERT_TRUE(DecodeValue(b, &out));
  EXPECT_EQ(out.ns_replicas, in.ns_replicas);
  EXPECT_EQ(out.kernel_version, 3u);
  EXPECT_EQ(out.kernel_size_bytes, 2'000'000);
  EXPECT_EQ(out.boot_channel_bps, 8'000'000);

  Reader r(b);
  EXPECT_EQ(r.ReadU32(), 3u);  // List length.
  EXPECT_EQ(r.ReadU32(), 0x0a000301u);

  // A truncated reply does not decode.
  b.resize(b.size() - 1);
  EXPECT_FALSE(DecodeValue(b, &out));
}

TEST(MediaWireTest, MmsOpenArgsCarryTheQuietReplica) {
  // MMS open arguments: title, settop host, sink, then the host of the MDS
  // whose stream went quiet. Three-argument requests no longer decode.
  ObjectRef sink;
  sink.endpoint = {0x0b010001, 7};
  sink.object_id = 3;
  Bytes args = rpc::EncodeArgs(std::string("T2"), uint32_t{0x0b010001}, sink,
                               uint32_t{0x0a000301});
  std::string title;
  uint32_t settop_host = 0;
  ObjectRef decoded_sink;
  uint32_t quiet_mds = 0;
  ASSERT_TRUE(rpc::DecodeArgs(args, &title, &settop_host, &decoded_sink,
                              &quiet_mds));
  EXPECT_EQ(title, "T2");
  EXPECT_EQ(settop_host, 0x0b010001u);
  EXPECT_EQ(decoded_sink, sink);
  EXPECT_EQ(quiet_mds, 0x0a000301u);

  Bytes legacy = rpc::EncodeArgs(std::string("T2"), uint32_t{0x0b010001}, sink);
  EXPECT_FALSE(rpc::DecodeArgs(legacy, &title, &settop_host, &decoded_sink,
                               &quiet_mds));
}

TEST(MediaWireTest, TrunkListGrantsRoundTrip) {
  // listGrants takes the neighborhood and replies with the whole grant of
  // each reservation, which a promoted CMgr adopts as it is.
  Bytes args = rpc::EncodeArgs(uint8_t{3});
  uint8_t neighborhood = 0;
  ASSERT_TRUE(rpc::DecodeArgs(args, &neighborhood));
  EXPECT_EQ(neighborhood, 3);
  EXPECT_FALSE(rpc::DecodeArgs(Bytes{}, &neighborhood));  // Truncated.

  std::vector<media::ConnectionGrant> in(2);
  in[0].connection_id = (9ull << 20) + 1;
  in[0].settop_host = 0x0b030001;
  in[0].server_host = 0x0a000201;
  in[0].downstream_bps = 3'000'000;
  in[1] = in[0];
  in[1].connection_id = (9ull << 20) + 2;
  in[1].downstream_bps = 1'500'000;
  Bytes reply = EncodeValue(in);
  std::vector<media::ConnectionGrant> out;
  ASSERT_TRUE(DecodeValue(reply, &out));
  EXPECT_EQ(out, in);
  reply.resize(reply.size() - 1);
  EXPECT_FALSE(DecodeValue(reply, &out));
}

TEST(MediaWireTest, MovieTicketRoundTripAndLegacyDecode) {
  media::MovieTicket in;
  in.stream_id = 0x55aa;
  in.movie.endpoint = {0x0a000101, 500};
  in.movie.incarnation = 3;
  in.movie.type_id = TypeIdFromName("itv.Movie");
  in.movie.object_id = 12;
  in.load.active_streams = 4;
  in.load.reserved_bps = 12'000'000;
  in.load.capacity_bps = 48'000'000;
  in.load.seq = 1234;
  Bytes b = EncodeValue(in);
  media::MovieTicket out;
  ASSERT_TRUE(DecodeValue(b, &out));
  EXPECT_EQ(out, in);

  // The pre-load encodings (stream id + movie ref, then + a bare load
  // sequence) no longer decode.
  Writer w;
  w.WriteU64(in.stream_id);
  WireWrite(w, in.movie);
  media::MovieTicket legacy;
  EXPECT_FALSE(DecodeValue(w.bytes(), &legacy));
  w.WriteU64(in.load.seq);
  EXPECT_FALSE(DecodeValue(w.bytes(), &legacy));
}

TEST(LoadWireTest, LoadReportRoundTrip) {
  load::LoadReport in;
  in.reporter = "svc/mds/2";
  in.active_streams = 5;
  in.reserved_bps = 15'000'000;
  in.capacity_bps = 48'000'000;
  in.admission_rejects = 11;
  in.seq = (9ull << 20) + 44;
  Bytes b = EncodeValue(in);
  load::LoadReport out;
  ASSERT_TRUE(DecodeValue(b, &out));
  EXPECT_EQ(out, in);
  EXPECT_EQ(out.headroom_bps(), 33'000'000);
}

TEST(LoadWireTest, LoadReportFieldOrderStability) {
  load::LoadReport in;
  in.reporter = "svc/mms/1";
  in.active_streams = 4;
  in.reserved_bps = 12'000'000;
  in.capacity_bps = 36'000'000;
  in.admission_rejects = 2;
  in.seq = 77;
  Writer w;
  WireWrite(w, in);
  Reader r(w.bytes());
  EXPECT_EQ(r.ReadString(), "svc/mms/1");
  EXPECT_EQ(r.ReadU32(), 4u);
  EXPECT_EQ(r.ReadI64(), 12'000'000);
  EXPECT_EQ(r.ReadI64(), 36'000'000);
  EXPECT_EQ(r.ReadU64(), 2u);
  EXPECT_EQ(r.ReadU64(), 77u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(LoadWireTest, LoadReportVectorRoundTripProperty) {
  // Randomized encode/decode over vectors (the Snapshot reply shape).
  uint64_t state = 42;
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<load::LoadReport> in;
    size_t count = NextRand(state) % 8;
    for (size_t i = 0; i < count; ++i) {
      load::LoadReport report;
      report.reporter = "svc/x/" + std::to_string(NextRand(state) % 100);
      report.active_streams = static_cast<uint32_t>(NextRand(state) % 1000);
      report.reserved_bps = static_cast<int64_t>(NextRand(state) % (1ull << 40));
      report.capacity_bps = static_cast<int64_t>(NextRand(state) % (1ull << 40));
      report.admission_rejects = NextRand(state) % 10000;
      report.seq = NextRand(state);
      in.push_back(std::move(report));
    }
    Bytes b = EncodeValue(in);
    std::vector<load::LoadReport> out;
    ASSERT_TRUE(DecodeValue(b, &out)) << "iter=" << iter;
    EXPECT_EQ(out, in) << "iter=" << iter;
  }
}

TEST(LoadWireTest, MdsLoadRoundTripProperty) {
  uint64_t state = 7;
  for (int iter = 0; iter < 100; ++iter) {
    media::MdsLoad in;
    in.active_streams = static_cast<uint32_t>(NextRand(state));
    in.reserved_bps = static_cast<int64_t>(NextRand(state) >> 1);
    in.capacity_bps = static_cast<int64_t>(NextRand(state) >> 1);
    in.seq = NextRand(state);
    Bytes b = EncodeValue(in);
    media::MdsLoad out;
    ASSERT_TRUE(DecodeValue(b, &out)) << "iter=" << iter;
    EXPECT_EQ(out, in) << "iter=" << iter;
  }
}

TEST(LoadWireTest, AdmissionStateRoundTrip) {
  load::AdmissionState in;
  in.pool_bps = 36'000'000;
  in.reserved_bps = 33'000'000;
  in.peak_granted_bps = 36'000'000;
  in.rejects = 17;
  in.shedding = true;
  Bytes b = EncodeValue(in);
  load::AdmissionState out;
  ASSERT_TRUE(DecodeValue(b, &out));
  EXPECT_EQ(out, in);
}

TEST(LoadWireTest, TruncatedLoadReportRejected) {
  load::LoadReport in;
  in.reporter = "svc/mds/1";
  in.seq = 5;
  Bytes b = EncodeValue(in);
  for (size_t cut : {b.size() - 1, b.size() / 2, size_t{1}}) {
    Bytes t(b.begin(), b.begin() + static_cast<long>(cut));
    load::LoadReport out;
    EXPECT_FALSE(DecodeValue(t, &out)) << "cut=" << cut;
  }
}

}  // namespace
}  // namespace itv::wire
