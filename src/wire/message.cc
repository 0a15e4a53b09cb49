#include "src/wire/message.h"

#include "src/common/strings.h"

namespace itv::wire {

namespace {
constexpr uint32_t kMagic = 0x4f435331;  // "OCS1"
}  // namespace

Bytes Message::SignedPortion() const {
  Bytes out;
  out.reserve(38 + 3 * sizeof(uint32_t) + sizeof(uint64_t) +
              status_message.size() + auth.principal.size() + payload.size());
  ForEachSignedSpan(
      [&out](const uint8_t* p, size_t n) { out.insert(out.end(), p, p + n); });
  return out;
}

size_t Message::EncodedSize() const {
  // Fixed-width fields + five u32 length prefixes + variable data.
  return 4 + 1 + 8 + 8 + 8 + 4 + 8 + 8 + 8 + 1 + 8 + 1 + 5 * 4 +
         status_message.size() + auth.principal.size() +
         auth.ticket_blob.size() + auth.signature.size() + payload.size();
}

std::string Message::ToString() const {
  const char* kind_name = kind == MsgKind::kRequest  ? "REQ"
                          : kind == MsgKind::kReply ? "REP"
                                                    : "NACK";
  return StrFormat("%s call=%llu obj=%llu method=%u from=%s status=%s", kind_name,
                   static_cast<unsigned long long>(call_id),
                   static_cast<unsigned long long>(object_id), method_id,
                   source.ToString().c_str(),
                   std::string(StatusCodeName(status)).c_str());
}

void EncodeMessageTo(const Message& m, Writer& w) {
  w.Reserve(m.EncodedSize());
  w.WriteU32(kMagic);
  w.WriteU8(static_cast<uint8_t>(m.kind));
  w.WriteU64(m.call_id);
  w.WriteU64(m.object_id);
  w.WriteU64(m.type_id);
  w.WriteU32(m.method_id);
  w.WriteU64(m.target_incarnation);
  w.WriteU64(m.trace_id);
  w.WriteU64(m.span_id);
  w.WriteU8(static_cast<uint8_t>(m.status));
  w.WriteString(m.status_message);
  w.WriteString(m.auth.principal);
  w.WriteU64(m.auth.ticket_id);
  w.WriteBytes(m.auth.ticket_blob);
  w.WriteBytes(m.auth.signature);
  w.WriteBool(m.auth.encrypted);
  w.WriteBytes(m.payload);
}

Bytes EncodeMessage(const Message& m) {
  Writer w;
  EncodeMessageTo(m, w);
  return w.TakeBytes();
}

bool DecodeMessage(const Bytes& b, Message* out) {
  Reader r(b);
  if (r.ReadU32() != kMagic) {
    return false;
  }
  out->kind = static_cast<MsgKind>(r.ReadU8());
  out->call_id = r.ReadU64();
  out->object_id = r.ReadU64();
  out->type_id = r.ReadU64();
  out->method_id = r.ReadU32();
  out->target_incarnation = r.ReadU64();
  out->trace_id = r.ReadU64();
  out->span_id = r.ReadU64();
  out->status = static_cast<StatusCode>(r.ReadU8());
  out->status_message = r.ReadString();
  out->auth.principal = r.ReadString();
  out->auth.ticket_id = r.ReadU64();
  out->auth.ticket_blob = r.ReadBytes();
  out->auth.signature = r.ReadBytes();
  out->auth.encrypted = r.ReadBool();
  out->payload = r.ReadBytes();
  return r.ok() && r.remaining() == 0;
}

}  // namespace itv::wire
