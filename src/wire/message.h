// RPC message format shared by the simulated and TCP transports.
//
// Calls are signed by default and optionally encrypted (paper Section 3.3:
// "By default, calls are signed but not encrypted"). The auth block carries
// the caller principal, the ticket that keys the HMAC, and the signature;
// computing/verifying signatures is the auth module's job — wire only
// defines the bytes that are covered (see SignedPortion()).

#ifndef SRC_WIRE_MESSAGE_H_
#define SRC_WIRE_MESSAGE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "src/common/status.h"
#include "src/wire/object_ref.h"
#include "src/wire/serialize.h"

namespace itv::wire {

enum class MsgKind : uint8_t {
  kRequest = 1,
  kReply = 2,
  // Sent by a node when a message addresses a port nobody listens on or a
  // stale incarnation — models the TCP RST a caller of a dead process sees,
  // so "the client will detect this on the next attempt to use the object
  // reference" (paper Section 3.2.1).
  kNack = 3,
};

struct AuthBlock {
  std::string principal;   // Caller identity ("settop/11.1.0.1", "svc/mms").
  uint64_t ticket_id = 0;  // Session ticket keying the signature (0 = none).
  Bytes ticket_blob;       // Kerberos-style: session key sealed for the server.
  Bytes signature;         // HMAC-SHA256 over SignedPortion(); empty = unsigned.
  bool encrypted = false;  // Payload encrypted under the session key.
};

struct Message {
  MsgKind kind = MsgKind::kRequest;
  uint64_t call_id = 0;
  // Request routing: which object/incarnation/method at the destination.
  uint64_t object_id = 0;
  uint64_t type_id = 0;
  uint32_t method_id = 0;
  uint64_t target_incarnation = 0;
  // Reply outcome.
  StatusCode status = StatusCode::kOk;
  std::string status_message;

  // Causal-trace propagation (src/common/trace.h): the trace this request
  // belongs to and the caller's span (the callee's parent). Zero = untraced.
  // Observability metadata only — like `source`, it never influences dispatch,
  // so it is carried outside the signed portion.
  uint64_t trace_id = 0;
  uint64_t span_id = 0;

  AuthBlock auth;
  Bytes payload;

  // Filled in by the receiving transport, never serialized.
  Endpoint source;

  // The bytes covered by the call signature: everything that determines what
  // the callee will do, so a tampered or replayed-onto-another-object message
  // fails verification.
  //
  // ForEachSignedSpan visits those bytes as (ptr, len) spans — fixed-width
  // fields staged through a small stack scratch, strings and the payload
  // passed through in place — so a streaming HMAC can sign the message
  // without materializing a buffer. Spans are only valid during the callback
  // (the scratch is reused); the concatenation of all spans is byte-identical
  // to SignedPortion(), which remains as the reference implementation for
  // tests.
  template <typename Sink>
  void ForEachSignedSpan(Sink&& sink) const {
    uint8_t scratch[48];
    size_t off = 0;
    auto put_u8 = [&](uint8_t v) { scratch[off++] = v; };
    auto put_u32 = [&](uint32_t v) {
      std::memcpy(scratch + off, &v, sizeof(v));  // Little-endian hosts only,
      off += sizeof(v);                           // matching Writer::AppendLe.
    };
    auto put_u64 = [&](uint64_t v) {
      std::memcpy(scratch + off, &v, sizeof(v));
      off += sizeof(v);
    };
    auto emit = [&](const void* p, size_t n) {
      if (n > 0) {
        sink(static_cast<const uint8_t*>(p), n);
      }
      off = 0;
    };
    put_u8(static_cast<uint8_t>(kind));
    put_u64(call_id);
    put_u64(object_id);
    put_u64(type_id);
    put_u32(method_id);
    put_u64(target_incarnation);
    put_u8(static_cast<uint8_t>(status));
    put_u32(static_cast<uint32_t>(status_message.size()));
    emit(scratch, off);
    emit(status_message.data(), status_message.size());
    put_u32(static_cast<uint32_t>(auth.principal.size()));
    emit(scratch, off);
    emit(auth.principal.data(), auth.principal.size());
    put_u64(auth.ticket_id);
    put_u32(static_cast<uint32_t>(payload.size()));
    emit(scratch, off);
    emit(payload.data(), payload.size());
  }

  Bytes SignedPortion() const;

  // Exact size EncodeMessage will produce (used to reserve once).
  size_t EncodedSize() const;

  std::string ToString() const;
};

// Full framing used by the TCP transport: 4-byte length prefix handled by the
// stream layer; these functions encode/decode the body.
//
// EncodeMessageTo appends into an existing Writer (e.g. a connection's output
// buffer, after the frame length) so the TCP path serializes straight into
// the socket buffer.
Bytes EncodeMessage(const Message& m);
void EncodeMessageTo(const Message& m, Writer& w);
bool DecodeMessage(const Bytes& b, Message* out);

}  // namespace itv::wire

#endif  // SRC_WIRE_MESSAGE_H_
