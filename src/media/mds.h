// Media Delivery Service (paper Section 3.3): "delivers constant bit rate
// data (e.g. MPEG video) to settops". One replica per server, each serving
// the movies present on its local disk; the MMS picks a replica per open.
//
// The MDS is the system's only service that dynamically creates objects
// (Section 9.2): every open mints a Movie object, which the settop drives
// directly (play/pause/position). Delivery is simulated as periodic OnData
// invocations on the settop's MediaSink at the movie's bitrate — the paper's
// evaluation depends on placement, admission and failure behaviour, not on
// actual MPEG bytes (see DESIGN.md substitutions).

#ifndef SRC_MEDIA_MDS_H_
#define SRC_MEDIA_MDS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/executor.h"
#include "src/common/metrics.h"
#include "src/media/types.h"
#include "src/naming/types.h"
#include "src/rpc/runtime.h"

namespace itv::media {

inline constexpr std::string_view kMdsInterface = "itv.MediaDelivery";
inline constexpr std::string_view kMovieInterface = "itv.Movie";

// The replica on the server at 0-based `server_index`, bound in the
// replicated context svc/mds.
inline std::string MdsName(size_t server_index) {
  return "svc/mds/" + std::to_string(server_index + 1);
}

// Ids 3 and 4 (the retired standalone load and session reads) stay
// unassigned: tools label per-method traffic by id.
enum MdsMethod : uint32_t {
  kMdsMethodOpen = 1,
  kMdsMethodSync = 2,
  kMdsMethodClose = 5,
};

enum MovieMethod : uint32_t {
  kMovieMethodPlay = 1,   // (from_position_bytes)
  kMovieMethodPause = 2,
  kMovieMethodPosition = 3,
};

struct MdsLoad {
  uint32_t active_streams = 0;
  int64_t reserved_bps = 0;
  int64_t capacity_bps = 0;
  // Load sequence: bumped by the MDS on every open/close/reclaim. Every
  // reply that carries an MdsLoad (Open, Sync, Close) describes the replica
  // at this sequence, so an MMS keeps whichever reply is newest (mms.h).
  uint64_t seq = 0;

  friend bool operator==(const MdsLoad&, const MdsLoad&) = default;
};

inline void WireWrite(wire::Writer& w, const MdsLoad& l) {
  w.WriteU32(l.active_streams);
  w.WriteI64(l.reserved_bps);
  w.WriteI64(l.capacity_bps);
  w.WriteU64(l.seq);
}
inline void WireRead(wire::Reader& r, MdsLoad* l) {
  l->active_streams = r.ReadU32();
  l->reserved_bps = r.ReadI64();
  l->capacity_bps = r.ReadI64();
  l->seq = r.ReadU64();
}

struct MovieTicket {
  uint64_t stream_id = 0;
  wire::ObjectRef movie;
  // The replica's load right after this open was granted.
  MdsLoad load;

  friend bool operator==(const MovieTicket&, const MovieTicket&) = default;
};

inline void WireWrite(wire::Writer& w, const MovieTicket& t) {
  w.WriteU64(t.stream_id);
  WireWrite(w, t.movie);
  WireWrite(w, t.load);
}
inline void WireRead(wire::Reader& r, MovieTicket* t) {
  t->stream_id = r.ReadU64();
  WireRead(r, &t->movie);
  WireRead(r, &t->load);
}

struct SessionInfo {
  uint64_t stream_id = 0;
  std::string title;
  uint32_t settop_host = 0;
  ConnectionGrant connection;
  wire::ObjectRef movie;
};

inline void WireWrite(wire::Writer& w, const SessionInfo& s) {
  w.WriteU64(s.stream_id);
  w.WriteString(s.title);
  w.WriteU32(s.settop_host);
  WireWrite(w, s.connection);
  WireWrite(w, s.movie);
}
inline void WireRead(wire::Reader& r, SessionInfo* s) {
  s->stream_id = r.ReadU64();
  s->title = r.ReadString();
  s->settop_host = r.ReadU32();
  WireRead(r, &s->connection);
  WireRead(r, &s->movie);
}

// One replica's state as the MMS needs it (paper Figure 4 step 4 and
// Section 10.1.1): what it can serve, how loaded it is, and which sessions it
// holds, read in one reply so all three describe the same instant, the one
// at `load.seq`. The trunk replica's grant audit reads the sessions.
struct MdsSync {
  std::vector<MovieInfo> titles;
  MdsLoad load;
  std::vector<SessionInfo> sessions;
};

inline void WireWrite(wire::Writer& w, const MdsSync& s) {
  WireWrite(w, s.titles);
  WireWrite(w, s.load);
  WireWrite(w, s.sessions);
}
inline void WireRead(wire::Reader& r, MdsSync* s) {
  WireRead(r, &s->titles);
  WireRead(r, &s->load);
  WireRead(r, &s->sessions);
}

class MdsProxy : public rpc::Proxy {
 public:
  using Proxy::Proxy;
  Future<MovieTicket> Open(const std::string& title, uint32_t settop_host,
                           const ConnectionGrant& connection,
                           const wire::ObjectRef& sink) const {
    return rpc::DecodeReply<MovieTicket>(Call(
        kMdsMethodOpen, rpc::EncodeArgs(title, settop_host, connection, sink)));
  }
  Future<MdsSync> Sync(const rpc::CallOptions& options = {}) const {
    return rpc::DecodeReply<MdsSync>(Call(kMdsMethodSync, {}, options));
  }
  // Returns the replica's load right after the close.
  Future<MdsLoad> Close(uint64_t stream_id) const {
    return rpc::DecodeReply<MdsLoad>(
        Call(kMdsMethodClose, rpc::EncodeArgs(stream_id)));
  }
};

// A replica entry of the svc/mds context: a live object, not the context's
// builtin selector (a null-endpoint pseudo-ref that no MDS answers for).
inline bool IsMdsReplica(const naming::Binding& binding) {
  return binding.kind == naming::BindingKind::kObject &&
         !binding.ref.endpoint.is_null();
}

class MovieProxy : public rpc::Proxy {
 public:
  using Proxy::Proxy;
  Future<void> Play(int64_t from_position_bytes = 0) const {
    return rpc::DecodeEmptyReply(
        Call(kMovieMethodPlay, rpc::EncodeArgs(from_position_bytes)));
  }
  Future<void> Pause() const {
    return rpc::DecodeEmptyReply(Call(kMovieMethodPause, {}));
  }
  Future<int64_t> Position() const {
    return rpc::DecodeReply<int64_t>(Call(kMovieMethodPosition, {}));
  }
};

class MdsService : public rpc::Skeleton {
 public:
  struct Options {
    // Total streaming capacity of this server's disks+NIC. 48 Mb/s = sixteen
    // 3 Mb/s MPEG streams.
    int64_t capacity_bps = 48'000'000;
    // OnData cadence while a movie plays.
    Duration chunk_period = Duration::Millis(500);
    // Ghost reclamation: a stream that was opened but never Played within
    // this grace is presumed orphaned (its MovieTicket — or the MMS's
    // compensating Close — was lost in flight) and is closed server-side,
    // which lets the trunk replica's grant audit free the settop's
    // bandwidth. The legitimate flow plays within one RPC round trip of the
    // ticket, so the grace only needs to clear transient open latency.
    // Zero (the default) disables the sweep: synthetic harnesses open
    // null-sink sessions that are intentionally never played.
    Duration unplayed_grace{};
  };

  MdsService(rpc::ObjectRuntime& runtime, Executor& executor,
             std::vector<MovieInfo> library, Options options,
             Metrics* metrics = nullptr);
  ~MdsService();

  std::string_view interface_name() const override { return kMdsInterface; }
  void Dispatch(uint32_t method_id, const wire::Bytes& args,
                const rpc::CallContext& ctx, rpc::ReplyFn reply) override;

  wire::ObjectRef Export() { return ref_ = runtime_.Export(this); }
  wire::ObjectRef ref() const { return ref_; }

  size_t active_streams() const { return sessions_.size(); }
  int64_t reserved_bps() const { return reserved_bps_; }
  const std::vector<MovieInfo>& library() const { return library_; }

 private:
  class MovieObject;

  Result<MovieTicket> HandleOpen(const std::string& title, uint32_t settop_host,
                                 const ConnectionGrant& connection,
                                 const wire::ObjectRef& sink);
  void HandleClose(uint64_t stream_id);
  MdsLoad CurrentLoad() const;
  std::vector<SessionInfo> DescribeSessions() const;
  void ReclaimUnplayed();
  const MovieInfo* FindMovie(const std::string& title) const;
  void Count(std::string_view name);

  rpc::ObjectRuntime& runtime_;
  Executor& executor_;
  std::vector<MovieInfo> library_;
  Options options_;
  Metrics* metrics_;
  wire::ObjectRef ref_;

  uint64_t next_stream_id_;
  int64_t reserved_bps_ = 0;
  // Bumped on every reservation change (open/close/reclaim); incarnation-
  // seeded so a restarted replica's sequence still moves forward.
  uint64_t load_seq_;
  std::map<uint64_t, std::unique_ptr<MovieObject>> sessions_;
  PeriodicTimer reclaim_timer_;
};

}  // namespace itv::media

#endif  // SRC_MEDIA_MDS_H_
