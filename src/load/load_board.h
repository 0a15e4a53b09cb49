// Cluster load board (ROADMAP "Shard-aware admission"): a soft-state
// directory of MMS shard headroom.
//
// Each MMS shard primary publishes a LoadReport of its admission ledger
// every few seconds through its ServiceLifecycle (Hooks::load_sample).
// Settops whose open was shed by an overloaded shard read
// Snapshot("svc/mms") and retry against the sibling shard with the most
// headroom. (MDS load does not pass through the board: the MMS reads it,
// with titles and sessions, from its sync round; see media/mms.h.)
//
// The board is PURELY soft state (paper Section 10.1: "the volatile state
// ... can be reconstructed"): entries decay — a report older than the entry
// TTL is dropped from snapshots and eventually erased — so a restarted board
// repopulates within one report interval and never serves the dead past.

#ifndef SRC_LOAD_LOAD_BOARD_H_
#define SRC_LOAD_LOAD_BOARD_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/executor.h"
#include "src/common/metrics.h"
#include "src/rpc/runtime.h"
#include "src/rpc/stub_helpers.h"
#include "src/wire/serialize.h"

namespace itv::load {

inline constexpr std::string_view kLoadBoardInterface = "itv.LoadBoard";
// Well-known name the board's primary/backup election contests.
inline constexpr std::string_view kLoadBoardName = "svc/loadboard";

enum LoadBoardMethod : uint32_t {
  kLoadBoardMethodReport = 1,
  kLoadBoardMethodSnapshot = 2,
};

// One producer's load sample. `reporter` is the producer's service path
// ("svc/mds/2", "svc/mms/3", ...), which doubles as the board key and lets
// consumers prefix-filter snapshots by subsystem.
struct LoadReport {
  std::string reporter;
  uint32_t active_streams = 0;
  int64_t reserved_bps = 0;
  int64_t capacity_bps = 0;  // 0 = producer enforces no bandwidth pool.
  uint64_t admission_rejects = 0;
  // Producer-local monotonic sequence (seeded from the process incarnation,
  // so a restarted producer keeps moving forward). The board drops reports
  // that arrive out of order within one TTL window.
  uint64_t seq = 0;

  int64_t headroom_bps() const { return capacity_bps - reserved_bps; }

  friend bool operator==(const LoadReport&, const LoadReport&) = default;
};

inline void WireWrite(wire::Writer& w, const LoadReport& r) {
  w.WriteString(r.reporter);
  w.WriteU32(r.active_streams);
  w.WriteI64(r.reserved_bps);
  w.WriteI64(r.capacity_bps);
  w.WriteU64(r.admission_rejects);
  w.WriteU64(r.seq);
}
inline void WireRead(wire::Reader& r, LoadReport* out) {
  out->reporter = r.ReadString();
  out->active_streams = r.ReadU32();
  out->reserved_bps = r.ReadI64();
  out->capacity_bps = r.ReadI64();
  out->admission_rejects = r.ReadU64();
  out->seq = r.ReadU64();
}

class LoadBoardProxy : public rpc::Proxy {
 public:
  using Proxy::Proxy;
  Future<void> Report(const LoadReport& report) const {
    return rpc::DecodeEmptyReply(
        Call(kLoadBoardMethodReport, rpc::EncodeArgs(report)));
  }
  // Fresh (within-TTL) entries whose reporter path starts with `prefix`;
  // empty prefix returns the whole board.
  Future<std::vector<LoadReport>> Snapshot(const std::string& prefix) const {
    return rpc::DecodeReply<std::vector<LoadReport>>(
        Call(kLoadBoardMethodSnapshot, rpc::EncodeArgs(prefix)));
  }
};

class LoadBoardService : public rpc::Skeleton {
 public:
  struct Options {
    // Staleness decay: an entry not refreshed within the TTL stops being
    // served (and is erased on the next touch of the board). Should be a few
    // report intervals so one lost report doesn't blank a live producer.
    Duration entry_ttl = Duration::Seconds(10);
  };

  LoadBoardService(rpc::ObjectRuntime& runtime, Executor& executor,
                   Options options, Metrics* metrics = nullptr);

  wire::ObjectRef Export() { return ref_ = runtime_.Export(this); }
  wire::ObjectRef ref() const { return ref_; }

  std::string_view interface_name() const override {
    return kLoadBoardInterface;
  }
  void Dispatch(uint32_t method_id, const wire::Bytes& args,
                const rpc::CallContext& ctx, rpc::ReplyFn reply) override;

  // Fresh entries under `prefix` (the server-side half of Snapshot).
  std::vector<LoadReport> SnapshotFresh(const std::string& prefix);

  size_t entry_count() const { return entries_.size(); }

 private:
  struct Entry {
    LoadReport report;
    Time received{};
  };

  void Apply(const LoadReport& report);
  void Count(std::string_view name);

  rpc::ObjectRuntime& runtime_;
  Executor& executor_;
  Options options_;
  Metrics* metrics_;
  wire::ObjectRef ref_;
  std::map<std::string, Entry> entries_;
};

}  // namespace itv::load

#endif  // SRC_LOAD_LOAD_BOARD_H_
