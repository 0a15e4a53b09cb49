// Per-hop accounting, measured from outside the system: every message a
// transport sends is shown to a HopMeter (through sim::Network::SetTap, or a
// decorating rpc::Transport on TCP). Requests are counted per
// (interface, method) and matched to their reply by (caller endpoint,
// call id), which gives each hop's round-trip time.

#ifndef ITVBENCH_HOPS_H_
#define ITVBENCH_HOPS_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/time.h"
#include "src/wire/message.h"

namespace itvbench {

class HopMeter {
 public:
  struct Hop {
    uint64_t requests = 0;
    std::vector<double> rtt_ms;
  };

  // Records one sent message. `now` is the send time and `link` the time the
  // message takes to reach `dst` (0 on TCP, where `now` is already wall time).
  void OnSend(const itv::wire::Endpoint& src, const itv::wire::Endpoint& dst,
              const itv::wire::Message& msg, itv::Time now,
              itv::Duration link);

  // Starts a new measurement window: counts and samples are dropped, calls
  // already in flight still match their replies.
  void ResetCounts();

  const std::vector<itv::wire::Message>& captured() const { return captured_; }
  // Requests sent to one layer: the src/ module or media sub-service of the
  // interface ("naming", "shardmap" for ".shards" resolves, "mms", "cmgr",
  // "trunk", "mds", "sink" for the MediaSink data plane, "media", "load",
  // "ras", "svc", "auth", "db" or "other").
  uint64_t requests_in(const std::string& layer) const;
  uint64_t total_requests() const;
  std::vector<double> AllRttMs() const;

  // "hop  requests/op  p50_ms  mean_ms" rows, busiest first.
  std::vector<std::string> Table(double ops, const char* time_unit) const;

 private:
  struct Pending {
    itv::Time sent;
    Hop* hop;
  };
  static uint64_t CallKey(const itv::wire::Endpoint& ep, uint64_t call_id) {
    return (static_cast<uint64_t>(ep.host) * 0x9e3779b97f4a7c15ull) ^
           (static_cast<uint64_t>(ep.port) << 48) ^ call_id;
  }

  std::map<std::string, Hop> hops_;
  std::unordered_map<uint64_t, Hop*> hop_by_type_;
  std::unordered_map<uint64_t, Pending> pending_;
  std::map<std::string, uint64_t> layer_requests_;
  // Every 64th message, up to 4,000, is copied for the wire and auth
  // micro-timings.
  uint64_t seen_ = 0;
  std::vector<itv::wire::Message> captured_;
};

struct Report;

// Reports what the hop meter saw in the measured phase, per op: requests per
// layer, the mean round trip, and the wire and auth cost per message
// (EncodeMessageTo, DecodeMessage and a streaming HMAC-SHA256 over the
// signed portion, micro-timed on the captured frames).
void ReportHops(Report& report, const HopMeter& hops, double ops);

}  // namespace itvbench

#endif  // ITVBENCH_HOPS_H_
