#include "itvbench/hops.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "itvbench/bench.h"
#include "src/auth/hmac.h"
#include "src/naming/stubs.h"
#include "src/naming/types.h"
#include "src/rpc/stub_helpers.h"
#include "src/wire/shard_map.h"

namespace itvbench {
namespace {

using itv::wire::TypeIdFromName;

struct InterfaceInfo {
  const char* name;
  const char* layer;
  std::vector<const char*> methods;  // Method id i + 1.
};

// Every interface the system defines, with its method ids in wire order.
const std::vector<InterfaceInfo>& Interfaces() {
  static const std::vector<InterfaceInfo> kInterfaces = {
      {"itv.NamingContext", "naming",
       {"Resolve", "Bind", "Unbind", "BindNewContext", "BindReplContext",
        "List", "ListRepl"}},
      {"itv.NameReplica", "naming",
       {"RequestVote", "Heartbeat", "ForwardUpdate", "ApplyUpdate",
        "GetSnapshot"}},
      {"itv.Selector", "naming", {"Select"}},
      {"itv.ResourceAudit", "ras", {"CheckStatus"}},
      {"itv.ObjectStatusCallback", "ras", {"ObjectsReady", "ObjectsDead"}},
      {"itv.ServerServiceController", "svc",
       {"StartService", "StopService", "ListServices", "NotifyReady",
        "RegisterCallback", "Ping", "ListObjects"}},
      {"itv.ClusterServiceController", "svc",
       {"Assign", "Unassign", "GetAssignments", "IsPrimary"}},
      {"itv.SettopManager", "svc", {"Heartbeat", "GetStatus", "Count"}},
      {"itv.Database", "db", {"Put", "Get", "Delete", "Scan", "ListTables"}},
      {"itv.MediaManagement", "mms",
       {"Open", "Close", "ListSessions", "ListSessionHosts", "GetAdmission"}},
      {"itv.ConnectionManager", "cmgr",
       {"Allocate", "Release", "ListConnections", "ApplyReplica",
        "SettopUsage", "Accounting"}},
      {"itv.TrunkManager", "trunk", {"Reserve", "Release", "Usage"}},
      {"itv.MediaDelivery", "mds",
       {"Open", "GetInventory", "GetLoad", "ListSessions", "Close"}},
      {"itv.Movie", "mds", {"Play", "Pause", "Position"}},
      {"itv.MediaSink", "sink", {"OnData", "OnEndOfStream"}},
      {"itv.ReliableDelivery", "media", {"OpenData", "ListItems"}},
      {"itv.DataSink", "media", {"OnComplete"}},
      {"itv.BootBroadcast", "media", {"GetBootParams"}},
      {"itv.KernelBroadcast", "media", {"GetKernelInfo", "SetKernelInfo"}},
      {"itv.LoadBoard", "load", {"Report", "Snapshot"}},
      {"itv.Auth", "auth", {"GetTicket"}},
      {"itv.File", "other", {}},
  };
  return kInterfaces;
}

const InterfaceInfo* FindInterface(uint64_t type_id) {
  static const std::unordered_map<uint64_t, const InterfaceInfo*> kByType =
      [] {
        std::unordered_map<uint64_t, const InterfaceInfo*> out;
        for (const InterfaceInfo& info : Interfaces()) {
          out[TypeIdFromName(info.name)] = &info;
        }
        return out;
      }();
  auto it = kByType.find(type_id);
  return it == kByType.end() ? nullptr : it->second;
}

const uint64_t kNamingContextType = TypeIdFromName("itv.NamingContext");

std::string LayerOf(uint64_t type_id) {
  const InterfaceInfo* info = FindInterface(type_id);
  return info == nullptr ? "other" : info->layer;
}

std::string HopName(uint64_t type_id, uint32_t method_id, bool shard_fetch) {
  const InterfaceInfo* info = FindInterface(type_id);
  char buf[96];
  if (info == nullptr) {
    std::snprintf(buf, sizeof(buf), "type-%016llx#%u",
                  static_cast<unsigned long long>(type_id), method_id);
    return buf;
  }
  std::string name = info->name;
  if (method_id >= 1 && method_id <= info->methods.size()) {
    name += ".";
    name += info->methods[method_id - 1];
  } else {
    name += "#" + std::to_string(method_id);
  }
  if (shard_fetch) {
    name += "(.shards)";
  }
  return name;
}

// True for an itv.NamingContext.Resolve of a "<base>/.shards" path.
bool IsShardMapFetch(const itv::wire::Message& request) {
  if (request.type_id != kNamingContextType ||
      request.method_id != itv::naming::kNcMethodResolve ||
      request.auth.encrypted) {
    return false;
  }
  itv::naming::Name name;
  return itv::rpc::DecodeArgs(request.payload, &name) && !name.empty() &&
         name.back() == itv::wire::kShardMapBindingName;
}

}  // namespace

void HopMeter::OnSend(const itv::wire::Endpoint& src,
                      const itv::wire::Endpoint& dst,
                      const itv::wire::Message& msg, itv::Time now,
                      itv::Duration link) {
  if (captured_.size() < 4000 && seen_++ % 64 == 0) {
    captured_.push_back(msg);
  }
  if (msg.kind == itv::wire::MsgKind::kRequest) {
    bool shard_fetch = IsShardMapFetch(msg);
    uint64_t key = msg.type_id ^ (static_cast<uint64_t>(msg.method_id) << 1) ^
                   (shard_fetch ? 1 : 0);
    Hop*& hop = hop_by_type_[key];
    if (hop == nullptr) {
      hop = &hops_[HopName(msg.type_id, msg.method_id, shard_fetch)];
    }
    ++hop->requests;
    ++layer_requests_[shard_fetch ? "shardmap" : LayerOf(msg.type_id)];
    pending_[CallKey(src, msg.call_id)] = Pending{now, hop};
    return;
  }
  auto it = pending_.find(CallKey(dst, msg.call_id));
  if (it == pending_.end()) {
    return;
  }
  it->second.hop->rtt_ms.push_back((now + link - it->second.sent).seconds() *
                                   1000.0);
  pending_.erase(it);
}

void HopMeter::ResetCounts() {
  for (auto& [name, hop] : hops_) {
    hop.requests = 0;
    hop.rtt_ms.clear();
  }
  layer_requests_.clear();
}

uint64_t HopMeter::requests_in(const std::string& layer) const {
  auto it = layer_requests_.find(layer);
  return it == layer_requests_.end() ? 0 : it->second;
}

uint64_t HopMeter::total_requests() const {
  uint64_t total = 0;
  for (const auto& [layer, n] : layer_requests_) {
    total += n;
  }
  return total;
}

std::vector<double> HopMeter::AllRttMs() const {
  std::vector<double> out;
  for (const auto& [name, hop] : hops_) {
    if (name.rfind("itv.MediaSink", 0) != 0) {
      out.insert(out.end(), hop.rtt_ms.begin(), hop.rtt_ms.end());
    }
  }
  return out;
}

std::vector<std::string> HopMeter::Table(double ops, const char* time_unit) const {
  std::vector<std::pair<std::string, const Hop*>> rows;
  for (const auto& [name, hop] : hops_) {
    if (hop.requests > 0) {
      rows.emplace_back(name, &hop);
    }
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second->requests > b.second->requests;
  });
  std::vector<std::string> out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-52s %12s %12s %12s", "hop (interface.method)",
                "req/op", (std::string("p50_") + time_unit).c_str(),
                (std::string("mean_") + time_unit).c_str());
  out.push_back(buf);
  for (const auto& [name, hop] : rows) {
    std::snprintf(buf, sizeof(buf), "%-52s %12.4f %12.4f %12.4f", name.c_str(),
                  ops > 0 ? static_cast<double>(hop->requests) / ops : 0.0,
                  Median(hop->rtt_ms), Mean(hop->rtt_ms));
    out.push_back(buf);
  }
  return out;
}

namespace {

struct FrameCosts {
  double encode_ns = 0;
  double decode_ns = 0;
  double hmac_ns = 0;
  double bytes = 0;
};

FrameCosts TimeFrames(const std::vector<itv::wire::Message>& frames) {
  FrameCosts costs;
  if (frames.empty()) {
    return costs;
  }
  using Clock = std::chrono::steady_clock;
  constexpr int kRounds = 20;
  const itv::auth::Key key = itv::auth::KeyFromString("itv_bench frame key");
  std::vector<itv::wire::Bytes> encoded(frames.size());
  uint64_t bytes = 0;
  uint64_t checksum = 0;

  auto start = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < frames.size(); ++i) {
      itv::wire::Writer w(std::move(encoded[i]));
      itv::wire::EncodeMessageTo(frames[i], w);
      encoded[i] = w.TakeBytes();
    }
  }
  double encode_s = std::chrono::duration<double>(Clock::now() - start).count();
  for (const itv::wire::Bytes& b : encoded) {
    bytes += b.size();
  }

  start = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    for (const itv::wire::Bytes& b : encoded) {
      itv::wire::Message m;
      if (itv::wire::DecodeMessage(b, &m)) {
        checksum += m.call_id;
      }
    }
  }
  double decode_s = std::chrono::duration<double>(Clock::now() - start).count();

  start = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    for (const itv::wire::Message& m : frames) {
      itv::auth::HmacSha256Stream mac(key);
      m.ForEachSignedSpan(
          [&mac](const uint8_t* p, size_t n) { mac.Update(p, n); });
      checksum += mac.Finish()[0];
    }
  }
  double hmac_s = std::chrono::duration<double>(Clock::now() - start).count();

  double n = static_cast<double>(frames.size()) * kRounds;
  costs.encode_ns = encode_s * 1e9 / n;
  costs.decode_ns = decode_s * 1e9 / n;
  costs.hmac_ns = hmac_s * 1e9 / n;
  costs.bytes = static_cast<double>(bytes) / static_cast<double>(frames.size());
  // Keeps the decode and HMAC loops observable to the optimizer.
  if (checksum == 0x5eed) {
    std::printf("%llu\n", static_cast<unsigned long long>(checksum));
  }
  return costs;
}

}  // namespace

void ReportHops(Report& report, const HopMeter& hops, double ops) {
  auto per_op = [ops](double n) { return ops > 0 ? n / ops : 0.0; };
  auto requests = [&](const char* layer) {
    return per_op(static_cast<double>(hops.requests_in(layer)));
  };
  report.Set("rpc.req_per_op",
             per_op(static_cast<double>(hops.total_requests() -
                                        hops.requests_in("sink"))),
             "count");
  report.Set("naming.req_per_op", requests("naming"), "count");
  report.Set("rpc.shardmap_fetches_per_op", requests("shardmap"), "count");
  for (const char* layer : {"mms", "cmgr", "trunk", "mds"}) {
    report.Set(std::string("media.") + layer + "_req_per_op", requests(layer),
               "count");
  }
  report.Set("media.sink_msgs_per_op", 2 * requests("sink"), "count");
  report.Set("load.board_req_per_op", requests("load"), "count");
  report.Set("ras.req_per_op", requests("ras"), "count");
  report.Set("svc.req_per_op", requests("svc"), "count");
  report.Set("auth.req_per_op", requests("auth"), "count");
  report.Set("rpc.rtt_ms_mean", Mean(hops.AllRttMs()), "ms");
  FrameCosts frames = TimeFrames(hops.captured());
  report.Set("wire.encode_ns_per_msg", frames.encode_ns, "ns");
  report.Set("wire.decode_ns_per_msg", frames.decode_ns, "ns");
  report.Set("auth.hmac_ns_per_msg", frames.hmac_ns, "ns");
  report.Set("wire.bytes_per_msg", frames.bytes, "bytes");
}

}  // namespace itvbench
