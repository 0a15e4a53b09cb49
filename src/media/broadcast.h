// Boot Broadcast + Kernel Broadcast services (paper Sections 3.3, 3.4.1):
// "Because settops are diskless, the kernel and first application are
// broadcast to settops using a secure protocol. This broadcast also provides
// the settops with basic configuration information, such as the IP address
// of the name service replica to be used by this settop."
//
// Substitution (DESIGN.md): there is no broadcast medium in the simulator, so
// a booting settop queries the boot service on its head-end server's
// well-known port (the wiring a real settop gets from the cable plant) and
// then *locally simulates* the broadcast-carousel wait plus the kernel
// download time from the parameters it received. The observable behaviour —
// boot latency scaling with kernel size and channel rate, and the settop
// learning its name service address at boot — is preserved.
//
// The parameters carry the name service replica for this settop as the head
// of a list: the head-end server's own replica first, then every other
// server's in ring order (svc::ClusterHarness::NsReplicasFor). Only reads
// fail over: each of a settop's lookups starts at the head and moves down
// the list past a replica that cannot be reached
// (naming::NameClient::PathResolverFn), while its writes, which a settop
// does not make, would go to the head.

#ifndef SRC_MEDIA_BROADCAST_H_
#define SRC_MEDIA_BROADCAST_H_

#include <string>
#include <utility>
#include <vector>

#include "src/common/future.h"
#include "src/rpc/runtime.h"
#include "src/rpc/stub_helpers.h"

namespace itv::media {

inline constexpr std::string_view kBootBroadcastInterface = "itv.BootBroadcast";
inline constexpr uint16_t kBootBroadcastPort = 540;

enum BootBroadcastMethod : uint32_t {
  kBootMethodGetBootParams = 1,
};

struct BootParams {
  // Name service replicas for this settop, its own first (see above).
  std::vector<uint32_t> ns_replicas;
  uint32_t kernel_version = 0;
  int64_t kernel_size_bytes = 0;
  int64_t boot_channel_bps = 0;    // Carousel rate.
  Duration carousel_period() const {
    // One full kernel per period; average wait is half.
    return Duration::Seconds(static_cast<double>(kernel_size_bytes) * 8.0 /
                             static_cast<double>(boot_channel_bps));
  }
};

inline void WireWrite(wire::Writer& w, const BootParams& p) {
  WireWrite(w, p.ns_replicas);
  w.WriteU32(p.kernel_version);
  w.WriteI64(p.kernel_size_bytes);
  w.WriteI64(p.boot_channel_bps);
}
inline void WireRead(wire::Reader& r, BootParams* p) {
  WireRead(r, &p->ns_replicas);
  p->kernel_version = r.ReadU32();
  p->kernel_size_bytes = r.ReadI64();
  p->boot_channel_bps = r.ReadI64();
}

class BootBroadcastProxy : public rpc::Proxy {
 public:
  using Proxy::Proxy;
  Future<BootParams> GetBootParams(uint32_t settop_host) const {
    return rpc::DecodeReply<BootParams>(
        Call(kBootMethodGetBootParams, rpc::EncodeArgs(settop_host)));
  }
};

// Bootstrap reference (the "broadcast channel" of a head-end server).
inline wire::ObjectRef BootBroadcastRefAt(uint32_t server_host) {
  wire::ObjectRef ref;
  ref.endpoint = {server_host, kBootBroadcastPort};
  ref.incarnation = 0;
  ref.type_id = wire::TypeIdFromName(kBootBroadcastInterface);
  ref.object_id = 1;
  return ref;
}

// --- Kernel Broadcast Service ----------------------------------------------------
// The paper lists the Kernel Broadcast Service among the primary/backup
// replicated services (Section 5.2). It is the authoritative source of the
// settop kernel image (version + size); the per-server boot channels poll it
// and refresh what they advertise, so a kernel update rolls out to every
// head-end without touching the boot services (operator writes once).

inline constexpr std::string_view kKernelCastInterface = "itv.KernelBroadcast";
inline constexpr std::string_view kKernelCastName = "svc/kernelcast";

enum KernelBroadcastMethod : uint32_t {
  kKcMethodGetKernelInfo = 1,
  kKcMethodSetKernelInfo = 2,  // Operator tool: publish a new kernel.
};

struct KernelInfo {
  uint32_t version = 1;
  int64_t size_bytes = 0;

  friend bool operator==(const KernelInfo&, const KernelInfo&) = default;
};

inline void WireWrite(wire::Writer& w, const KernelInfo& k) {
  w.WriteU32(k.version);
  w.WriteI64(k.size_bytes);
}
inline void WireRead(wire::Reader& r, KernelInfo* k) {
  k->version = r.ReadU32();
  k->size_bytes = r.ReadI64();
}

class KernelBroadcastProxy : public rpc::Proxy {
 public:
  using Proxy::Proxy;
  Future<KernelInfo> GetKernelInfo() const {
    return rpc::DecodeReply<KernelInfo>(Call(kKcMethodGetKernelInfo, {}));
  }
  Future<void> SetKernelInfo(const KernelInfo& info) const {
    return rpc::DecodeEmptyReply(Call(kKcMethodSetKernelInfo, rpc::EncodeArgs(info)));
  }
};

class KernelBroadcastService : public rpc::Skeleton {
 public:
  explicit KernelBroadcastService(KernelInfo info) : info_(info) {}

  std::string_view interface_name() const override {
    return kKernelCastInterface;
  }

  void Dispatch(uint32_t method_id, const wire::Bytes& args,
                const rpc::CallContext& ctx, rpc::ReplyFn reply) override {
    switch (method_id) {
      case kKcMethodGetKernelInfo:
        return rpc::ReplyWith(reply, info_);
      case kKcMethodSetKernelInfo: {
        KernelInfo info;
        if (!rpc::DecodeArgs(args, &info)) {
          return rpc::ReplyBadArgs(reply);
        }
        if (info.size_bytes <= 0) {
          return rpc::ReplyError(reply,
                                 InvalidArgumentError("kernel size must be > 0"));
        }
        info_ = info;
        return rpc::ReplyOk(reply);
      }
      default:
        return rpc::ReplyBadMethod(reply, method_id);
    }
  }

  const KernelInfo& info() const { return info_; }

 private:
  KernelInfo info_;
};

class BootBroadcastService : public rpc::Skeleton {
 public:
  explicit BootBroadcastService(BootParams params)
      : params_(std::move(params)) {}

  std::string_view interface_name() const override {
    return kBootBroadcastInterface;
  }

  void Dispatch(uint32_t method_id, const wire::Bytes& args,
                const rpc::CallContext& ctx, rpc::ReplyFn reply) override {
    switch (method_id) {
      case kBootMethodGetBootParams: {
        uint32_t settop_host = 0;
        if (!rpc::DecodeArgs(args, &settop_host)) {
          return rpc::ReplyBadArgs(reply);
        }
        return rpc::ReplyWith(reply, params_);
      }
      default:
        return rpc::ReplyBadMethod(reply, method_id);
    }
  }

  void set_params(const BootParams& p) { params_ = p; }
  const BootParams& params() const { return params_; }

 private:
  BootParams params_;
};

}  // namespace itv::media

#endif  // SRC_MEDIA_BROADCAST_H_
