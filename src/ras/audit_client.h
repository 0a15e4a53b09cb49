// Client-side audit library (paper Section 7.2): "This callback interface is
// actually implemented by a combination of library code and a RAS object...
// the library code periodically invokes checkStatus for all entities with
// callbacks. If checkStatus indicates that an entity is no longer active,
// the library code performs the callback to the client."
//
// AuditClient is that library code; services embed one and Watch() the
// entities whose failure should trigger resource reclamation (the MMS
// watches settops and MDS movie objects; the name service uses the
// NamingAuditAdapter below).

#ifndef SRC_RAS_AUDIT_CLIENT_H_
#define SRC_RAS_AUDIT_CLIENT_H_

#include <functional>
#include <map>
#include <vector>

#include "src/common/executor.h"
#include "src/naming/name_server.h"
#include "src/ras/types.h"
#include "src/rpc/binding_table.h"
#include "src/rpc/runtime.h"

namespace itv::ras {

class AuditClient {
 public:
  struct Options {
    // How often the library polls the local RAS; the name service uses 10 s
    // (paper Section 9.7), the MMS the same by default.
    Duration poll_interval = Duration::Seconds(10);
    Duration rpc_timeout = Duration::Seconds(2);
    // Retry/deadline policy for the local RAS binding; the deadline stays
    // under poll_interval so a slow poll never overlaps the next one.
    rpc::BindingOptions binding = LocalRasDefaults();
  };

  using WatchId = uint64_t;
  using DeathCallback = std::function<void(const EntityId&)>;

  // `local_ras` is normally RasRefAt(my host).
  AuditClient(rpc::ObjectRuntime& runtime, Executor& executor,
              wire::ObjectRef local_ras)
      : AuditClient(runtime, executor, local_ras, Options()) {}
  AuditClient(rpc::ObjectRuntime& runtime, Executor& executor,
              wire::ObjectRef local_ras, Options options);

  // Fires `cb` (once) when the entity is reported dead, then removes the
  // watch. Returns an id for Unwatch.
  WatchId Watch(const EntityId& entity, DeathCallback cb);
  void Unwatch(WatchId id);

  size_t watch_count() const { return watches_.size(); }
  uint64_t polls_sent() const { return polls_sent_; }

 private:
  void Poll();

  struct Watch_ {
    EntityId entity;
    DeathCallback cb;
  };

  static rpc::BindingOptions LocalRasDefaults() {
    rpc::BindingOptions opts;
    opts.max_attempts = 2;
    opts.deadline = Duration::Seconds(8);
    return opts;
  }

  rpc::ObjectRuntime& runtime_;
  Executor& executor_;
  wire::ObjectRef local_ras_;
  Options options_;
  rpc::BindingTable bindings_;
  rpc::BoundClient<RasProxy> ras_;
  uint64_t next_id_ = 1;
  uint64_t polls_sent_ = 0;
  std::map<WatchId, Watch_> watches_;
  PeriodicTimer poll_timer_;
};

// Adapts the RAS to the name service's audit hook (paper Section 8.3: "the
// name service registers callbacks for all objects that are bound into the
// name space; when called back, it deletes the dead objects"). The name
// server owns the polling cadence; this adapter is a stateless one-shot
// query translator.
class NamingAuditAdapter : public naming::ObjectAudit {
 public:
  NamingAuditAdapter(rpc::ObjectRuntime& runtime, wire::ObjectRef local_ras)
      : runtime_(runtime), local_ras_(local_ras) {}

  void CheckObjects(const std::vector<wire::ObjectRef>& refs,
                    std::function<void(std::vector<uint8_t>)> cb) override;

 private:
  rpc::ObjectRuntime& runtime_;
  wire::ObjectRef local_ras_;
};

}  // namespace itv::ras

#endif  // SRC_RAS_AUDIT_CLIENT_H_
