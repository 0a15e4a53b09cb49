// ServiceLifecycle: the uniform replicated-service runtime (paper Sections
// 5.2 and 6.3). Every server-side service used to hand-roll the same
// start-up sequence — announce objects to the SSC, ensure parent naming
// contexts, contest the service name, run bespoke recovery on promotion —
// and the copies drifted (that drift is where the permanent-backup deadlock
// and the leaked-grant bugs hid). This class owns the whole role state
// machine once, the election included:
//
//   "When the replicas begin execution, they try to bind themselves in the
//    global name space under the service name. The first one to succeed
//    becomes the primary. The others periodically retry the binding request,
//    which will fail so long as the primary is alive. If the primary fails,
//    its binding will be removed from the name service [by auditing], and
//    subsequently one of the backup replicas' bind requests will succeed."
//
//     Starting -> EnsuringContexts -> Backup <-> Primary
//                                        ^          |
//                                        +- Demoted-+        (any) -> Stopped
//
// Start() announces `ref` to the local SSC (required, or the naming audit
// kills the binding), ensures the parent contexts and binds `path`. A backup
// retries every retry_interval; the primary re-reads its binding at the same
// cadence, demotes on another replica's ref and re-asserts a missing one.
// A bind or re-assert that reads NOT_FOUND re-ensures the parents first.
// Stop() and a failed recovery release the name, only if it is still ours.
//
// Services plug in hooks:
//
//   recover         runs after winning the binding, BEFORE the role turns
//                   Primary ("the backup discovers the cluster state by
//                   querying each SSC", Section 6.2; the MMS "can be
//                   reconstructed by querying each MDS", Section 10.1.1).
//                   Failure steps back out of the election: the binding is
//                   released and re-contested after a back-off, so a replica
//                   that cannot recover never claims primaryship. This is the
//                   only state-building path: a backup holds nothing, and
//                   promotion rebuilds everything from the state's owners
//                   (as MSCS brings a resource online on the node taking it
//                   over, Vogels et al.).
//   on_promoted / on_demoted
//                   role-edge notifications (start/stop primary-only timers)
//   external_role   services whose election is internal (the NS master
//                   replication protocol) mirror it into the same role
//                   machine, metrics, and invariants instead of binding; they
//                   announce nothing.
//
// Uniform observability: svc.role.* metrics, binder.* counters, and
// bind.attempt / role.recover spans and bind.primary / role.promote /
// role.demote instants that feed trace::FailoverTimeline.

#ifndef SRC_SVC_LIFECYCLE_H_
#define SRC_SVC_LIFECYCLE_H_

#include <functional>
#include <memory>
#include <string>

#include "src/common/executor.h"
#include "src/common/metrics.h"
#include "src/load/load_board.h"
#include "src/load/reporter.h"
#include "src/naming/name_client.h"
#include "src/sim/cluster.h"

namespace itv::svc {

enum class ServiceRole : uint8_t {
  kStarting = 0,
  kEnsuringContexts = 1,
  kBackup = 2,
  kPrimary = 3,
  kDemoted = 4,  // Transient: hooks observe it, the role settles to Backup.
  kStopped = 5,
};

std::string_view ServiceRoleName(ServiceRole role);

class ServiceLifecycle {
 public:
  struct Options {
    // "Backup retries bind every 10 seconds" (paper Section 9.7). A primary
    // re-reads its binding at the same cadence.
    Duration retry_interval = Duration::Seconds(10);
    // Delay before the FIRST bind attempt. Zero contests immediately (the
    // classic race). Sharded placement staggers non-preferred replicas so
    // each shard's intended host wins the opening election and primaries
    // spread round-robin instead of piling onto whoever boots first; after
    // a fail-over the delay no longer matters — any survivor may win.
    Duration first_bind_delay{};
    // Shard annotation for sharded services (e.g. "shard=3/4"). Appended to
    // the role.promote / role.demote / role.recover trace details so
    // trace::FailoverTimeline can attribute a promotion to the right shard;
    // purely observational (the contested path already encodes the shard).
    std::string shard_label;
  };

  struct Hooks {
    // State recovery, run on winning the binding; the role stays Backup (and
    // is_primary() false) until `done` reports OK.
    std::function<void(std::function<void(Status)> done)> recover;
    std::function<void()> on_promoted;
    std::function<void()> on_demoted;
    // When set, nothing is bound: the role mirrors this probe instead
    // (services with their own election, e.g. the NS master).
    std::function<bool()> external_role;
    // Load-board publication (src/load): while Primary, the lifecycle runs a
    // load::LoadReporter that samples this and reports to the cluster load
    // board under the lifecycle's path, every 2 s. Demotion and Stop() halt
    // the reporting, so the board only ever hears from the replica that owns
    // the name.
    std::function<load::LoadReport()> load_sample;
  };

  // `path` is the service name to contest (or, in external_role mode, the
  // label used for metrics, traces, and invariants). `ref` is the object
  // announced to the SSC and bound under the name.
  ServiceLifecycle(sim::Process& process, naming::NameClient client,
                   std::string path, wire::ObjectRef ref);
  ServiceLifecycle(sim::Process& process, naming::NameClient client,
                   std::string path, wire::ObjectRef ref, Options options,
                   Metrics* metrics = nullptr);

  ServiceLifecycle(const ServiceLifecycle&) = delete;
  ServiceLifecycle& operator=(const ServiceLifecycle&) = delete;

  void Start(Hooks hooks);
  // Leaves the election: cancels timers, releases the binding if held
  // (graceful unbind, so fail-over needn't wait for the audit), and
  // invalidates any in-flight recovery.
  void Stop();

  ServiceRole role() const { return role_; }
  bool is_primary() const { return role_ == ServiceRole::kPrimary; }
  const std::string& path() const { return path_; }
  const std::string& shard_label() const { return options_.shard_label; }
  const wire::ObjectRef& ref() const { return ref_; }
  sim::Process& process() { return process_; }

  uint64_t promotions() const { return promotions_; }
  uint64_t demotions() const { return demotions_; }
  uint64_t recover_failures() const { return recover_failures_; }
  load::LoadReporter* load_reporter() { return load_reporter_.get(); }

 private:
  Executor& executor() { return process_.executor(); }

  void AnnounceReady();
  // Creates the parent contexts of the path (ALREADY_EXISTS is success),
  // then runs `then` unless the lifecycle stopped or stepped out meanwhile.
  // Start runs it once; a bind that reads NOT_FOUND runs it again.
  void EnsureParents(std::function<void()> then);
  void Contest();
  void ScheduleStep(void (ServiceLifecycle::*step)(), Duration delay);
  void TryBind();
  void VerifyPrimary();
  // Binds the held name again after a verify read NOT_FOUND; a bind that
  // reads NOT_FOUND before the parents were `ensured` ensures them first.
  void Reassert(bool ensured);
  void LeaveElection();
  void OnWonBinding();
  void FinishPromotion(Time recover_begin);
  void DemoteRole();
  void ProbeExternalRole();
  void StartLoadReporter();
  void StopLoadReporter();
  void SetRole(ServiceRole role);
  void Count(std::string_view counter);
  std::string TraceDetail() const;

  sim::Process& process_;
  naming::NameClient client_;
  std::string path_;
  wire::ObjectRef ref_;
  Options options_;
  Metrics* metrics_;
  Hooks hooks_;

  ServiceRole role_ = ServiceRole::kStopped;
  std::unique_ptr<load::LoadReporter> load_reporter_;
  PeriodicTimer probe_timer_;
  // Contesting the name: from the end of Start's context step until Stop()
  // or a failed recovery steps out.
  bool electing_ = false;
  // Won the name (the bind succeeded, or the external probe reports this
  // replica primary) and not lost it since. The role turns Primary once
  // recovery is done.
  bool bound_ = false;
  // The pending bind retry or binding verify.
  TimerId bind_timer_ = kInvalidTimerId;
  // Bumped on demotion and stop: in-flight recover/ensure callbacks from an
  // older epoch are void (stop-during-recovery must not promote).
  uint64_t epoch_ = 0;

  uint64_t promotions_ = 0;
  uint64_t demotions_ = 0;
  uint64_t recover_failures_ = 0;
};

}  // namespace itv::svc

#endif  // SRC_SVC_LIFECYCLE_H_
