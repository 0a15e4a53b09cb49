#include "src/svc/lifecycle.h"

#include <utility>

#include "src/common/logging.h"
#include "src/common/trace.h"
#include "src/svc/ssc.h"

namespace itv::svc {

namespace {

// How often a primary with a load_sample hook reports to the load board.
constexpr Duration kLoadReportInterval = Duration::Seconds(2);
// Back-off before re-contesting the binding after a failed recovery.
constexpr Duration kRecoverRetry = Duration::Seconds(2);
// Back-off before announcing the ready objects again to an SSC that did not
// acknowledge them.
constexpr Duration kAnnounceRetry = Duration::Seconds(2);
// Poll cadence of the external_role probe.
constexpr Duration kProbeInterval = Duration::Seconds(1);

std::string ParentOf(const std::string& path) {
  size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

}  // namespace

std::string_view ServiceRoleName(ServiceRole role) {
  switch (role) {
    case ServiceRole::kStarting:
      return "starting";
    case ServiceRole::kEnsuringContexts:
      return "ensuring-contexts";
    case ServiceRole::kBackup:
      return "backup";
    case ServiceRole::kPrimary:
      return "primary";
    case ServiceRole::kDemoted:
      return "demoted";
    case ServiceRole::kStopped:
      return "stopped";
  }
  return "unknown";
}

ServiceLifecycle::ServiceLifecycle(sim::Process& process,
                                   naming::NameClient client, std::string path,
                                   wire::ObjectRef ref)
    : ServiceLifecycle(process, std::move(client), std::move(path), ref,
                       Options(), nullptr) {}

ServiceLifecycle::ServiceLifecycle(sim::Process& process,
                                   naming::NameClient client, std::string path,
                                   wire::ObjectRef ref, Options options,
                                   Metrics* metrics)
    : process_(process),
      client_(std::move(client)),
      path_(std::move(path)),
      ref_(ref),
      options_(options),
      metrics_(metrics) {
  if (options_.binder.metrics == nullptr) {
    options_.binder.metrics = metrics_;
  }
}

ServiceLifecycle::~ServiceLifecycle() = default;

void ServiceLifecycle::Start(Hooks hooks) {
  ITV_CHECK(role_ == ServiceRole::kStopped) << "lifecycle already started";
  hooks_ = std::move(hooks);
  SetRole(ServiceRole::kStarting);
  Count("svc.role.start");
  if (!hooks_.ready_objects.empty()) {
    AnnounceReady();
  }
  if (hooks_.external_role) {
    SetRole(ServiceRole::kBackup);
    probe_timer_.Start(executor(), kProbeInterval,
                       [this] { ProbeExternalRole(); });
    ProbeExternalRole();
    return;
  }
  EnsureContexts();
}

void ServiceLifecycle::AnnounceReady() {
  // Announce before binding: the naming audit treats a bound object its SSC
  // never heard of as dead and removes the binding, every audit, however
  // often the binder re-asserts it. So an announcement the SSC did not
  // acknowledge goes again.
  SscProxy ssc(process_.runtime(), SscRefAt(process_.host()));
  ssc.NotifyReady(process_.pid(), hooks_.ready_objects)
      .OnReady([this](const Result<void>& r) {
        if (r.ok()) {
          return;
        }
        executor().ScheduleAfter(kAnnounceRetry, [this] {
          if (role_ != ServiceRole::kStopped) {
            AnnounceReady();
          }
        });
      });
}

void ServiceLifecycle::Stop() {
  if (role_ == ServiceRole::kStopped) {
    return;
  }
  ++epoch_;
  recover_in_flight_ = false;
  probe_timer_.Stop();
  StopLoadReporter();
  if (binder_ != nullptr) {
    binder_->Stop();  // Unbinds if we hold the name.
  }
  SetRole(ServiceRole::kStopped);
  Count("svc.role.stop");
}

void ServiceLifecycle::EnsureContexts() {
  std::string parent = ParentOf(path_);
  if (parent.empty()) {
    BeginElection();
    return;
  }
  SetRole(ServiceRole::kEnsuringContexts);
  uint64_t epoch = epoch_;
  naming::EnsureContextPath(
      executor(), client_, parent,
      [this, epoch](Status s) {
        if (epoch != epoch_ || role_ != ServiceRole::kEnsuringContexts) {
          return;
        }
        if (!s.ok()) {
          ITV_LOG(Error) << "lifecycle " << path_
                         << ": context creation failed: " << s;
          Count("svc.role.ensure_fail");
          return;
        }
        BeginElection();
      });
}

void ServiceLifecycle::BeginElection() {
  SetRole(ServiceRole::kBackup);
  if (binder_ == nullptr) {
    binder_ = std::make_unique<naming::PrimaryBinder>(
        executor(), client_, path_, ref_, options_.binder);
  }
  binder_->Start([this] { OnWonBinding(); }, [this] { DemoteRole(); });
}

void ServiceLifecycle::RestartElection() {
  if (role_ != ServiceRole::kBackup || binder_ == nullptr ||
      binder_->running()) {
    return;
  }
  binder_->Start([this] { OnWonBinding(); }, [this] { DemoteRole(); });
}

void ServiceLifecycle::OnWonBinding() {
  // The name is ours, but the service only becomes Primary once its state is
  // recovered; until then callers still see a backup.
  Time begin = executor().Now();
  if (!hooks_.recover) {
    FinishPromotion(begin);
    return;
  }
  uint64_t epoch = epoch_;
  recover_in_flight_ = true;
  hooks_.recover([this, epoch, begin](Status s) {
    if (epoch != epoch_ || role_ == ServiceRole::kStopped) {
      return;  // Stopped or demoted while recovering: stale completion.
    }
    recover_in_flight_ = false;
    if (s.ok()) {
      FinishPromotion(begin);
      return;
    }
    ++recover_failures_;
    Count("svc.role.recover_fail");
    ITV_LOG(Error) << "lifecycle " << path_ << ": recovery failed (" << s
                   << "); releasing the binding";
    // Step out of the election without ever having claimed primaryship: the
    // binder's stop unbinds, so a healthier replica can win, and we rejoin
    // after a back-off.
    ++epoch_;
    binder_->Stop();
    SetRole(ServiceRole::kBackup);
    executor().ScheduleAfter(kRecoverRetry,
                             [this] { RestartElection(); });
  });
}

void ServiceLifecycle::FinishPromotion(Time recover_begin) {
  SetRole(ServiceRole::kPrimary);
  ++promotions_;
  Count("svc.role.promote");
  trace::Tracer* tracer = client_.runtime().tracer();
  if (tracer != nullptr) {
    trace::TraceContext ctx = tracer->StartTrace();
    tracer->Span(ctx, "role.recover", recover_begin, TraceDetail());
    tracer->Instant(ctx, trace::kEventRolePromote, TraceDetail());
  }
  ITV_LOG(Info) << "lifecycle " << path_ << ": promoted to primary";
  StartLoadReporter();
  if (hooks_.on_promoted) {
    hooks_.on_promoted();
  }
}

void ServiceLifecycle::DemoteRole() {
  // Fired by the binder when another replica holds the name (or by the
  // external-role probe turning false). Also invalidates a recovery that is
  // still in flight: its completion must not promote a demoted replica.
  ++epoch_;
  recover_in_flight_ = false;
  StopLoadReporter();
  ++demotions_;
  SetRole(ServiceRole::kDemoted);
  Count("svc.role.demote");
  trace::Tracer* tracer = client_.runtime().tracer();
  if (tracer != nullptr) {
    trace::TraceContext ctx = tracer->StartTrace();
    tracer->Instant(ctx, trace::kEventRoleDemote, TraceDetail());
  }
  ITV_LOG(Info) << "lifecycle " << path_ << ": demoted";
  if (hooks_.on_demoted) {
    hooks_.on_demoted();
  }
  // The binder (or probe) keeps contesting on its own; we are a backup again.
  SetRole(ServiceRole::kBackup);
}

void ServiceLifecycle::StartLoadReporter() {
  if (!hooks_.load_sample) {
    return;
  }
  if (load_reporter_ == nullptr) {
    load_reporter_ = std::make_unique<load::LoadReporter>(
        process_.runtime(), executor(), client_.PathResolverFn(), path_,
        kLoadReportInterval, hooks_.load_sample, metrics_);
  }
  load_reporter_->Start();
}

void ServiceLifecycle::StopLoadReporter() {
  if (load_reporter_ != nullptr) {
    load_reporter_->Stop();
  }
}

void ServiceLifecycle::ProbeExternalRole() {
  bool primary_now = hooks_.external_role();
  if (primary_now && role_ == ServiceRole::kBackup && !recover_in_flight_) {
    OnWonBinding();
  } else if (!primary_now && role_ == ServiceRole::kPrimary) {
    DemoteRole();
  }
}

void ServiceLifecycle::SetRole(ServiceRole role) {
  role_ = role;
  if (metrics_ != nullptr) {
    metrics_->SetGauge("svc.role[" + path_ + "@" +
                           std::to_string(process_.host()) + "]",
                       static_cast<int64_t>(role));
  }
}

std::string ServiceLifecycle::TraceDetail() const {
  return options_.shard_label.empty() ? path_
                                      : path_ + " " + options_.shard_label;
}

void ServiceLifecycle::Count(std::string_view counter) {
  if (metrics_ != nullptr) {
    metrics_->Add(counter);
    metrics_->Add(std::string(counter) + "[" + path_ + "]");
  }
}

}  // namespace itv::svc
