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
// Back-off before announcing the ref again to an SSC that did not
// acknowledge it.
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
      options_(std::move(options)),
      metrics_(metrics) {}

void ServiceLifecycle::Start(Hooks hooks) {
  ITV_CHECK(role_ == ServiceRole::kStopped) << "lifecycle already started";
  hooks_ = std::move(hooks);
  SetRole(ServiceRole::kStarting);
  Count("svc.role.start");
  if (hooks_.external_role) {
    SetRole(ServiceRole::kBackup);
    probe_timer_.Start(executor(), kProbeInterval,
                       [this] { ProbeExternalRole(); });
    ProbeExternalRole();
    return;
  }
  AnnounceReady();
  SetRole(ServiceRole::kEnsuringContexts);
  EnsureParents([this] {
    SetRole(ServiceRole::kBackup);
    Contest();
  });
}

void ServiceLifecycle::AnnounceReady() {
  // Announce before binding: the naming audit treats a bound object its SSC
  // never heard of as dead and removes the binding, every audit, however
  // often the primary re-asserts it. So an announcement the SSC did not
  // acknowledge goes again.
  SscProxy ssc(process_.runtime(), SscRefAt(process_.host()));
  ssc.NotifyReady(process_.pid(), {ref_})
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
  probe_timer_.Stop();
  StopLoadReporter();
  LeaveElection();  // Unbinds if we hold the name.
  SetRole(ServiceRole::kStopped);
  Count("svc.role.stop");
}

void ServiceLifecycle::EnsureParents(std::function<void()> then) {
  std::string parent = ParentOf(path_);
  if (parent.empty()) {
    then();
    return;
  }
  uint64_t epoch = epoch_;
  naming::EnsureContextPath(
      executor(), client_, parent, [this, epoch, then = std::move(then)](Status s) {
        if (epoch != epoch_) {
          return;
        }
        if (!s.ok()) {
          // The bind that follows reads NOT_FOUND and comes back here.
          ITV_LOG(Error) << "lifecycle " << path_
                         << ": context creation failed: " << s;
          Count("svc.role.ensure_fail");
        }
        then();
      });
}

void ServiceLifecycle::Contest() {
  electing_ = true;
  if (options_.first_bind_delay.is_zero()) {
    TryBind();
    return;
  }
  ScheduleStep(&ServiceLifecycle::TryBind, options_.first_bind_delay);
}

void ServiceLifecycle::ScheduleStep(void (ServiceLifecycle::*step)(),
                                    Duration delay) {
  bind_timer_ = executor().ScheduleAfter(delay, [this, step] {
    bind_timer_ = kInvalidTimerId;
    (this->*step)();
  });
}

void ServiceLifecycle::TryBind() {
  if (!electing_ || bound_) {
    return;
  }
  if (metrics_ != nullptr) {
    metrics_->Add("binder.bind_attempts");
  }
  // Each bind attempt roots a trace: when a backup finally wins after the
  // audit removes the dead primary's binding, the winning attempt's
  // bind.primary instant is the fail-over timeline's recovery marker.
  trace::Tracer* tracer = client_.runtime().tracer();
  trace::TraceContext ctx;
  Time begin;
  if (tracer != nullptr) {
    ctx = tracer->StartTrace();
    begin = tracer->now();
  }
  trace::ScopedContext scoped(tracer, ctx);
  client_.Bind(path_, ref_).OnReady([this, ctx, begin](const Result<void>& r) {
    if (!electing_) {
      return;
    }
    trace::Tracer* tracer = client_.runtime().tracer();
    if (r.ok()) {
      if (tracer != nullptr) {
        tracer->Span(ctx, "bind.attempt", begin, path_);
        tracer->Instant(ctx, trace::kEventBindPrimary, path_);
      }
      ITV_LOG(Info) << "primary/backup: became primary for " << path_;
      OnWonBinding();
      // A primary can lose its binding while alive: a transient network
      // fault makes the RAS report it dead and the NS audit unbinds it.
      // Keep verifying the binding and re-assert it when it disappears.
      ScheduleStep(&ServiceLifecycle::VerifyPrimary, options_.retry_interval);
      return;
    }
    if (tracer != nullptr) {
      tracer->Span(ctx, "bind.attempt", begin,
                   path_ + " error=" +
                       std::string(StatusCodeName(r.status().code())));
    }
    if (IsAlreadyExists(r.status())) {
      // The existing binding may be our own (e.g. we demoted on a stale
      // NOT_FOUND answered by a lagging name-service replica while the
      // master still holds our binding). Check before settling into the
      // backup loop: if the name points at us, we never stopped being
      // primary.
      client_.Resolve(path_).OnReady(
          [this](const Result<wire::ObjectRef>& resolved) {
            if (!electing_ || bound_) {
              return;
            }
            if (resolved.ok() && *resolved == ref_) {
              ITV_LOG(Info) << "primary/backup: binding for " << path_
                            << " still ours; resuming as primary";
              // Reaching here means we were not bound — either we demoted
              // or we never won — so the role must leave Backup.
              OnWonBinding();
              ScheduleStep(&ServiceLifecycle::VerifyPrimary,
                           options_.retry_interval);
              return;
            }
            ScheduleStep(&ServiceLifecycle::TryBind, options_.retry_interval);
          });
      return;
    }
    if (IsNotFound(r.status())) {
      // A parent context is gone (a name-service master fail-over can lose
      // a context a replica created): re-create it, then retry on the usual
      // cadence, which leaves a live primary its re-assert first.
      EnsureParents([this] {
        ScheduleStep(&ServiceLifecycle::TryBind, options_.retry_interval);
      });
      return;
    }
    // No master elected, name service briefly unreachable: retry as well.
    ScheduleStep(&ServiceLifecycle::TryBind, options_.retry_interval);
  });
}

void ServiceLifecycle::VerifyPrimary() {
  if (!electing_ || !bound_) {
    return;
  }
  // Ask the name service, never a cached binding: a cached entry could be
  // our own stale binding and mask the loss this probe exists to detect.
  client_.Resolve(path_).OnReady([this](const Result<wire::ObjectRef>& r) {
    if (!electing_ || !bound_) {
      return;
    }
    if (r.ok() && *r == ref_) {
      // Still the registered primary.
      ScheduleStep(&ServiceLifecycle::VerifyPrimary, options_.retry_interval);
      return;
    }
    if (r.ok()) {
      // Another replica holds the name: we were unbound and lost the
      // re-election. Rejoin the backup retry loop.
      if (metrics_ != nullptr) {
        metrics_->Add("binder.demotions");
      }
      ITV_LOG(Info) << "primary/backup: lost binding for " << path_
                    << " to another replica";
      DemoteRole();
      ScheduleStep(&ServiceLifecycle::TryBind, options_.retry_interval);
      return;
    }
    if (IsNotFound(r.status())) {
      // The binding is gone — an audit false positive — or the answering
      // replica is lagging and has not seen it yet. Re-assert WITHOUT
      // demoting: if the name is genuinely free the bind restores it, and
      // ALREADY_EXISTS just proves the NOT_FOUND was stale. Demoting here
      // would deadlock: a false backup whose own binding survives gets
      // ALREADY_EXISTS forever and never serves again.
      Reassert(/*ensured=*/false);
      return;
    }
    // Name service unreachable or masterless: no evidence either way, keep
    // primaryship and probe again later.
    ScheduleStep(&ServiceLifecycle::VerifyPrimary, options_.retry_interval);
  });
}

void ServiceLifecycle::Reassert(bool ensured) {
  client_.Bind(path_, ref_).OnReady([this, ensured](const Result<void>& bound) {
    if (!electing_ || !bound_) {
      return;
    }
    if (bound.ok()) {
      ITV_LOG(Info) << "primary/backup: re-asserted binding for " << path_;
    }
    if (IsNotFound(bound.status()) && !ensured) {
      // The parent context went with the binding: re-create it and bind
      // again, still primary.
      EnsureParents([this] { Reassert(/*ensured=*/true); });
      return;
    }
    ScheduleStep(&ServiceLifecycle::VerifyPrimary, options_.retry_interval);
  });
}

void ServiceLifecycle::LeaveElection() {
  bool held = std::exchange(bound_, false);
  if (!electing_) {
    return;  // An external role, or already out: nothing is bound.
  }
  electing_ = false;
  if (bind_timer_ != kInvalidTimerId) {
    executor().Cancel(bind_timer_);
    bind_timer_ = kInvalidTimerId;
  }
  if (!held) {
    return;
  }
  // Release the name so a backup can win on its next retry instead of
  // stalling until the audit removes the binding. Best-effort, and only
  // after confirming the binding is still ours: between losing the name and
  // the verify loop noticing, an unconditional unbind would evict the new
  // primary.
  client_.Resolve(path_).OnReady(
      [client = client_, path = path_, ref = ref_](
          const Result<wire::ObjectRef>& r) {
        if (r.ok() && *r == ref) {
          client.Unbind(path).OnReady([](const Result<void>&) {});
        }
      });
}

void ServiceLifecycle::OnWonBinding() {
  // The name is ours, but the service only becomes Primary once its state is
  // recovered; until then callers still see a backup.
  bound_ = true;
  Time begin = executor().Now();
  if (!hooks_.recover) {
    FinishPromotion(begin);
    return;
  }
  uint64_t epoch = epoch_;
  hooks_.recover([this, epoch, begin](Status s) {
    if (epoch != epoch_ || role_ == ServiceRole::kStopped) {
      return;  // Stopped or demoted while recovering: stale completion.
    }
    if (s.ok()) {
      FinishPromotion(begin);
      return;
    }
    ++recover_failures_;
    Count("svc.role.recover_fail");
    ITV_LOG(Error) << "lifecycle " << path_ << ": recovery failed (" << s
                   << "); releasing the binding";
    // Step out of the election without ever having claimed primaryship: the
    // name is released, so a healthier replica can win, and we rejoin after
    // a back-off (an external role rejoins at its next probe).
    ++epoch_;
    LeaveElection();
    SetRole(ServiceRole::kBackup);
    if (!hooks_.external_role) {
      executor().ScheduleAfter(kRecoverRetry, [this] {
        if (role_ == ServiceRole::kBackup && !electing_) {
          Contest();
        }
      });
    }
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
  // Called when the verify finds another replica holding the name (or the
  // external-role probe turns false). Also invalidates a recovery that is
  // still in flight: its completion must not promote a demoted replica.
  ++epoch_;
  bound_ = false;
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
  // The election (or probe) keeps contesting; we are a backup again.
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
  if (primary_now && !bound_) {
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
