#include "src/settop/app_manager.h"

#include <utility>

#include "src/common/logging.h"
#include "src/svc/settop_manager.h"

namespace itv::settop {

// Receives RDS download completions.
class AppManager::DataSinkSkeleton : public rpc::Skeleton {
 public:
  explicit DataSinkSkeleton(AppManager& am) : am_(am) {}
  std::string_view interface_name() const override {
    return media::kDataSinkInterface;
  }
  void Dispatch(uint32_t method_id, const wire::Bytes& args,
                const rpc::CallContext& ctx, rpc::ReplyFn reply) override {
    if (method_id != media::kDataSinkMethodOnComplete) {
      return rpc::ReplyBadMethod(reply, method_id);
    }
    uint64_t transfer_id = 0;
    std::string name;
    int64_t size = 0;
    wire::Bytes content;
    if (!rpc::DecodeArgs(args, &transfer_id, &name, &size, &content)) {
      return rpc::ReplyBadArgs(reply);
    }
    am_.OnDownloadComplete(transfer_id, std::move(content));
    return rpc::ReplyOk(reply);
  }

 private:
  AppManager& am_;
};

AppManager::AppManager(rpc::ObjectRuntime& runtime, Executor& executor,
                       Options options, Metrics* metrics)
    : runtime_(runtime),
      executor_(executor),
      options_(std::move(options)),
      metrics_(metrics) {
  ITV_CHECK(options_.boot_server_host != 0);
  sink_ = std::make_unique<DataSinkSkeleton>(*this);
  sink_ref_ = runtime_.Export(sink_.get());
}

AppManager::~AppManager() = default;

naming::NameClient& AppManager::name_client() {
  ITV_CHECK(name_client_ != nullptr) << "settop not booted";
  return *name_client_;
}

uint64_t AppManager::rds_rebinds() const {
  if (bindings_ == nullptr) {
    return 0;
  }
  const rpc::BindingTable::Entry* rds = bindings_->Find("svc/rds");
  return rds == nullptr ? 0 : rds->rebinds;
}

void AppManager::Boot(std::function<void(Status)> done) {
  ITV_CHECK(state_ == State::kOff);
  state_ = State::kFetchingBootParams;
  boot_started_ = executor_.Now();

  media::BootBroadcastProxy boot(
      runtime_, media::BootBroadcastRefAt(options_.boot_server_host));
  boot.GetBootParams(my_host())
      .OnReady([this, done](const Result<media::BootParams>& params) {
        if (!params.ok() || params->ns_replicas.empty()) {
          // The broadcast carousel is continuous: keep listening.
          executor_.ScheduleAfter(Duration::Seconds(1), [this, done] {
            state_ = State::kOff;
            Boot(done);
          });
          return;
        }
        boot_params_ = *params;
        state_ = State::kLoadingKernel;
        // Average carousel wait (half a period) plus the kernel transfer.
        Duration wait = params->carousel_period() * 0.5 +
                        Duration::Seconds(
                            static_cast<double>(params->kernel_size_bytes) * 8.0 /
                            static_cast<double>(params->boot_channel_bps));
        executor_.ScheduleAfter(wait, [this, done] {
          state_ = State::kRunning;
          boot_duration_ = executor_.Now() - boot_started_;
          name_client_ = std::make_unique<naming::NameClient>(
              runtime_, std::make_shared<const std::vector<uint32_t>>(
                            boot_params_.ns_replicas));
          bindings_ = std::make_unique<rpc::BindingTable>(
              runtime_, name_client_->PathResolverFn());
          rds_ = bindings_->Bind<media::RdsProxy>("svc/rds",
                                                  options_.rds_rebind);
          settopmgr_ = bindings_->Bind<svc::SettopManagerProxy>(
              svc::kSettopManagerName);
          StartHeartbeats();
          if (metrics_ != nullptr) {
            metrics_->Add("settop.booted");
          }
          done(OkStatus());
        });
      });
}

void AppManager::StartHeartbeats() {
  heartbeat_timer_.Start(executor_, options_.heartbeat_interval, [this] {
    settopmgr_.Call<void>(
        [host = my_host()](const svc::SettopManagerProxy& mgr) {
          return mgr.Heartbeat(host);
        },
        [](Result<void>) {});
  });
}

void AppManager::Download(const std::string& item, DownloadCallback done) {
  ITV_CHECK(running()) << "settop not booted";
  rds_.Call<media::TransferTicket>(
      [item, sink = sink_ref_](const media::RdsProxy& rds) {
        return rds.OpenData(item, sink);
      },
      [this, done = std::move(done)](Result<media::TransferTicket> ticket) {
        if (!ticket.ok()) {
          done(ticket.status(), {});
          return;
        }
        pending_downloads_[ticket->transfer_id] = std::move(done);
      });
}

void AppManager::OnDownloadComplete(uint64_t transfer_id, wire::Bytes content) {
  auto it = pending_downloads_.find(transfer_id);
  if (it == pending_downloads_.end()) {
    return;
  }
  auto done = std::move(it->second);
  pending_downloads_.erase(it);
  done(OkStatus(), std::move(content));
}

void AppManager::StartApp(const std::string& app_item,
                          std::function<void(Status)> done,
                          std::function<void()> on_cover) {
  ITV_CHECK(running()) << "settop not booted";
  Time start = executor_.Now();

  auto fetch_app = [this, app_item, start, done = std::move(done)] {
    Download(app_item, [this, start, done](Status s, wire::Bytes) {
      if (s.ok()) {
        app_start_latency_ = executor_.Now() - start;
        if (metrics_ != nullptr) {
          metrics_->Add("settop.app_started");
        }
      }
      done(s);
    });
  };

  if (options_.cover_item.empty()) {
    // Cover generated at the settop: visible as soon as the channel changes.
    cover_latency_ = Duration::Nanos(0);
    if (on_cover) {
      on_cover();
    }
    fetch_app();
    return;
  }
  Download(options_.cover_item,
           [this, start, on_cover = std::move(on_cover),
            fetch_app = std::move(fetch_app)](Status s, wire::Bytes) {
             if (s.ok()) {
               cover_latency_ = executor_.Now() - start;
               if (on_cover) {
                 on_cover();
               }
             }
             fetch_app();
           });
}

}  // namespace itv::settop
