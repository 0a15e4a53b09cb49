// Settop Application Manager (paper Sections 3.4.1-3.4.3).
//
// Boot: obtain boot parameters (name service replica list, kernel size) from
// the head-end's broadcast channel, sit through the carousel + kernel download,
// then run. "The AM receives channel change events from the remote control
// and downloads the appropriate application when a subscriber tunes to a
// channel that provides interactive services."
//
// Application start (StartApp) reproduces Section 3.4.2 + 9.3: the AM keeps
// a cached RDS reference ("the AM only contacts the name service for a
// reference to the RDS the first time...; if at some point the RDS reference
// stops working, the AM will obtain a new object reference and retry"),
// optionally downloads a small cover image first (displayed while the main
// binary transfers), then the application binary.
//
// While running, the AM heartbeats the Settop Manager so the RAS can answer
// settop liveness queries.

#ifndef SRC_SETTOP_APP_MANAGER_H_
#define SRC_SETTOP_APP_MANAGER_H_

#include <map>
#include <string>

#include "src/common/executor.h"
#include "src/common/metrics.h"
#include "src/media/broadcast.h"
#include "src/media/rds.h"
#include "src/naming/name_client.h"
#include "src/rpc/binding_table.h"

namespace itv::svc {
class SettopManagerProxy;
}

namespace itv::settop {

class AppManager {
 public:
  struct Options {
    uint32_t boot_server_host = 0;  // Head-end wiring (cable plant).
    Duration heartbeat_interval = Duration::Seconds(5);
    // Cover still image downloaded before the app binary; 0 = cover is
    // generated locally at the settop (instant).
    std::string cover_item;
    Duration rpc_timeout = Duration::Seconds(2);
    rpc::BindingOptions rds_rebind;
  };

  enum class State {
    kOff,
    kFetchingBootParams,
    kLoadingKernel,
    kRunning,
  };

  AppManager(rpc::ObjectRuntime& runtime, Executor& executor, Options options,
             Metrics* metrics = nullptr);
  ~AppManager();

  // Runs the boot sequence; `done` fires when the AM is running.
  void Boot(std::function<void(Status)> done);

  // Channel change: download (cover +) app binary, then report started.
  // `on_cover` fires when the viewer sees something (paper's 0.5 s budget);
  // `done` when the application is fully started.
  void StartApp(const std::string& app_item,
                std::function<void(Status)> done,
                std::function<void()> on_cover = nullptr);

  // Raw RDS download through the cached (auto-rebinding) RDS reference;
  // completes with the item's content bytes. Used by applications (e.g. the
  // navigator fetching the channel lineup).
  using DownloadCallback = std::function<void(Status, wire::Bytes)>;
  void Download(const std::string& item, DownloadCallback done);

  State state() const { return state_; }
  bool running() const { return state_ == State::kRunning; }
  uint32_t my_host() const { return runtime_.local_endpoint().host; }

  // Available once running.
  naming::NameClient& name_client();
  const media::BootParams& boot_params() const { return boot_params_; }

  // Instrumentation for the response-time experiments.
  Duration last_boot_duration() const { return boot_duration_; }
  Duration last_cover_latency() const { return cover_latency_; }
  Duration last_app_start_latency() const { return app_start_latency_; }
  uint64_t rds_rebinds() const;

 private:
  class DataSinkSkeleton;

  void OnDownloadComplete(uint64_t transfer_id, wire::Bytes content);
  void StartHeartbeats();

  rpc::ObjectRuntime& runtime_;
  Executor& executor_;
  Options options_;
  Metrics* metrics_;

  State state_ = State::kOff;
  media::BootParams boot_params_;
  std::unique_ptr<naming::NameClient> name_client_;
  // Created at boot, once the name-service address is known.
  std::unique_ptr<rpc::BindingTable> bindings_;
  rpc::BoundClient<media::RdsProxy> rds_;
  rpc::BoundClient<svc::SettopManagerProxy> settopmgr_;
  std::unique_ptr<DataSinkSkeleton> sink_;
  wire::ObjectRef sink_ref_;
  std::map<uint64_t, DownloadCallback> pending_downloads_;
  PeriodicTimer heartbeat_timer_;

  Time boot_started_;
  Duration boot_duration_;
  Duration cover_latency_;
  Duration app_start_latency_;
};

}  // namespace itv::settop

#endif  // SRC_SETTOP_APP_MANAGER_H_
