// LoadReporter: the producer half of the load board. Owned (indirectly) by a
// ServiceLifecycle — started on promotion, stopped on demotion — it samples
// the service's load on a timer, stamps the reporter path and a monotonic
// sequence, and fire-and-forgets the report at the board (kLoadBoardName)
// through its own binding (rebind/backoff like any client). Reports are pure
// soft state: a lost one just leaves the previous entry to age until the
// next.

#ifndef SRC_LOAD_REPORTER_H_
#define SRC_LOAD_REPORTER_H_

#include <functional>
#include <string>
#include <utility>

#include "src/common/executor.h"
#include "src/common/metrics.h"
#include "src/load/load_board.h"
#include "src/rpc/binding_table.h"

namespace itv::load {

class LoadReporter {
 public:
  // Fills everything but `reporter` and `seq`, which the reporter stamps.
  using SampleFn = std::function<LoadReport()>;

  LoadReporter(rpc::ObjectRuntime& runtime, Executor& executor,
               rpc::PathResolver resolver, std::string reporter,
               Duration interval, SampleFn sample, Metrics* metrics = nullptr);

  // Idempotent; Start also publishes one report immediately so a freshly
  // promoted primary appears on the board without waiting out an interval.
  void Start();
  void Stop();
  bool running() const { return timer_.running(); }

  uint64_t reports_sent() const { return reports_sent_; }

 private:
  void Tick();

  Executor& executor_;
  std::string reporter_;
  Duration interval_;
  SampleFn sample_;
  Metrics* metrics_;
  rpc::BindingTable bindings_;
  rpc::BoundClient<LoadBoardProxy> board_;
  uint64_t seq_;
  uint64_t reports_sent_ = 0;
  PeriodicTimer timer_;
};

}  // namespace itv::load

#endif  // SRC_LOAD_REPORTER_H_
