#include "src/load/reporter.h"

namespace itv::load {

LoadReporter::LoadReporter(rpc::ObjectRuntime& runtime, Executor& executor,
                           rpc::PathResolver resolver, std::string reporter,
                           Duration interval, SampleFn sample, Metrics* metrics)
    : executor_(executor),
      reporter_(std::move(reporter)),
      interval_(interval),
      sample_(std::move(sample)),
      metrics_(metrics),
      bindings_(runtime, std::move(resolver)),
      board_(bindings_.Bind<LoadBoardProxy>(kLoadBoardName)),
      // Incarnation-seeded so a restarted producer's sequence still moves
      // forward past anything its previous life published.
      seq_(runtime.incarnation() << 20) {}

void LoadReporter::Start() {
  if (timer_.running()) {
    return;
  }
  Tick();
  timer_.Start(executor_, interval_, [this] { Tick(); });
}

void LoadReporter::Stop() { timer_.Stop(); }

void LoadReporter::Tick() {
  LoadReport report = sample_();
  report.reporter = reporter_;
  report.seq = ++seq_;
  ++reports_sent_;
  if (metrics_ != nullptr) {
    metrics_->Add("load.report_sent");
  }
  board_.Call<void>(
      [report](const LoadBoardProxy& board) { return board.Report(report); },
      [](Result<void>) {});  // Soft state: a lost report just ages out.
}

}  // namespace itv::load
