// Shared vocabulary of the itv_bench driver: the run configuration, the
// report every workload fills in, and the process-level measurements (wall
// clock, CPU time, resident memory) the report is built from.
//
// The driver lives in its own namespace, outside itv::, so the CPU sampler
// (profiler.h) charges the driver's own work to "bench" and never to a src/
// module.

#ifndef ITVBENCH_BENCH_H_
#define ITVBENCH_BENCH_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace itvbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  // Wall-clock length of the measured phase. Sim workloads also run at least
  // their fixed sim horizon, over which every sim-time metric is taken.
  double seconds = 10;
  bool trace = false;
  // Where a traced run writes its Chrome trace and per-layer JSON.
  std::string out_dir = ".";
  // Workload size multiplier: 1 for measurement, about 1/20 for --smoke.
  double scale = 1.0;
  // How many times set-up runs; setup_s is the median.
  int setups = 3;
};

struct Metric {
  double value = 0;
  std::string unit;
};

// What one workload run produced. Metric names follow BENCHMARK.json; the
// driver prints every one of them and picks the end-to-end or per-layer set
// for the machine-readable last line.
struct Report {
  std::map<std::string, Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // One entry per failed correctness check; empty means correct.
  std::vector<std::string> check_failures;
  // Human-readable extras printed before the metrics (per-hop table, sample
  // counts, workload shape).
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  double Get(const std::string& name) const {
    auto it = metrics.find(name);
    return it == metrics.end() ? 0 : it->second.value;
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      check_failures.push_back(what);
    }
  }
  void Note(std::string line) { notes.push_back(std::move(line)); }
  bool correct() const { return check_failures.empty(); }
};

// Workload entry points (sim_workloads.cc, tcp_workload.cc).
Report RunPrimeTime(const Config& config);
Report RunChannelSurf(const Config& config);
Report RunServerCrash(const Config& config);
Report RunSignedRpcTcp(const Config& config);

// --- Process measurements ----------------------------------------------------

// Monotonic wall clock, seconds.
double WallNow();
// CPU time (user + system) the driver's thread has used, seconds.
double CpuNow();
// Peak resident set (VmHWM), MiB.
double PeakRssMb();
// Current resident set (VmRSS), KiB.
double RssKb();

// --- Machine speed ---------------------------------------------------------------
//
// The benchmark runs on a few cores of a shared host whose speed drifts by
// 10-30% from second to second and from run to run as other tenants load it;
// CPU time drifts with it, so ops per CPU second alone are nearly as noisy as
// ops per wall second. ReferenceProbe() runs a fixed computation that uses no
// src/ code (sorting strings, allocating and freeing blocks, filling and
// searching an ordered map of names) and returns the CPU seconds it took.
// Timed right after every slice of a measured phase, it rescales the slice's
// CPU time to what it would have been on the reference machine, where the
// probe takes kReferenceProbeS (its median on a 4-vCPU 2.1 GHz Xeon VM).

double ReferenceProbe();
constexpr double kReferenceProbeS = 0.00125;

// One slice of a measured phase.
struct Slice {
  double wall_s = 0;
  double cpu_s = 0;
  // Probe time over kReferenceProbeS: 1.2 means the machine ran 20% slower
  // than the reference machine.
  double slowdown = 1;
  // The slice's CPU time on the reference machine.
  double ref_cpu_s() const { return cpu_s / slowdown; }
};

// The machine's slowdown now: the median of three probes over
// kReferenceProbeS.
double Slowdown();

// Builds and sets up a workload config.setups times, keeping the last one.
// Appends each set-up's wall time to `setup_s`, rescaled to the reference
// machine's speed by the slowdown taken right after it.
template <typename W>
std::unique_ptr<W> SetUp(const Config& config, std::vector<double>* setup_s) {
  std::unique_ptr<W> workload;
  for (int i = 0; i < std::max(1, config.setups); ++i) {
    workload.reset();
    double wall0 = WallNow();
    workload = std::make_unique<W>(config);
    workload->SetUp();
    double wall_s = WallNow() - wall0;
    setup_s->push_back(wall_s / Slowdown());
  }
  return workload;
}

// Cuts a measured phase into quarter-second slices. Reporting the median over
// slices of a rate taken at reference speed keeps a burst of load from
// elsewhere on the host to a few slices.
class Slicer {
 public:
  static constexpr double kSliceS = 0.25;
  Slicer();
  // Whether the current slice has run for kSliceS of wall time.
  bool Due() const;
  // Ends the current slice, times the probe (outside any slice) and starts
  // the next slice.
  Slice Close();

 private:
  double wall0_;
  double cpu0_;
};

// --- Statistics ----------------------------------------------------------------

double Mean(const std::vector<double>& v);
// Linear-interpolated percentile, p in [0, 100].
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

}  // namespace itvbench

#endif  // ITVBENCH_BENCH_H_
