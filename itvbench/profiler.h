// CPU attribution by layer: a SIGPROF sampler (1 ms of CPU time between
// samples is asked for; the kernel's tick may stretch it). The handler only
// copies the stack (backtrace) into a preallocated buffer; after the run each
// sample is charged to the innermost frame that belongs to an itv::<module>
// namespace (dladdr plus demangling; itv_bench is linked -rdynamic), so a
// malloc called from the RPC runtime counts as rpc.

#ifndef ITVBENCH_PROFILER_H_
#define ITVBENCH_PROFILER_H_

#include <map>
#include <string>

namespace itvbench {

// Only one CpuProfiler may exist at a time: the signal handler writes
// process-wide buffers.
class CpuProfiler {
 public:
  CpuProfiler();
  ~CpuProfiler();
  CpuProfiler(const CpuProfiler&) = delete;
  CpuProfiler& operator=(const CpuProfiler&) = delete;

  void Start();
  void Stop();

  // Share of samples per layer: sim, rpc, naming, media, load, ras, svc,
  // settop, auth, wire, net, common (itv:: outside a module), bench (this
  // driver) and other (no itv frame on the stack), every one present.
  std::map<std::string, double> Shares() const;
  size_t samples() const;
};

}  // namespace itvbench

#endif  // ITVBENCH_PROFILER_H_
