#include "itvbench/profiler.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

namespace itvbench {
namespace {

constexpr size_t kMaxSamples = 1 << 16;
constexpr int kMaxDepth = 32;
// backtrace() inside the handler sees the handler and the signal trampoline
// first; the interrupted code starts after them.
constexpr int kSkipFrames = 2;

// Written only by the signal handler while the profiler runs; read after
// Stop(). The process is single-threaded, so a relaxed counter suffices.
void** g_frames = nullptr;
int* g_depth = nullptr;
std::atomic<size_t> g_count{0};

void OnSigprof(int) {
  int saved_errno = errno;
  size_t i = g_count.load(std::memory_order_relaxed);
  if (i < kMaxSamples) {
    g_depth[i] = backtrace(g_frames + i * kMaxDepth, kMaxDepth);
    g_count.store(i + 1, std::memory_order_relaxed);
  }
  errno = saved_errno;
}

// The layers samples are charged to.
const std::vector<std::string>& ProfileLayers() {
  static const std::vector<std::string> kLayers = {
      "sim",  "rpc",  "naming", "media", "load",   "ras",   "svc",
      "settop", "auth", "wire", "net",   "common", "bench", "other"};
  return kLayers;
}

// The layer a demangled symbol belongs to, or "" when it names no itv or
// itv_bench code (libc, libstdc++ internals), so the caller keeps walking.
std::string LayerOfSymbol(const std::string& symbol) {
  size_t itv = symbol.find("itv::");
  size_t bench = symbol.find("itvbench::");
  if (bench != std::string::npos && (itv == std::string::npos || bench < itv)) {
    return "bench";
  }
  if (itv == std::string::npos) {
    return "";
  }
  size_t begin = itv + 5;
  size_t end = begin;
  while (end < symbol.size() &&
         (std::isalnum(static_cast<unsigned char>(symbol[end])) ||
          symbol[end] == '_')) {
    ++end;
  }
  std::string module = symbol.substr(begin, end - begin);
  if (end + 1 < symbol.size() && symbol.compare(end, 2, "::") == 0) {
    for (const std::string& layer : ProfileLayers()) {
      if (layer == module) {
        return layer;
      }
    }
    if (module == "db" || module == "files" || module == "chaos") {
      return "other";
    }
  }
  // itv::Future, itv::Metrics, itv::trace::..., itv::json::...: common/.
  return "common";
}

std::string LayerOfFrame(void* pc,
                         std::unordered_map<void*, std::string>& cache) {
  auto it = cache.find(pc);
  if (it != cache.end()) {
    return it->second;
  }
  std::string layer;
  Dl_info info{};
  void* extra = nullptr;
  // Return addresses point past the call; step back into the caller.
  void* lookup = static_cast<char*>(pc) - 1;
  int found = dladdr1(lookup, &info, &extra, RTLD_DL_SYMENT);
  const auto* sym = static_cast<const ElfW(Sym)*>(extra);
  if (found != 0 && info.dli_sname != nullptr && sym != nullptr) {
    auto start = reinterpret_cast<uintptr_t>(info.dli_saddr);
    // A local (non-exported) function resolves to the nearest exported
    // symbol below it; only trust symbols whose extent covers the address.
    if (reinterpret_cast<uintptr_t>(lookup) < start + sym->st_size) {
      int status = 0;
      std::unique_ptr<char, void (*)(void*)> demangled(
          abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status),
          std::free);
      layer = LayerOfSymbol(status == 0 && demangled ? demangled.get()
                                                     : info.dli_sname);
    }
  }
  cache.emplace(pc, layer);
  return layer;
}

}  // namespace

CpuProfiler::CpuProfiler() {
  g_frames = new void*[kMaxSamples * kMaxDepth];
  g_depth = new int[kMaxSamples];
  g_count.store(0);
  // The first backtrace() loads the unwinder; do it outside the handler.
  void* warm[4];
  backtrace(warm, 4);
}

CpuProfiler::~CpuProfiler() {
  Stop();
  delete[] g_frames;
  delete[] g_depth;
  g_frames = nullptr;
  g_depth = nullptr;
}

void CpuProfiler::Start() {
  struct sigaction sa {};
  sa.sa_handler = OnSigprof;
  // SA_RESTART: socket reads and writes interrupted by a sample resume
  // instead of failing with EINTR (the TCP transport treats that as a reset).
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  itimerval timer{};
  timer.it_interval.tv_usec = 1000;
  timer.it_value.tv_usec = 1000;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

void CpuProfiler::Stop() {
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  signal(SIGPROF, SIG_IGN);
}

size_t CpuProfiler::samples() const { return g_count.load(); }

std::map<std::string, double> CpuProfiler::Shares() const {
  std::map<std::string, double> shares;
  for (const std::string& layer : ProfileLayers()) {
    shares[layer] = 0;
  }
  size_t n = g_count.load();
  if (n == 0) {
    return shares;
  }
  std::unordered_map<void*, std::string> cache;
  for (size_t i = 0; i < n; ++i) {
    std::string layer = "other";
    for (int f = kSkipFrames; f < g_depth[i]; ++f) {
      std::string l = LayerOfFrame(g_frames[i * kMaxDepth + f], cache);
      if (!l.empty()) {
        layer = l;
        break;
      }
    }
    shares[layer] += 1.0;
  }
  for (auto& [layer, share] : shares) {
    share /= static_cast<double>(n);
  }
  return shares;
}

}  // namespace itvbench
