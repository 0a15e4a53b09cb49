// itv_bench: one driver for every performance claim in this repository.
//
//   itv_bench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//             [--out <dir>]
//   itv_bench --smoke          every workload at about 1/20 scale (the default)
//   itv_bench --determinism    one sim seed twice; sim-time metrics must match
//
// Prints every metric as "name value unit", then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exits 1 when a
// correctness check fails. Workloads and metrics are described in
// README.md; BENCHMARK.json at the repository root lists which metrics are
// end-to-end (untraced run) and which are per-layer (--trace 1).

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory_resource>
#include <string>
#include <vector>

#include "itvbench/bench.h"
#include "src/common/logging.h"

namespace itvbench {

double WallNow() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// The driver runs on one thread. The thread clock stays exact while the CPU
// sampler's ITIMER_PROF is armed; the process clock then only advances at
// scheduler ticks.
double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

// A "Vm...:   <n> kB" field of /proc/self/status, in KiB.
double ProcStatusKb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  size_t len = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len && line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr);
    }
  }
  return 0;
}

// The reference computation: allocation, string and ordered-map work of the
// kind the cluster's code does. Under load from other tenants it slows down
// with the workloads more closely than a pointer chase, a hash map or plain
// arithmetic do (README.md). Every run does the same work at the same
// addresses: it allocates from its own arena, never from the program's heap,
// whose state a change to src/ could alter.
class Reference {
 public:
  Reference() : arena_(4u << 20) {}

  // Returns a value that depends on all of the work.
  uint64_t Run() {
    std::pmr::monotonic_buffer_resource arena(arena_.data(), arena_.size(),
                                              std::pmr::null_memory_resource());
    std::pmr::unsynchronized_pool_resource pool({.max_blocks_per_chunk = 32},
                                                &arena);
    x_ = kSeed;
    uint64_t sink = 0;
    // Sort 200 batches of 20 strings of 40-139 bytes.
    for (int i = 0; i < 200; ++i) {
      std::pmr::vector<std::pmr::string> batch(&pool);
      for (int j = 0; j < 20; ++j) {
        batch.emplace_back(40 + Next() % 100, 'b');
      }
      std::sort(batch.begin(), batch.end());
      sink += batch.front().size();
    }
    // Allocate 2,000 blocks of 64 B to 2 KiB, free them in shuffled order.
    std::pmr::vector<std::pair<char*, size_t>> blocks(2'000, &pool);
    for (auto& [block, n] : blocks) {
      n = 64 + Next() % 2'048;
      block = static_cast<char*>(pool.allocate(n, 1));
      block[0] = 1;
      block[n - 1] = 2;
    }
    for (size_t i = blocks.size() - 1; i > 0; --i) {
      std::swap(blocks[i], blocks[Next() % (i + 1)]);
    }
    for (auto& [block, n] : blocks) {
      sink += static_cast<uint64_t>(block[0]);
      pool.deallocate(block, n, 1);
    }
    // Bind 500 names in an ordered map and look up 2,000.
    std::pmr::map<std::pmr::string, std::pmr::string> names(&pool);
    auto name = [&] {
      std::pmr::string s("svc/name/", &pool);
      s += std::to_string(Next() % 100'000);
      return s;
    };
    for (int i = 0; i < 500; ++i) {
      names.emplace(name(), std::pmr::string(30 + Next() % 60, 'v', &pool));
    }
    for (int i = 0; i < 2'000; ++i) {
      auto it = names.lower_bound(name());
      sink += it == names.end() ? 0 : it->second.size();
    }
    return sink;
  }

 private:
  static constexpr uint64_t kSeed = 88'172'645'463'325'252u;
  uint64_t Next() {  // xorshift64
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }

  std::vector<std::byte> arena_;
  uint64_t x_ = kSeed;
};

}  // namespace

double ReferenceProbe() {
  static Reference reference;
  static volatile uint64_t result;
  double cpu0 = CpuNow();
  result = reference.Run();
  double spent = CpuNow() - cpu0;
  (void)result;
  return spent;
}

double Slowdown() {
  return Median({ReferenceProbe(), ReferenceProbe(), ReferenceProbe()}) /
         kReferenceProbeS;
}

Slicer::Slicer() : wall0_(WallNow()), cpu0_(CpuNow()) {}

bool Slicer::Due() const { return WallNow() - wall0_ >= kSliceS; }

Slice Slicer::Close() {
  Slice slice;
  slice.wall_s = WallNow() - wall0_;
  slice.cpu_s = CpuNow() - cpu0_;
  slice.slowdown = ReferenceProbe() / kReferenceProbeS;
  wall0_ = WallNow();
  cpu0_ = CpuNow();
  return slice;
}

double PeakRssMb() { return ProcStatusKb("VmHWM") / 1024.0; }
double RssKb() { return ProcStatusKb("VmRSS"); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) {
    return 0;
  }
  double sum = 0;
  for (double x : v) {
    sum += x;
  }
  return sum / static_cast<double>(v.size());
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

namespace {

using Runner = Report (*)(const Config&);

const std::map<std::string, Runner>& Workloads() {
  static const std::map<std::string, Runner> kWorkloads = {
      {"prime_time", RunPrimeTime},
      {"channel_surf", RunChannelSurf},
      {"server_crash", RunServerCrash},
      {"signed_rpc_tcp", RunSignedRpcTcp},
  };
  return kWorkloads;
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultJson(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

Report RunOne(const Config& config) {
  Report report = Workloads().at(config.workload)(config);
  for (const auto& [name, metric] : report.metrics) {
    report.Check(std::isfinite(metric.value), "metric " + name + " is not finite");
  }
  return report;
}

void PrintReport(const Config& config, const Report& report) {
  std::printf("== %s seed=%llu seconds=%g trace=%d scale=%g\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, config.scale);
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%s %.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
  std::printf("attempted %llu failed %llu\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (const std::string& failure : report.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
}

// Every workload at about 1/20 scale with every correctness check.
int Smoke() {
  bool ok = true;
  for (const auto& [name, runner] : Workloads()) {
    Config config;
    config.workload = name;
    config.seconds = 0.5;
    config.scale = 0.05;
    config.setups = 1;
    Report report = RunOne(config);
    PrintReport(config, report);
    ok = ok && report.correct() && report.failed == 0;
  }
  std::printf("smoke: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

// One sim seed twice: sim-time metrics, counts and fractions must repeat.
int Determinism() {
  Config config;
  config.workload = "prime_time";
  config.seed = 7;
  config.seconds = 0;
  config.scale = 0.1;
  config.setups = 1;
  Report a = RunOne(config);
  Report b = RunOne(config);
  bool same = a.attempted == b.attempted && a.failed == b.failed;
  for (const char* metric : {"wait_ms", "msgs_per_op"}) {
    bool equal = a.Get(metric) == b.Get(metric);
    std::printf("%s %.17g %.17g %s\n", metric, a.Get(metric), b.Get(metric),
                equal ? "same" : "DIFFERENT");
    same = same && equal;
  }
  std::printf("attempted %llu %llu, failed %llu %llu\n",
              static_cast<unsigned long long>(a.attempted),
              static_cast<unsigned long long>(b.attempted),
              static_cast<unsigned long long>(a.failed),
              static_cast<unsigned long long>(b.failed));
  std::printf("determinism: %s\n", same ? "ok" : "FAILED");
  return same && a.correct() && b.correct() ? 0 : 1;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> [--seconds <s>] "
               "[--trace 0|1] [--out <dir>]\n       %s --smoke | --determinism\n"
               "workloads:",
               argv0, argv0);
  for (const auto& [name, runner] : Workloads()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace itvbench

int main(int argc, char** argv) {
  using namespace itvbench;
  // The cluster logs every fail-over step; the report is what matters here.
  itv::SetMinLogLevel(itv::LogLevel::kError);
  if (argc == 1) {
    return Smoke();
  }
  Config config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::exit(Usage(argv[0]));
      }
      return argv[++i];
    };
    if (arg == "--smoke") {
      return Smoke();
    } else if (arg == "--determinism") {
      return Determinism();
    } else if (arg == "--workload") {
      config.workload = value();
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value() != "0";
    } else if (arg == "--out") {
      config.out_dir = value();
    } else {
      return Usage(argv[0]);
    }
  }
  if (Workloads().count(config.workload) == 0 || config.seconds < 0) {
    return Usage(argv[0]);
  }
  Report report = RunOne(config);
  PrintReport(config, report);
  if (config.trace) {
    std::ofstream(config.out_dir + "/" + config.workload + ".layers.json")
        << ResultJson(report) << "\n";
  }
  std::printf("%s\n", ResultJson(report).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
