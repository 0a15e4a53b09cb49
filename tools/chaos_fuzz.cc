// Chaos-fuzz driver: runs N seeded fault schedules against a full simulated
// ITV deployment and checks the cluster invariants after each one (see
// src/chaos/fuzz.h). On a failing seed it greedily shrinks the schedule to a
// 1-minimal fault list, then dumps the artifacts a human needs to reproduce:
//
//   chaos_seed_<seed>.schedule.json   the minimized fault schedule
//   chaos_seed_<seed>.trace.json      Chrome trace of the minimized replay
//   chaos_seed_<seed>.metrics.json    metrics dump of the minimized replay
//   chaos_seed_<seed>.report.txt      violations, fault log, fail-over timeline
//
// Every run is a pure function of its seed: `chaos_fuzz --seed S` replays a
// CI failure exactly.
//
// Usage:
//   chaos_fuzz --seeds N [--seed-base B] [--out DIR] [--faults K]
//              [--horizon SECONDS] [--shards N] [--reshard] [--skewed-load]
//              [--no-shrink] [--single-primary] [--quiet]
//              [--fingerprint FILE]
//   chaos_fuzz --seed S [--out DIR] ...
//
// --fingerprint FILE records the sweep in FILE, BENCH.json style: one
// section per sweep, named by the sweep's own flags (e.g. "--seeds 50
// --seed-base 10000 --single-primary"), holding one key per seed whose value
// is the seed's verdict, faults applied and simulator-exact totals (messages
// routed, scheduler events, bind attempts) of its first run, before any
// shrinking. Other sweeps' sections in FILE are kept, so the CI sweeps share
// one file and tools/bench_gate.py compares it with the committed CHAOS.json.
//
// --shards N deploys the MMS with N shards (an mmsd replica on every server
// so shard primaries spread); with --single-primary the invariant then
// checks exactly-one-primary PER SHARD.
//
// --reshard deploys MMS with 4 shards and publishes a successor map
// mid-horizon — growing to 8 shards on even seeds, shrinking to 2 on odd —
// so the fault schedule lands before, during, and after the live cutover.
// Each run then also checks reshard-convergence (successor map won, every
// session in exactly one shard primary's table) and single-primary per
// shard. Implies --single-primary.
//
// --skewed-load deploys MMS with 4 shards and 16 viewers, ~80% of them on
// settop hosts that hash to shard 0, so the hot shard's admission pool runs
// dry while its siblings idle. Viewers retry shed opens against the
// least-loaded sibling via the load board (which joins the kill list), and
// each run additionally checks admission-sound: no shard ever granted past
// its pool, and no viewer stays shed while a sibling has headroom.
//
// Exit status: 0 if every seed passed, 1 otherwise.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "src/chaos/fuzz.h"
#include "src/common/logging.h"
#include "src/common/strings.h"

using namespace itv;

namespace {

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  out.close();
  return out.good();
}

void DumpFailure(const std::string& out_dir, const chaos::FuzzResult& result,
                 const sim::ChaosPlan& minimized, size_t shrink_runs) {
  std::string base = out_dir + "/chaos_seed_" + std::to_string(result.seed);
  std::string report = StrFormat(
      "seed=%llu first_violation=%s faults_in_plan=%zu faults_applied=%zu "
      "shrink_runs=%zu\n\n",
      static_cast<unsigned long long>(result.seed),
      result.first_violation.c_str(), minimized.faults.size(),
      result.faults_applied, shrink_runs);
  report += "=== violations ===\n" + result.invariant_report;
  report += "\n=== minimized schedule ===\n" + minimized.ToString();
  report += "\n=== fault log (minimized replay) ===\n";
  for (const std::string& line : result.fault_log) {
    report += "  " + line + "\n";
  }
  if (!result.timeline_report.empty()) {
    report += "\n=== fail-over timeline (first kill) ===\n" +
              result.timeline_report;
  }
  bool ok = WriteFile(base + ".schedule.json", minimized.ToJson()) &&
            WriteFile(base + ".report.txt", report);
  if (!result.trace_json.empty()) {
    ok = WriteFile(base + ".trace.json", result.trace_json) && ok;
  }
  if (!result.metrics_json.empty()) {
    ok = WriteFile(base + ".metrics.json", result.metrics_json) && ok;
  }
  if (!ok) {
    std::fprintf(stderr, "warning: could not write artifacts under %s\n",
                 out_dir.c_str());
  }
  std::fprintf(stderr, "%s", report.c_str());
  std::fprintf(stderr, "artifacts: %s.{schedule.json,report.txt,...}\n",
               base.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  size_t seeds = 20;
  uint64_t seed_base = 1;
  bool single_seed = false;
  uint64_t the_seed = 0;
  std::string out_dir = ".";
  bool shrink = true;
  bool quiet = false;
  bool reshard = false;
  std::string fingerprint_path;
  // The flags that shape the runs, in command-line order: the fingerprint
  // section's name.
  std::string sweep;
  chaos::FuzzOptions options;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--fingerprint") {
      fingerprint_path = next();
      continue;
    }
    if (arg != "--out" && arg != "--no-shrink" && arg != "--quiet" &&
        arg != "--verbose") {
      sweep += (sweep.empty() ? "" : " ") + arg;
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        sweep += std::string(" ") + argv[i + 1];
      }
    }
    if (arg == "--seeds") {
      seeds = static_cast<size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--seed-base") {
      seed_base = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--seed") {
      single_seed = true;
      the_seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--out") {
      out_dir = next();
    } else if (arg == "--faults") {
      options.fault_count =
          static_cast<size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--horizon") {
      options.horizon =
          Duration::Seconds(std::strtoll(next(), nullptr, 10));
    } else if (arg == "--shards") {
      uint32_t shards =
          static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
      if (shards == 0) {
        std::fprintf(stderr, "--shards must be >= 1\n");
        return 2;
      }
      options.mms_shards = shards;
    } else if (arg == "--reshard") {
      reshard = true;
      options.mms_shards = 4;
      options.check_single_primary = true;
    } else if (arg == "--skewed-load") {
      options.skewed_load = true;
      options.mms_shards = 4;
      options.viewer_count = 16;
      options.check_single_primary = true;
    } else if (arg == "--no-shrink") {
      shrink = false;
    } else if (arg == "--single-primary") {
      options.check_single_primary = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--verbose") {
      SetMinLogLevel(LogLevel::kInfo);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  std::error_code mkdir_error;
  std::filesystem::create_directories(out_dir, mkdir_error);
  if (mkdir_error) {
    std::fprintf(stderr, "cannot create --out %s: %s\n", out_dir.c_str(),
                 mkdir_error.message().c_str());
    return 2;
  }

  std::vector<uint64_t> corpus;
  if (single_seed) {
    corpus.push_back(the_seed);
  } else {
    for (size_t i = 0; i < seeds; ++i) {
      corpus.push_back(seed_base + i);
    }
  }

  bench::ReportSection fingerprint(sweep);
  size_t failed = 0;
  for (uint64_t seed : corpus) {
    if (reshard) {
      // Alternate growth and shrink across the corpus so one sweep covers
      // both cutover directions (shrink also exercises binding retirement).
      options.reshard_to = seed % 2 == 0 ? 8 : 2;
    }
    chaos::FuzzResult result = chaos::RunSeed(seed, options);
    fingerprint.SetText(
        std::to_string(seed),
        StrFormat("%s faults=%zu msgs=%llu events=%llu binds=%llu",
                  result.passed ? "PASS" : "FAIL", result.faults_applied,
                  static_cast<unsigned long long>(result.messages),
                  static_cast<unsigned long long>(result.events),
                  static_cast<unsigned long long>(result.bind_attempts)));
    if (result.passed) {
      if (!quiet) {
        std::printf("seed %" PRIu64 ": PASS (%zu faults applied)\n", seed,
                    result.faults_applied);
      }
      continue;
    }
    ++failed;
    std::printf("seed %" PRIu64 ": FAIL (%s)\n", seed,
                result.first_violation.c_str());
    sim::ChaosPlan minimized = result.plan;
    size_t shrink_runs = 0;
    chaos::FuzzResult final_result = result;
    if (shrink) {
      chaos::ShrinkResult shrunk = chaos::Shrink(
          result, options, /*max_runs=*/64, [quiet](const std::string& line) {
            if (!quiet) {
              std::printf("  %s\n", line.c_str());
            }
          });
      minimized = shrunk.plan;
      shrink_runs = shrunk.runs;
      final_result = shrunk.result;
      std::printf("  minimized: %zu -> %zu faults in %zu replays\n",
                  result.plan.faults.size(), minimized.faults.size(),
                  shrink_runs);
    }
    DumpFailure(out_dir, final_result, minimized, shrink_runs);
  }

  std::printf("chaos_fuzz: %zu/%zu seeds passed\n", corpus.size() - failed,
              corpus.size());
  if (!fingerprint_path.empty() && !fingerprint.WriteMerged(fingerprint_path)) {
    return 2;
  }
  return failed == 0 ? 0 : 1;
}
