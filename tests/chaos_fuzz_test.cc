// The chaos-fuzz pipeline's own guarantees (ISSUE 4): schedule generation is
// a pure function of the seed, a failing seed replays byte-for-byte from the
// seed alone, a pinned corpus of seeds passes every cluster invariant, and
// the shrinker reduces a deliberately planted bug to a minimal schedule.

#include <gtest/gtest.h>

#include <string>

#include "src/chaos/fuzz.h"
#include "src/common/status.h"
#include "src/sim/chaos.h"
#include "src/svc/harness.h"

namespace itv::chaos {
namespace {

sim::ChaosSpec SmallSpec() {
  sim::ChaosSpec spec;
  spec.horizon = Duration::Seconds(60);
  spec.fault_count = 12;
  spec.server_hosts = {1, 2, 3};
  spec.settop_hosts = {1001, 1002};
  spec.kill_names = {"mmsd", "mdsd", "nsd"};
  return spec;
}

// Fast fuzz configuration: same topology and invariants as the tools/
// chaos_fuzz driver, shorter horizon and fewer viewers so a handful of full
// runs fit in a unit test.
FuzzOptions SmallOptions() {
  FuzzOptions options;
  options.viewer_count = 2;
  options.fault_count = 5;
  options.horizon = Duration::Seconds(45);
  options.max_outage = Duration::Seconds(15);
  return options;
}

TEST(ChaosPlanTest, SameSeedSameSpecSameSchedule) {
  sim::ChaosSpec spec = SmallSpec();
  sim::ChaosPlan a = sim::ChaosPlan::Generate(42, spec);
  sim::ChaosPlan b = sim::ChaosPlan::Generate(42, spec);
  ASSERT_EQ(a.faults.size(), spec.fault_count);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.ToJson(), b.ToJson());
}

TEST(ChaosPlanTest, DifferentSeedsDiverge) {
  sim::ChaosSpec spec = SmallSpec();
  sim::ChaosPlan a = sim::ChaosPlan::Generate(1, spec);
  sim::ChaosPlan b = sim::ChaosPlan::Generate(2, spec);
  EXPECT_NE(a.faults, b.faults);
}

TEST(ChaosPlanTest, SchedulesAreTimeSortedAndWithinHorizon) {
  sim::ChaosSpec spec = SmallSpec();
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    sim::ChaosPlan plan = sim::ChaosPlan::Generate(seed, spec);
    for (size_t i = 0; i < plan.faults.size(); ++i) {
      EXPECT_LE(plan.faults[i].at, spec.horizon) << "seed " << seed;
      if (i > 0) {
        EXPECT_GE(plan.faults[i].at, plan.faults[i - 1].at) << "seed " << seed;
      }
    }
  }
}

TEST(ChaosFuzzTest, PinnedCorpusPassesAllInvariants) {
  // These seeds are part of the CI pinned corpus: a regression in fail-over,
  // auditing, or resource reclamation shows up here as a named invariant
  // violation with the offending fault schedule attached.
  FuzzOptions options = SmallOptions();
  for (uint64_t seed : {1u, 2u, 3u}) {
    FuzzResult result = RunSeed(seed, options);
    EXPECT_TRUE(result.passed)
        << "seed " << seed << " violated " << result.first_violation << "\n"
        << result.invariant_report << "\nschedule:\n"
        << result.plan.ToString();
  }
}

TEST(ChaosFuzzTest, ShardedDeploymentSurvivesMixedShardFaults) {
  // Sharded MMS with the exactly-one-primary-PER-SHARD invariant
  // armed (the lifecycle paths are per-shard, so check_single_primary groups
  // by shard for free). The pinned schedule aims a kill and a partition at
  // two different hosts; with shard primaries staggered one per host, that
  // is two different shards failing in two different ways in one run. At
  // quiescence every shard must have exactly one primary and every viewer
  // must be streaming again.
  FuzzOptions options = SmallOptions();
  options.mms_shards = 2;
  options.check_single_primary = true;

  sim::ChaosPlan plan;
  plan.seed = 77;
  sim::Fault kill;
  kill.at = Duration::Seconds(5);
  kill.kind = sim::FaultKind::kKillProcess;
  kill.host_a = 1;
  kill.process = "mmsd";
  plan.faults.push_back(kill);
  sim::Fault partition;
  partition.at = Duration::Seconds(12);
  partition.kind = sim::FaultKind::kPartition;
  partition.host_a = 2;
  partition.host_b = 3;
  partition.duration = Duration::Seconds(10);
  plan.faults.push_back(partition);

  FuzzResult result = RunSchedule(plan.seed, plan, options);
  EXPECT_TRUE(result.passed)
      << "violated " << result.first_violation << "\n"
      << result.invariant_report << "\nschedule:\n"
      << result.plan.ToString();
}

TEST(ChaosFuzzTest, ReshardPinnedCorpusConvergesBothDirections) {
  // Live reshard mid-storm (ROADMAP "Shard rebalancing"): 4 MMS shards at
  // boot, a successor map published mid-horizon while the seeded faults fly.
  // The even seed grows 4 -> 8, the odd seed shrinks 4 -> 2 — mirroring the
  // tools/chaos_fuzz --reshard sweep; the shrink direction additionally
  // exercises retired-shard binding purges and session handoff into fewer
  // primaries. Each run must end with the successor map published, every
  // viewer streaming, exactly one primary per surviving shard, and every
  // session in exactly one shard table (reshard-convergence).
  FuzzOptions options = SmallOptions();
  options.mms_shards = 4;
  options.check_single_primary = true;
  for (uint64_t seed : {2u, 3u}) {
    options.reshard_to = seed % 2 == 0 ? 8 : 2;
    FuzzResult result = RunSeed(seed, options);
    EXPECT_TRUE(result.passed)
        << "seed " << seed << " (reshard 4 -> " << options.reshard_to
        << ") violated " << result.first_violation << "\n"
        << result.invariant_report << "\nschedule:\n"
        << result.plan.ToString();
  }
}

TEST(ChaosFuzzTest, ReshardNodeCrashDuringCutoverConverges) {
  // Shrunk from the --reshard sweep (seed 3): a whole-node crash seconds
  // after the 4 -> 2 shrink map is published, taking out a server that
  // hosts shard primaries, an MDS, a neighborhood cmgr, and a trunk at the
  // exact moment sessions are moving. The node restores 7 s later; the
  // cluster must still converge to the successor map with every viewer
  // streaming and every session owned by the right shard.
  FuzzOptions options;  // Tool defaults: 3 servers, 3 viewers, 90 s horizon.
  options.mms_shards = 4;
  options.reshard_to = 2;
  options.check_single_primary = true;

  sim::ChaosPlan plan;
  plan.seed = 3;
  sim::Fault crash;
  crash.at = Duration::Millis(51589);
  crash.kind = sim::FaultKind::kCrashNode;
  crash.host_a = 167772417;  // Server 1 (10.0.1.1).
  crash.duration = Duration::Millis(7035);
  plan.faults.push_back(crash);

  FuzzResult result = RunSchedule(plan.seed, plan, options);
  EXPECT_TRUE(result.passed)
      << "violated " << result.first_violation << "\n"
      << result.invariant_report;
}

TEST(ChaosFuzzTest, ReshardKillDuringCutoverReplaysDeterministically) {
  // Kill-during-cutover, pinned: an mmsd dies one second after the 4 -> 2
  // shrink map is published — mid-drain, while its shards are handing
  // sessions off. The run must still converge, and replaying the same
  // pinned schedule must reproduce it byte-for-byte: the shrinker's working
  // assumption (deterministic replays) has to hold under resharding too,
  // or a minimized reshard failure would not be a complete bug report.
  FuzzOptions options = SmallOptions();
  options.mms_shards = 4;
  options.reshard_to = 2;
  options.reshard_at = Duration::Seconds(20);
  options.check_single_primary = true;

  sim::ChaosPlan plan;
  plan.seed = 909;
  sim::Fault kill;
  kill.at = Duration::Seconds(21);
  kill.kind = sim::FaultKind::kKillProcess;
  kill.host_a = 1;
  kill.process = "mmsd";
  plan.faults.push_back(kill);

  FuzzResult direct = RunSchedule(plan.seed, plan, options);
  EXPECT_TRUE(direct.passed)
      << "violated " << direct.first_violation << "\n"
      << direct.invariant_report;
  FuzzResult replay = RunSchedule(plan.seed, plan, options);
  EXPECT_EQ(direct.passed, replay.passed);
  EXPECT_EQ(direct.first_violation, replay.first_violation);
  EXPECT_EQ(direct.faults_applied, replay.faults_applied);
  EXPECT_EQ(direct.fault_log, replay.fault_log);
}

TEST(ChaosFuzzTest, SeedReplayIsByteForByteIdentical) {
  FuzzOptions options = SmallOptions();
  FuzzResult direct = RunSeed(5, options);
  // Replaying the expanded schedule under the same seed must reproduce the
  // run exactly — this is what makes a dumped seed a complete bug report.
  FuzzResult replay = RunSchedule(5, direct.plan, options);
  EXPECT_EQ(direct.passed, replay.passed);
  EXPECT_EQ(direct.first_violation, replay.first_violation);
  EXPECT_EQ(direct.faults_applied, replay.faults_applied);
  EXPECT_EQ(direct.fault_log, replay.fault_log);
}

TEST(ChaosFuzzTest, ShrinkerMinimizesPlantedBug) {
  // Reintroduce a "bug" whose trigger is any process kill: an extra
  // invariant that fails whenever the schedule applied one. The fuzzer must
  // catch it and the shrinker must strip every fault that is not a kill.
  FuzzOptions options = SmallOptions();
  options.extra_invariants.emplace_back(
      "planted-kill-bug", [](svc::ClusterHarness& harness) -> Status {
        if (harness.metrics().Get("chaos.fault.kill") >= 1) {
          return InternalError("planted bug triggered by a process kill");
        }
        return OkStatus();
      });

  // Find a seed whose schedule contains at least two kills plus other fault
  // kinds, so the shrinker has real work to do.
  FuzzResult failing;
  bool found = false;
  for (uint64_t seed = 11; seed <= 30 && !found; ++seed) {
    FuzzResult r = RunSeed(seed, options);
    if (!r.passed && r.first_violation == "planted-kill-bug" &&
        r.plan.faults.size() >= 3) {
      failing = std::move(r);
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no seed in [11,30] tripped the planted bug";

  ShrinkResult shrunk = Shrink(failing, options, /*max_runs=*/32);
  EXPECT_GT(shrunk.runs, 0u);
  EXPECT_LT(shrunk.plan.faults.size(), failing.plan.faults.size());
  // The bug fires on a single kill, so the 1-minimal schedule is one fault.
  ASSERT_EQ(shrunk.plan.faults.size(), 1u);
  EXPECT_EQ(shrunk.plan.faults[0].kind, sim::FaultKind::kKillProcess);
  EXPECT_FALSE(shrunk.result.passed);
  EXPECT_EQ(shrunk.result.first_violation, "planted-kill-bug");
}

}  // namespace
}  // namespace itv::chaos
