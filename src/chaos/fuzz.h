// The seed -> schedule -> invariant -> shrink pipeline: chaos fuzzing against
// a full simulated ITV deployment (paper start-up sequence, media services,
// VOD viewers), built on the sim::ChaosPlan / sim::InvariantMonitor substrate.
//
// One fuzz run is a pure function of (seed, options):
//
//   1. Boot a cluster with the paper's fail-over timings (NS audit 10 s, RAS
//      peer poll 5 s) plus media services and a population of VOD viewers.
//   2. Expand the seed into a fault schedule over the run's topology and arm
//      it (ChaosPlan::Generate + ChaosInjector).
//   3. While faults fly, sample continuous invariants; after HealAll() and
//      the paper's 25 s fail-over bound, evaluate the convergence invariants;
//      after the viewers stop, evaluate the teardown invariants.
//   4. On failure, greedily shrink the schedule: drop faults while the run
//      still violates the same invariant, until it is 1-minimal.
//
// Invariants checked (ISSUE 4):
//   binding-convergence   viewers re-bind and stream again within the bound,
//                         and a fresh client can resolve core services.
//   ras-reclamation       nothing a live RAS calls alive — and no NS binding —
//                         points at a dead process after an audit cycle.
//   ns-single-master      exactly one live NS replica claims mastership and
//                         every live replica agrees on master/epoch.
//                         (Continuously: two masters may coexist only in
//                         distinct epochs.)
//   reshard-convergence   (with reshard_to) the successor shard map is the
//                         one published, every shard primary resolves, each
//                         shard holds only settops it owns under the
//                         successor map, and every viewer settop is held by
//                         some shard — no session lost in the cutover, none
//                         stranded on (or double-adopted from) a source.
//   admission-sound       (with mms_shards > 1) no MMS shard ever GRANTED
//                         reservations past its admission pool
//                         (peak_granted_bps <= pool_bps — adopted fail-over
//                         sessions may exceed it, grants may not), and under
//                         a skewed workload no viewer is left shed with
//                         RESOURCE_EXHAUSTED at quiescence while a sibling
//                         shard holds stream-sized headroom.
//   no-leaks              event-queue size is stable at teardown and process
//                         accounting is consistent (no leaked timers or
//                         zombie processes).
//   teardown-clean        at every quiescent point no viewer settop holds two
//                         MMS sessions; once the viewers stop and a RAS audit
//                         cycle plus the trunk's grant audit window (35 s)
//                         pass, no MMS session, MDS stream, CMgr connection
//                         or trunk reservation is left. A violation lists
//                         each thing still held (an MDS stream by settop,
//                         title, played flag, replica and stream id).

#ifndef SRC_CHAOS_FUZZ_H_
#define SRC_CHAOS_FUZZ_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/time.h"
#include "src/sim/chaos.h"

namespace itv::svc {
class ClusterHarness;
}

namespace itv::chaos {

struct FuzzOptions {
  // Topology / workload.
  size_t server_count = 3;
  uint8_t neighborhood_count = 3;
  size_t viewer_count = 3;
  size_t movie_count = 8;

  // Shard the MMS (mms_shards > 1 also runs an mmsd replica on every server
  // so shard primaries can spread). With sharding on, the
  // svc-single-primary invariant checks exactly-one-primary-PER-SHARD — the
  // lifecycle paths are per-shard, and the monitor groups by full path.
  uint32_t mms_shards = 1;

  // Skewed-load admission stress (ROADMAP "Shard-aware admission"): place
  // ~80% of the viewers on settop hosts that hash to MMS shard 0, so the hot
  // shard's admission pool (auto-enabled when mms_shards > 1) runs dry while
  // its siblings idle. Viewers get a load-board path so a shed open retries
  // against the least-loaded sibling, the board service joins the kill list,
  // and quiescence additionally requires admission-sound (see below).
  bool skewed_load = false;

  // Live reshard (ROADMAP "Shard rebalancing"): when nonzero, a controller on
  // a node the schedule never targets publishes the successor MMS shard map
  // with this count at `reshard_at` into the horizon (zero means
  // mid-horizon). Scheduled faults then land before, during, and after the
  // cutover — including kills of the very primaries that are draining — and
  // quiescence additionally requires reshard-convergence (see above). The
  // controller itself is exempt from faults: resharding mid-storm is the
  // point, losing the operator's publish loop is not, and PublishShardMap
  // already retries through NS fail-overs on its own.
  uint32_t reshard_to = 0;
  Duration reshard_at = Duration::Seconds(0);

  // Schedule shape (feeds sim::ChaosSpec; hosts and victim names are filled
  // from the booted topology).
  size_t fault_count = 8;
  Duration horizon = Duration::Seconds(90);
  Duration min_outage = Duration::Seconds(5);
  Duration max_outage = Duration::Seconds(20);
  bool allow_node_crash = true;
  bool allow_partition = true;
  bool allow_bursts = true;

  // Run phases (virtual time).
  Duration settle = Duration::Seconds(12);   // After Boot().
  Duration warmup = Duration::Seconds(15);   // Viewers start streaming.
  Duration monitor_interval = Duration::Seconds(5);
  // Paper Section 9.7 worst case is 25 s (RAS poll + NS audit + bind retry);
  // convergence invariants are evaluated this long after HealAll().
  Duration rebind_bound = Duration::Seconds(25);
  Duration rebind_slack = Duration::Seconds(10);
  Duration drain = Duration::Seconds(20);    // After viewers Stop().

  // Keep the failing run's Chrome trace + metrics dump in the result
  // (artifacts are big; the driver enables this for dumps and replays).
  bool capture_artifacts = false;

  // Evaluate the generic per-service single-primary invariant over every
  // ServiceLifecycle the harness registered (svc-single-primary): at the
  // quiescent point each service with a live claimant has exactly one
  // primary. Subsumes nothing — ns-single-master checks the replication
  // protocol's own state; this checks the role machine every service runs.
  bool check_single_primary = false;

  // Test hook: extra quiescent invariants evaluated with the convergence
  // group. Used by the shrinker tests to plant a deliberate "bug" whose
  // trigger is a specific fault kind.
  std::vector<std::pair<std::string, std::function<Status(svc::ClusterHarness&)>>>
      extra_invariants;
};

struct FuzzResult {
  uint64_t seed = 0;
  sim::ChaosPlan plan;
  bool passed = false;
  // First violated invariant's name ("" when passed) — the shrinker's
  // reproduction criterion.
  std::string first_violation;
  std::vector<sim::InvariantMonitor::Violation> violations;
  std::string invariant_report;  // One violation per line.
  size_t faults_applied = 0;
  std::vector<std::string> fault_log;
  // Simulator-exact totals over the whole run (boot to teardown): messages
  // routed, scheduler events executed, and bind attempts made by every
  // replicated service's election. Deterministic per (seed, options), so a
  // change that moves one moved the run.
  uint64_t messages = 0;
  uint64_t events = 0;
  uint64_t bind_attempts = 0;
  // Filled when capture_artifacts (or on failure): Chrome trace JSON,
  // metrics dump, and a FailoverTimeline report for the first kill fault.
  std::string trace_json;
  std::string metrics_json;
  std::string timeline_report;
};

// Expands `seed` into a schedule over the deployment's topology and runs it.
FuzzResult RunSeed(uint64_t seed, const FuzzOptions& options);

// Replays an explicit schedule (the shrinker's building block). With the
// plan generated from `seed` over the same options this is byte-for-byte the
// same run as RunSeed(seed, options).
FuzzResult RunSchedule(uint64_t seed, const sim::ChaosPlan& plan,
                       const FuzzOptions& options);

struct ShrinkResult {
  sim::ChaosPlan plan;       // 1-minimal: dropping any single fault passes.
  FuzzResult result;         // The final failing run of the minimized plan.
  size_t runs = 0;           // Replays spent shrinking.
};

// Greedy delta-debugging: repeatedly drop chunks of faults (halves, then
// quarters, ... then singles) while the replay still violates
// `failing.first_violation`. Deterministic replays make this exact.
ShrinkResult Shrink(const FuzzResult& failing, const FuzzOptions& options,
                    size_t max_runs = 64,
                    const std::function<void(const std::string&)>& progress = {});

}  // namespace itv::chaos

#endif  // SRC_CHAOS_FUZZ_H_
