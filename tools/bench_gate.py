#!/usr/bin/env python3
"""Fails when a regenerated BENCH.json moves a simulator-exact number.

    python3 tools/bench_gate.py COMMITTED.json REGENERATED.json

The benches run on the deterministic simulator, so message counts, fail-over
times in simulated seconds, session counts and verdicts reproduce exactly on
any machine. Every key of every section in COMMITTED must therefore appear in
REGENERATED with the same value, and a gated section may not gain keys: a
change that moves a number commits the new file, and the diff shows it.

Not gated, only printed side by side:
  - wall-clock keys (`*_setup_s`, `*_cpu_us_*`);
  - sections that COMMITTED does not hold (the wall-clock microbenchmarks).

Exit status: 0 when every gated key matches, 1 when one differs, 2 on
unreadable input.
"""

import json
import sys


def is_wall_clock(key):
    return key.endswith("_setup_s") or "_cpu_us_" in key


def load(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        print("bench_gate: cannot read %s: %s" % (path, e), file=sys.stderr)
        sys.exit(2)
    if not isinstance(report, dict):
        print("bench_gate: %s is not a JSON object" % path, file=sys.stderr)
        sys.exit(2)
    return report


def main(argv):
    if len(argv) != 3:
        print("usage: bench_gate.py COMMITTED.json REGENERATED.json",
              file=sys.stderr)
        return 2
    committed, regenerated = load(argv[1]), load(argv[2])
    missing = object()

    def show(value):
        return "(absent)" if value is missing else json.dumps(value)

    diffs, gated = [], 0
    for section, old_keys in sorted(committed.items()):
        new_keys = regenerated.get(section, {})
        for key in sorted(set(old_keys) | set(new_keys)):
            old = old_keys.get(key, missing)
            new = new_keys.get(key, missing)
            name = "%s.%s" % (section, key)
            if is_wall_clock(key):
                print("wall-clock  %-50s %s -> %s" % (name, show(old), show(new)))
                continue
            gated += 1
            if old != new:
                diffs.append("%s: %s -> %s" % (name, show(old), show(new)))
    for section in sorted(set(regenerated) - set(committed)):
        print("not gated   %s (no committed baseline)" % section)
    if diffs:
        print("\nbench_gate: %d of %d sim-exact keys differ from the committed "
              "BENCH.json:" % (len(diffs), gated))
        for line in diffs:
            print("  " + line)
        print("Commit the regenerated BENCH.json if the change is intended.")
        return 1
    print("\nbench_gate: all %d sim-exact keys match the committed BENCH.json"
          % gated)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
