#!/usr/bin/env python3
"""Gate perfbench runs against the committed deterministic results.

Each argument after the expected file is the full stdout of one

    python3 perfbench/run.py --workload <w> --seed 0 --seconds 1 --trace <t>

run. The workload comes from the run's "# host:" line and the metrics
from its last line (the result JSON). A run passes when:

  * it reports "correct": true and "failed": 0;
  * every deterministic metric it prints equals the expected file's
    value for that workload exactly: the grid is a pure function of its
    seeds, so these repeat bit for bit on any host;
  * on recovery_grid, obs.capture_share (journaling armed over disarmed
    trial time) is at most 1.5. It swings between about 0.9 and 1.3 on
    one host, so the bound catches a real regression, not noise.

bench.trace_overhead is printed for the record and not gated: it is a
same-run timing ratio that moves by +-15% between runs. No wall time is
gated. Every deterministic metric of the expected file must be checked
by some run, so the full set is six runs: three workloads, --trace 0
and 1. After an intended change to a deterministic metric, copy the
values this script prints on failure into bench/PERFBENCH_expected.json,
with the host line of the run they came from.

Usage: check_perfbench.py <expected.json> <run.txt>...
Exits 0 on success, 1 with a diagnostic per failure.
"""

import json
import re
import sys

DETERMINISTIC = {
    "accepted_share", "qos_error", "energy_factor", "effective_energy",
    "exec.lowerings", "exec.distinct_binaries", "analysis.opt_rewrites",
    "exec.ops_per_trial", "runtime.ops_per_trial", "obs.journals",
    "obs.journal_bytes",
}
DETERMINISTIC_PREFIXES = ("runtime.op_count.", "resilience.", "env.")
CAPTURE_SHARE_MAX = 1.5


def deterministic(name):
    return name in DETERMINISTIC or name.startswith(DETERMINISTIC_PREFIXES)


def read_run(path):
    """Returns (workload, result) of one saved perfbench stdout."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    hosts = [line for line in lines if line.startswith("# host:")]
    if not hosts:
        raise ValueError("no '# host:' line")
    workload = re.search(r"\bworkload=(\S+)", hosts[-1])
    if not workload:
        raise ValueError(f"host line names no workload: {hosts[-1]}")
    return workload.group(1), json.loads(lines[-1])


def main():
    if len(sys.argv) < 3:
        print("usage: check_perfbench.py <expected.json> <run.txt>...",
              file=sys.stderr)
        return 1
    with open(sys.argv[1]) as handle:
        expected = json.load(handle)["workloads"]

    failures = []
    checked = set()
    for path in sys.argv[2:]:
        try:
            workload, result = read_run(path)
        except (OSError, ValueError) as err:
            failures.append(f"{path}: {err}")
            continue
        if workload not in expected:
            failures.append(f"{path}: no expected results for {workload}")
            continue
        if result.get("correct") is not True or result.get("failed") != 0:
            failures.append(f"{workload}: correct={result.get('correct')} "
                            f"failed={result.get('failed')}")
        want = expected[workload]["metrics"]
        metrics = result.get("metrics", {})
        for name, metric in sorted(metrics.items()):
            value = metric["value"]
            if deterministic(name):
                checked.add((workload, name))
                if name not in want:
                    failures.append(f"{workload}: {name} = {value!r} has "
                                    f"no expected value")
                elif value != want[name]:
                    failures.append(f"{workload}: {name} = {value!r}, "
                                    f"expected {want[name]!r}")
        if workload == "recovery_grid" and "obs.capture_share" in metrics:
            share = metrics["obs.capture_share"]["value"]
            print(f"{workload}: obs.capture_share {share:.3f} "
                  f"(gate <= {CAPTURE_SHARE_MAX})")
            if share > CAPTURE_SHARE_MAX:
                failures.append(f"{workload}: obs.capture_share {share:.3f} "
                                f"> {CAPTURE_SHARE_MAX}")
        if "bench.trace_overhead" in metrics:
            print(f"{workload}: bench.trace_overhead "
                  f"{metrics['bench.trace_overhead']['value']:.3f} "
                  f"(reported, not gated)")

    for workload, entry in sorted(expected.items()):
        for name in sorted(entry["metrics"]):
            if (workload, name) not in checked:
                failures.append(f"{workload}: {name} was in no run")

    for failure in failures:
        print(f"check_perfbench: FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"check_perfbench: OK ({len(checked)} deterministic metrics "
          f"over {len(sys.argv) - 2} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
