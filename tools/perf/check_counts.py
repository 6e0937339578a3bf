#!/usr/bin/env python3
"""Check the benchmark's exact-count pass against committed values.

    python3 tools/perf/check_counts.py      (from the root of a checkout)

Builds speed_perfbench through perfbench/run.py's build(), runs
`speed_perfbench --counts-only` for every workload BENCHMARK.json declares,
and compares each count.* value (ECALLs, OCALLs, round trips, wire bytes,
store GETs/PUTs, spills, fault-ins, chunks) with expected_counts.json next
to this script. The counts repeat exactly from run to run, so any
difference is a behaviour change: each one is printed and the exit code is
1. A change that moves a count on purpose updates expected_counts.json in
the same commit and explains the new value in CHANGES.md.
"""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED = HERE / "expected_counts.json"

sys.dont_write_bytecode = True  # leave perfbench/ as checked out
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402  (the benchmark's own build step)


def measured_counts(workload):
    out = subprocess.run(
        [str(run.BINARY), "--counts-only", "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"{workload}: speed_perfbench exited "
                           f"{out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])["counts"]


def main():
    expected = json.loads(EXPECTED.read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if not run.build():
        print("check_counts: perfbench build failed", file=sys.stderr)
        return 1

    checked = 0
    differing = 0
    for workload in workloads:
        want = expected.get(workload, {})
        got = measured_counts(workload)
        for name in sorted(set(want) | set(got)):
            checked += 1
            if want.get(name) != got.get(name):
                differing += 1
                print(f"{workload} {name}: expected {want.get(name)}, "
                      f"got {got.get(name)}")
    if differing:
        print(f"check_counts: {differing} of {checked} counts differ from "
              f"{EXPECTED.relative_to(ROOT)}")
        return 1
    print(f"check_counts: all {checked} counts match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
