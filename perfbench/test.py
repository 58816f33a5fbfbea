#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test.py

Run from the root of a checkout (it builds through perfbench/run.py).
1. Every checker must reject a planted wrong answer (--selftest).
2. Every workload runs at smoke size, untraced and traced, with all its
   checks; it must report correct output, no failed unit, and exactly the
   metrics BENCHMARK.json names.
3. Two runs with the same seed must give identical per-layer counts and
   schedule fingerprints.
Exits 0 when all of that holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = [sys.executable, os.path.join(HERE, "run.py")]

# Per-layer metrics that are counts: they must repeat exactly for a seed.
COUNTS = ["sim.events", "sim.queue_high_water", "sim.event_heap_allocs",
          "net.messages_per_op", "net.payload_bytes_per_op",
          "core.retries_per_op", "iter.rounds_mean",
          "explore.events_per_schedule"]


def bench(*args):
    done = subprocess.run(RUN + list(args), capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise AssertionError("exit %d: %s" % (done.returncode,
                                              done.stderr[-2000:]))
    lines = done.stdout.strip().splitlines()
    fingerprint = [l for l in lines if l.startswith("fingerprint: ")]
    return json.loads(lines[-1]), fingerprint


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    done = subprocess.run(RUN + ["--selftest"], capture_output=True,
                          text=True, timeout=900)
    print(done.stdout, end="")
    if done.returncode != 0:
        failures.append("selftest: a checker accepted a planted wrong answer")

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            names = sorted(m["name"] for m in spec[group])
            runs = [bench("--workload", workload, "--seed", "5", "--seconds",
                          "1", "--trace", trace, "--smoke")
                    for _ in range(2)]
            for result, _ in runs:
                if not result["correct"] or result["failed"] != 0:
                    failures.append("%s trace %s: correct=%s failed=%d" % (
                        workload, trace, result["correct"], result["failed"]))
                if sorted(result["metrics"]) != names:
                    failures.append("%s trace %s: metrics %s" % (
                        workload, trace, sorted(result["metrics"])))
            (a, fa), (b, fb) = runs
            if fa != fb or not fa:
                failures.append("%s trace %s: fingerprints %s vs %s" % (
                    workload, trace, fa, fb))
            if trace == "1":
                for name in COUNTS:
                    va = a["metrics"][name]["value"]
                    vb = b["metrics"][name]["value"]
                    if va != vb:
                        failures.append("%s: %s %r vs %r" % (
                            workload, name, va, vb))
            print("%-16s trace %s: %d units, %s" % (
                workload, trace, a["attempted"],
                "ok" if not failures else "FAILED"))

    for f in failures:
        print("FAIL:", f)
    print("perfbench tests:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
