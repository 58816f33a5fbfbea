#!/usr/bin/env python3
"""Builds pqra_perfbench from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR, or
.bench_build when that is unset; build output goes to standard error, so
the last line of standard output is the benchmark's JSON result.  A traced
run also writes its spans to <build dir>/spans-<workload>-<seed>.jsonl.
Any other arguments (--smoke, --jobs N, --keys N, --selftest) pass through
to the binary; see perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures once, then builds incrementally; returns the binary path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "pqra_perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=840)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "pqra_perfbench")


def flag(args, name):
    """The value after `name` in args, or None."""
    return args[args.index(name) + 1] if name in args[:-1] else None


def main(argv):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    binary = build(build_dir)
    args = list(argv)
    if flag(args, "--trace") == "1":
        spans = "spans-%s-%s.jsonl" % (flag(args, "--workload"),
                                       flag(args, "--seed"))
        args += ["--spans-out", os.path.join(build_dir, spans)]
    sys.stdout.flush()
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main(sys.argv[1:])
