#!/usr/bin/env python3
"""Smoke check of the benchmark at tiny problem sizes.

Usage (from the repository root):

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs perfbench/run.py untraced
and traced, and checks that the result line has exactly the expected
keys, reports no failure, and carries every end-to-end (untraced) or
per-layer (traced) metric of BENCHMARK.json with its unit. It then runs
a second seed and checks that the simulated digest changes with it.
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
           "--trace", str(trace), "--tiny", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("smoke: %s exited with %d" % (" ".join(cmd), proc.returncode))
    lines = proc.stdout.splitlines()
    digest = [l.split()[-1] for l in lines if l.startswith("digest ")]
    return json.loads(lines[-1]), digest[0] if digest else None


def check(ok, what):
    if not ok:
        sys.exit("smoke: FAILED " + what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]]:
        digest = None
        for trace, metrics in ((0, bench["end_to_end"]),
                               (1, bench["per_layer"])):
            result, digest_here = run(workload, 1, trace)
            where = "%s --trace %d" % (workload, trace)
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, where + ": result keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, where + ": no failures")
            expected = {m["name"]: m["unit"] for m in metrics}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected, where + ": metric names and units")
            check(all(isinstance(v["value"], (int, float))
                      for v in result["metrics"].values()),
                  where + ": numeric values")
            check(digest is None or digest == digest_here,
                  where + ": digest equal with tracing on and off")
            digest = digest_here
        _, other = run(workload, 2, 0)
        check(digest is not None and other != digest,
              workload + ": seed changes the digest")
        print("smoke: %s ok (digest %s, seed 2 gives %s)"
              % (workload, digest, other))
    print("smoke: all workloads ok")


if __name__ == "__main__":
    main()
