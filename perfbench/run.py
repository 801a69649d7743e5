#!/usr/bin/env python3
"""Build the benchmark binary from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload scaling --seed 1 --seconds 10 --trace 0

The binary and the simulator libraries are built with CMake into
.bench_build/perfbench on first use. The binary runs with every PROACT_*
variable removed from its environment. Its output is passed through; the
last line is one JSON object with the keys correct, attempted, failed and
metrics. With --trace 1 the Chrome trace the binary writes is checked
here as well: it must parse as JSON and hold exactly the spans the binary
recorded. A failed check counts as a failed operation.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        # Build output goes to stderr so stdout ends with the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def check_trace(path, expected_spans):
    """Return None if the Chrome trace is well-formed, else why not."""
    try:
        with open(path) as f:
            trace = json.load(f)
    except (OSError, ValueError) as e:
        return "trace unreadable: %s" % e
    events = trace.get("traceEvents") if isinstance(trace, dict) else None
    if not isinstance(events, list):
        return "trace has no traceEvents list"
    for i, ev in enumerate(events):
        args = ev.get("args", {})
        if (ev.get("ph") != "X" or not isinstance(ev.get("name"), str)
                or not isinstance(ev.get("ts"), (int, float))
                or not isinstance(ev.get("dur"), (int, float))
                or ev["dur"] < 0 or args.get("id") != i
                or not -1 <= args.get("parent", -2) < i):
            return "malformed trace event %d" % i
    if len(events) != expected_spans:
        return "trace holds %d spans, binary recorded %d" % (
            len(events), expected_spans)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--tiny", default="0", choices=["0", "1"],
                        help="tiny problem sizes (smoke check)")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    trace_path = os.path.join(BUILD, "trace-%s.json" % args.workload)
    if os.path.exists(trace_path):
        os.remove(trace_path)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PROACT_")}
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--tiny", args.tiny, "--trace-out", trace_path]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("binary exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("binary exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("binary printed no result line")
    for line in lines[:-1]:
        print(line)

    if args.trace == "1":
        spans = [int(l.split()[1]) for l in lines if l.startswith("trace_spans ")]
        why = check_trace(trace_path, spans[0] if spans else -1)
        result["attempted"] += 1
        if why is not None:
            print("error: " + why)
            result["failed"] += 1
            result["correct"] = False
        else:
            print("trace: %s is well-formed Chrome trace JSON" % trace_path)
    print("run.py: binary took %.2f s" % (time.monotonic() - start))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
