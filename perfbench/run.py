#!/usr/bin/env python3
"""Run one benchmark workload from a source checkout of the repository.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the program and the benchmark with dune, times a fixed
host-speed probe, runs the workload in its own process and prints,
as the last line of standard output, one JSON object with the keys
"correct", "attempted", "failed" and "metrics".  The line before it
records the workload, the seed and the host probe.  See README.md.
"""

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = ".perfbench-work"
EXE = "_build/default/perfbench/bench.exe"
CTAMAP = "_build/default/bin/ctamap.exe"
WORKLOADS = ["map-combined", "compare-schemes", "simtrace-replay", "serve-mix"]
RUN_LIMIT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000


def fail(msg, code=1):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(code)


def build():
    """Build the benchmark and ctamap from the checkout's sources."""
    missing = [p for p in ("dune-project", "lib", "bin")
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("not a source checkout of the repository (no %s)"
             % ", ".join(missing), code=2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled",
             "./perfbench/bench.exe", "./bin/ctamap.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        fail("build failed")


def host_probe():
    """Seconds for a fixed loop that uses none of the repository's
    code: a yardstick for how fast the host is running right now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t0


def fixed_layout():
    """Turns address-space randomisation off for the process about to
    be executed (what `setarch -R` does).  Some compile paths allocate
    a slightly different number of words under different layouts; with
    one layout, allocation counts repeat exactly from run to run."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def run_workload(args, extra=(), limit=RUN_LIMIT_S):
    """Runs the workload process; returns its stdout lines."""
    os.makedirs(os.path.join(ROOT, WORK), exist_ok=True)
    cmd = [os.path.join(".", EXE), args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--expected", "perfbench/expected.json",
           "--work", WORK, "--ctamap", os.path.join(".", CTAMAP)]
    cmd += list(extra)
    # Its own process group, so a timeout also stops the daemon it
    # starts.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, preexec_fn=fixed_layout)
    try:
        out, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s did not finish within %d s" % (args.workload, limit))
    if proc.returncode != 0:
        fail("%s exited with code %d" % (args.workload, proc.returncode))
    return out.decode().strip().splitlines()


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            b = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in b["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", code=2)
    build()
    start = time.time()
    probe_start = host_probe()
    lines = run_workload(args, limit=RUN_LIMIT_S - 5)
    probe_end = host_probe()
    if len(lines) < 2:
        fail("%s printed no result" % args.workload)
    info = json.loads(lines[-2])
    result = json.loads(lines[-1])
    info["host_probe_s"] = {"start": probe_start, "end": probe_end}
    info["run_s"] = time.time() - start
    if args.trace:
        result["metrics"]["host.probe_s"] = {
            "value": (probe_start + probe_end) / 2, "unit": "s"}
    declared = declared_metrics(args.trace)
    if declared is not None and declared != set(result["metrics"]):
        result["correct"] = False
        sys.stderr.write("perfbench: metrics differ from BENCHMARK.json: %s\n"
                         % sorted(declared ^ set(result["metrics"])))
    print(json.dumps(info))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
