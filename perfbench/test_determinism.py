#!/usr/bin/env python3
"""The benchmark's own determinism test.

    python3 perfbench/test_determinism.py [--seed N]

For each batch workload, runs the traced workload twice and the
untraced workload once, each for one pass, and checks that
- the two traced runs count exactly the same work per layer (groups,
  edges, rounds, pieces, accesses, cycles, records) and allocate
  exactly the same minor words per layer;
- the traced runs' outputs (per kernel and scheme: groups, rounds,
  edges, accesses, cycles, memory accesses; per replay: the engine's
  statistics) equal the untraced run's.
serve-mix times a live daemon, so it is only checked to run correctly
both ways.  Exits non-zero on any difference.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BATCH = ["map-combined", "compare-schemes", "simtrace-replay"]
# Per-layer metrics that count work or allocation: these must repeat
# exactly.  Times and ratios of times are left out.
EXACT = (".groups", ".edges", ".groups_merged", ".pieces", ".rounds",
         ".accesses", ".cycles", ".mem_accesses", ".records",
         ".minor_words", ".minor_words_per_record")


def one(workload, seed, trace, counts_path):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=1,
                              trace=trace)
    lines = run.run_workload(args, extra=["--counts", counts_path])
    result = json.loads(lines[-1])
    with open(counts_path) as f:
        counts = json.load(f)
    return result, counts


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=7)
    seed = p.parse_args().seed
    run.build()
    problems = []
    work = os.path.join(run.ROOT, run.WORK)
    os.makedirs(work, exist_ok=True)
    for w in BATCH + ["serve-mix"]:
        path = lambda tag: os.path.join(work, "counts-%s-%s.json" % (w, tag))
        runs = {tag: one(w, seed, trace, path(tag))
                for tag, trace in (("traced1", 1), ("traced2", 1),
                                   ("untraced", 0))}
        for tag, (result, _) in runs.items():
            if not result["correct"] or result["failed"]:
                problems.append("%s %s: not correct (%d of %d failed)"
                                % (w, tag, result["failed"],
                                   result["attempted"]))
        if w not in BATCH:
            continue
        l1 = runs["traced1"][1]["layers"]
        l2 = runs["traced2"][1]["layers"]
        for name in sorted(l1):
            if name.endswith(EXACT) and l1[name] != l2[name]:
                problems.append("%s: %s differs between traced runs: %s vs %s"
                                % (w, name, l1[name], l2[name]))
        traced = runs["traced1"][1]["outputs"]
        untraced = runs["untraced"][1]["outputs"]
        if traced != untraced:
            problems.append("%s: traced outputs differ from untraced ones"
                            % w)
        print("%s: %d exact per-layer counts, %d outputs compared"
              % (w, sum(1 for n in l1 if n.endswith(EXACT)), len(traced)))
    for msg in problems:
        print("FAIL", msg)
    if problems:
        sys.exit(1)
    print("ok")


if __name__ == "__main__":
    main()
