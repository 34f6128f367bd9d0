#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at reduced size, through the
same code as a real run.

    python3 perfbench/selftest.py

For each workload it checks that
- two traced runs of one seed are correct and report exactly the same counts;
- a hook whose function does not exist is reported absent, not as a failure;
- digests pinned from the traced run are met by an untraced run, and one
  corrupted digest is counted as exactly one failed operation.
Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import dataclasses
import sys

import run
import trace_launch

SEED = 9
MISSING_HOOK = ["revocation.no_such_function", "xsign.revocation", "no_such_function", ["calls"]]


def small(workload: run.Workload) -> run.Workload:
    return dataclasses.replace(workload, params={**workload.params, "n": 150}, corpora=2)


def counts(result: dict, workload: run.Workload) -> dict:
    """Count metrics; for cryptographic corpora without the lint verdicts,
    which depend on fingerprint order (see run.output_summary)."""
    skip = {"xsext.verdicts"} if workload.mode == "cryptographic" else set()
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] == "count" and k not in skip}


def check_workload(workload: run.Workload) -> list:
    problems = []

    def expect(ok: bool, what: str):
        if not ok:
            problems.append(f"{workload.name}: {what}")

    hooks = [*trace_launch.HOOKS, MISSING_HOOK]
    first, r1 = run.run_benchmark(workload, SEED, 0, True, {}, hooks)
    _, r2 = run.run_benchmark(workload, SEED, 0, True, {}, hooks)
    expect(r1["correct"] and r2["correct"], f"traced runs failed: {first['failures']}")
    expect(bool(counts(r1, workload)) and counts(r1, workload) == counts(r2, workload),
           "counts differ between two runs")
    expect(first["absent"] == [MISSING_HOOK[0]], f"absent hooks: {first['absent']}")
    expect(not any(k.startswith(MISSING_HOOK[0]) for k in r1["metrics"]),
           "a metric of the missing hook was reported")
    expect({f"{h[0]}_s" for h in trace_launch.HOOKS} <= r1["metrics"].keys(),
           "a hooked function has no per-layer row")

    pinned = {workload.name: {str(SEED): [
        {"inputs": i, "outputs": o} for i, o in zip(first["inputs"], first["outputs"])]}}
    details, result = run.run_benchmark(workload, SEED, 0, False, pinned)
    expect(result["correct"] and details["pinned"],
           f"pinned run failed: {details['failures']}")

    corrupted = copy.deepcopy(pinned)
    outputs = corrupted[workload.name][str(SEED)][0]["outputs"]
    key = sorted(outputs)[0]
    outputs[key] = "corrupted"
    details, result = run.run_benchmark(workload, SEED, 0, False, corrupted)
    expect(result["failed"] == 1 and not result["correct"] and details["fail_ratio"] > 0,
           f"corrupted digest of {key} not counted once: {details['failures']}")
    return problems


def main() -> int:
    problems = []
    for workload in run.WORKLOADS.values():
        found = check_workload(small(workload))
        print(f"{workload.name}: {'ok' if not found else 'FAILED'}", flush=True)
        problems.extend(found)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
