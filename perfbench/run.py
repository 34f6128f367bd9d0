#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the xsign command-line tool.

    python3 perfbench/run.py --workload web-10k [--seed 9] [--seconds 40] [--trace 0|1]
    python3 perfbench/run.py --workload web-10k --seed 9 --record

Run from the root of a source checkout; nothing needs to be installed, the
commands import ``xsign`` from ``src/``. Load is a closed loop with one
client: each command is a fresh interpreter started after the previous one
exited. One run is:

1. set-up: ``xsign scenario`` generates and writes one bundle per corpus of
   the workload, from seeds derived from ``--seed`` (``setup_s`` is the
   median over the corpora);
2. passes until ``--seconds`` have gone by, at least one. A pass takes every
   corpus through a fresh workspace: ``ingest``, ``analyze`` (cold),
   ``analyze`` (cached), ``lint`` and ``report --kind assessments --format
   csv``. A step's time is summed over the corpora; each end-to-end metric
   is the median over the passes of the run;
3. output checks. Every command must exit 0 and the second ``analyze`` must
   report ``"cached": true``. The reports must agree with each other, must
   be the same in every pass and, for a (workload, seed) pinned in
   ``expected.json``, must match the recorded digests (a fingerprint-free
   summary for ``crypto-2k``, whose keys and signatures are fresh on every
   generation). The bundle itself is pinned the same way, so a change to the
   generator shows up as "inputs changed", not as a speed-up.

With ``--trace 1`` the run makes one untraced and one traced pass. The traced
pass starts every command through ``trace_launch.py``, which records spans
around the public functions of each ``xsign`` module, and prints the
per-layer metrics instead of the end-to-end ones.

The last line of standard output is the result object; the line before it
holds the details (samples, filesystem type, failures, absent hooks).
``--record`` runs one pass and pins its digests for (workload, seed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import trace_launch

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = BENCH_DIR / "expected.json"

IMPORT_REPEATS = 3
RUN_BUDGET_S = 170.0    # commands of one run; the run must end within 180 s
# The cached analyze and the report are short, so each is run several times
# per corpus and its median counted.
REPEATS = {"analyze_cached": 3, "report": 3}
REPORT_FILES = ("groups.jsonl", "reissuance.jsonl", "assessments.jsonl",
                "findings.jsonl", "lint.jsonl")
CSV_REPORT = "assessments.csv"
# ingest_s is measured and printed with the details, but it is no end-to-end
# metric: creating one file per certificate costs 3x more system time while
# the filesystem still processes files deleted in the last minute (ext4 with
# online discard), so on a shared disk it measures the disk's history. For
# the same reason each workspace is deleted as soon as its corpus is checked:
# files younger than the kernel's writeback delay never reach the disk, so
# deleting them leaves nothing to discard.
END_TO_END = ("setup_s", "analyze_cold_s", "analyze_cached_s", "lint_s",
              "report_s", "pipeline_s", "peak_rss_mb")
STEPS = ("ingest", "analyze_cold", "analyze_cached", "lint", "report")
PIPELINE = ("analyze_cold", "lint", "report")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict                # parameters of the `random` scenario
    corpora: int = 1            # independent bundles per pass, see corpus_seed
    mode: str = "structural"    # generation mode; cryptographic is ingested as PEM
    flags: tuple = ()           # analysis flags for analyze, lint and report


# Each workload loads a different layer; see README.md for which metric
# each one is meant to move and which it must leave alone.
WORKLOADS = {w.name: w for w in (
    Workload("web-10k",
             "reference shape, 5 corpora x 2,000 certs, 10% cross-signed, 5% revoked: every layer does a share",
             {"n": 2000, "xs_rate": 0.1, "revocation_rate": 0.05}, corpora=5),
    Workload("crypto-2k",
             "6 corpora x 350 real X.509 certs, PEM, cryptographic mode: DER parsing and signature checks dominate",
             {"n": 350, "xs_rate": 0.1, "revocation_rate": 0.05}, corpora=6,
             mode="cryptographic", flags=("--mode", "cryptographic")),
)}


def corpus_seed(seed: int, index: int) -> int:
    """Scenario seed of corpus `index` of a run with `seed`."""
    return 1000 * seed + index


@dataclass
class Outcome:
    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list, out: Path, err: Path, deadline: float) -> tuple:
    """Run one command to completion with its output in files, never in a
    pipe: `lint` prints thousands of lines and would block on a full pipe.
    Returns (exit code, wall seconds, peak RSS in MB)."""
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, child_env(), file_actions=[
            (os.POSIX_SPAWN_DUP2, fo.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, fe.fileno(), 2)])
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [],
                                        max(0.0, deadline - time.monotonic()))
            if not ready:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            os.close(pidfd)
        elapsed = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    return (code if ready else -signal.SIGKILL), elapsed, usage.ru_maxrss / 1024


def cli(*args) -> list:
    """The `xsign` console script, started from the source tree."""
    return [sys.executable, "-c",
            "import sys; from xsign.cli import main; sys.exit(main())", *args]


def traced(spans: Path, hooks: list, *args) -> list:
    return [sys.executable, str(BENCH_DIR / "trace_launch.py"), str(spans),
            json.dumps(hooks), *args]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def input_digest(workload: Workload, bundle: Path) -> str:
    """Structural bundles are byte-reproducible. Cryptographic ones get
    fresh keys on every generation, so only their fingerprint-free fields
    are pinned."""
    if workload.mode == "structural":
        digest = hashlib.sha256()
        for path in sorted(bundle.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        return digest.hexdigest()
    rows = sorted(json.dumps([r["subject"], r["issuer"], r["serial"],
                              r["not_before"], r["not_after"], r["is_ca"]])
                  for r in map(json.loads, (bundle / "certs.jsonl").open()))
    return sha256("\n".join(rows).encode())


def read_jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def output_summary(workload: Workload, ws: Path, csv: Path) -> dict:
    """What the pinned check compares: digests of every report or, for
    cryptographic bundles, counts that do not depend on fingerprints."""
    reports = ws / "reports"
    if workload.mode == "structural":
        out = {name: sha256((reports / name).read_bytes()) for name in REPORT_FILES}
        out[CSV_REPORT] = sha256(csv.read_bytes())
        return out
    intervals = Counter()
    for row in read_jsonl(reports / "assessments.jsonl"):
        for store, items in row["stores"].items():
            intervals[f"{row['view']}/{store}"] += len(items)
    return {
        "groups": len(read_jsonl(reports / "groups.jsonl")),
        "reissuance": len(read_jsonl(reports / "reissuance.jsonl")),
        "findings": dict(Counter(f["category"] for f in read_jsonl(reports / "findings.jsonl"))),
        # V2 exempts the earliest member of a group; members issued the same
        # day are ordered by fingerprint, so its count changes with the keys.
        "verdicts": dict(Counter(v["verdict"] for v in read_jsonl(reports / "lint.jsonl")
                                 if not v["verdict"].startswith("V2_"))),
        "intervals": dict(intervals),
    }


def check_consistency(bundle: Path, d: Path, outcome: Outcome):
    """Checks that hold for every seed: the reports agree with the command
    summaries and with each other."""
    reports = d / "ws" / "reports"
    ingest = json.loads((d / "ingest.out").read_text())
    cold = json.loads((d / "analyze_cold.out").read_text())
    cached = [json.loads(p.read_text()) for p in d.glob("analyze_cached*.out")]
    certs = sum(1 for _ in (bundle / "certs.jsonl").open())
    outcome.check(ingest["added"] == certs, "ingest: added != certs in bundle")
    outcome.check(cold["cached"] is False
                  and cold["findings"] == len(read_jsonl(reports / "findings.jsonl"))
                  and cold["xs_groups"] == len(read_jsonl(reports / "groups.jsonl")),
                  "analyze: summary disagrees with reports")
    outcome.check(bool(cached) and all(c["cached"] is True for c in cached),
                  "analyze: second run not cached")
    assessments = read_jsonl(reports / "assessments.jsonl")
    views = len(json.loads((bundle / "views.json").read_text())["views"])
    outcome.check(len(assessments) == certs * views,
                  "analyze: assessments != certs x views")
    outcome.check((d / "lint.out").read_bytes() == (reports / "lint.jsonl").read_bytes(),
                  "lint: printed verdicts != lint.jsonl")
    rows = sum(len(items) for a in assessments for items in a["stores"].values())
    csv_lines = (d / CSV_REPORT).read_text().splitlines()
    outcome.check(csv_lines[:1] == ["fingerprint,view,store,from,to,paths"]
                  and len(csv_lines) == rows + 1,
                  "report: csv rows != assessment intervals")


class Run:
    def __init__(self, workload: Workload, seed: int, seconds: float,
                 expected: dict, hooks: list = trace_launch.HOOKS):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.pinned = expected.get(workload.name, {}).get(str(seed))
        self.hooks = hooks
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.dir = WORK / workload.name
        self.outcome = Outcome()
        self.samples = {name: [] for name in ("ingest_s", *END_TO_END)}
        self.summaries: list = []       # per pass, one summary per corpus
        self.inputs: list = []          # input digest per corpus
        self.absent: set = set()
        self.workspace = Counter()      # files and report bytes of traced passes

    def cmd(self, argv: list, d: Path, step: str) -> tuple:
        code, wall, rss = spawn(argv, d / f"{step}.out", d / f"{step}.err",
                                self.deadline)
        tail = "" if code == 0 else (d / f"{step}.err").read_text(errors="replace")[-300:]
        return self.outcome.check(code == 0, f"{step}: exit {code}: {tail}"), wall, rss

    def setup(self) -> list:
        """Generate and write one bundle per corpus; each generation is one
        set-up sample."""
        shutil.rmtree(self.dir, ignore_errors=True)  # left by an interrupted run
        self.dir.mkdir(parents=True)
        spawn(cli("--help"), self.dir / "warm.out", self.dir / "warm.err",
              self.deadline)  # compiles bytecode outside the timed region
        w = self.workload
        params = [a for k, v in w.params.items() for a in ("--param", f"{k}={v}")]
        bundles = []
        for i in range(w.corpora):
            bundle = self.dir / f"bundle{i}"
            ok, wall, _ = self.cmd(cli("scenario", "random", "--seed", str(corpus_seed(self.seed, i)),
                                       "--mode", w.mode, "--out", str(bundle), *params),
                                   self.dir, f"setup{i}")
            if not ok:
                return []
            self.samples["setup_s"].append(wall)
            self.inputs.append(input_digest(w, bundle))
            bundles.append(bundle)
        if self.pinned:
            if not self.outcome.check(self.inputs == [c["inputs"] for c in self.pinned],
                                      "setup: inputs changed against expected.json"):
                self.pinned = None  # the recorded outputs belong to other inputs
        return bundles

    def ingest_sources(self, bundle: Path) -> list:
        if self.workload.mode == "structural":
            return [str(bundle)]
        return ["--format", "pem", *(str(p) for p in sorted(bundle.iterdir())
                                     if p.name != "certs.jsonl")]

    def run_corpus(self, bundle: Path, d: Path, spans: bool) -> dict:
        """The command sequence over a fresh workspace. Returns the wall time
        of each step and the peak RSS, or {} when a command failed."""
        d.mkdir(parents=True)
        ws = str(d / "ws")
        flags = self.workload.flags
        steps = {
            "ingest": ("ingest", "--ws", ws, *self.ingest_sources(bundle)),
            "analyze_cold": ("analyze", "--ws", ws, *flags),
            "analyze_cached": ("analyze", "--ws", ws, *flags),
            "lint": ("lint", "--ws", ws, *flags),
            "report": ("report", "--ws", ws, "--kind", "assessments",
                       "--format", "csv", "--out", str(d / CSV_REPORT), *flags),
        }
        walls = {"peak_rss_mb": 0.0}
        for step, args in steps.items():
            times = []
            for r in range(1 if spans else REPEATS.get(step, 1)):
                name = f"{step}.{r}" if r else step
                argv = traced(d / f"{name}.spans", self.hooks, *args) if spans else cli(*args)
                ok, wall, rss = self.cmd(argv, d, name)
                if not ok:
                    return {}
                times.append(wall)
                walls["peak_rss_mb"] = max(walls["peak_rss_mb"], rss)
            walls[step] = statistics.median(times)
        return walls

    def check_outputs(self, bundle: Path, d: Path, pinned) -> dict:
        try:
            check_consistency(bundle, d, self.outcome)
            summary = output_summary(self.workload, d / "ws", d / CSV_REPORT)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.outcome.check(False, f"reports missing or malformed: {exc!r}")
            return {}
        if pinned:
            for key in pinned["outputs"].keys() | summary.keys():
                self.outcome.check(summary.get(key) == pinned["outputs"].get(key),
                                   f"output {key} differs from expected.json")
        return summary

    def run_pass(self, bundles: list, index: int, spans: bool = False) -> dict:
        """Every corpus once, one after the other. Returns the step times
        summed over the corpora and the highest peak RSS, or {} on failure."""
        total = dict.fromkeys(STEPS, 0.0)
        total["peak_rss_mb"] = 0.0
        summaries = []
        for i, bundle in enumerate(bundles):
            d = self.dir / f"pass{index}" / f"corpus{i}"
            walls = self.run_corpus(bundle, d, spans)
            if not walls:
                return {}
            summaries.append(self.check_outputs(bundle, d, self.pinned and self.pinned[i]))
            if spans:
                self.workspace["files"] += sum(1 for p in (d / "ws").rglob("*") if p.is_file())
                self.workspace["report_bytes"] += sum(
                    p.stat().st_size for p in (d / "ws" / "reports").iterdir())
            shutil.rmtree(d / "ws")
            for step in STEPS:
                total[step] += walls[step]
            total["peak_rss_mb"] = max(total["peak_rss_mb"], walls["peak_rss_mb"])
        self.summaries.append(summaries)
        return total

    def record_sample(self, walls: dict):
        for step in STEPS:
            self.samples[f"{step}_s"].append(walls[step])
        self.samples["pipeline_s"].append(sum(walls[s] for s in PIPELINE))
        self.samples["peak_rss_mb"].append(walls["peak_rss_mb"])

    def measure(self, bundles: list):
        start = time.monotonic()
        longest = 0.0
        index = 0
        while (index == 0 or time.monotonic() - start < self.seconds) and \
                self.deadline - time.monotonic() > 1.5 * longest:
            t = time.monotonic()
            walls = self.run_pass(bundles, index)
            if not walls:
                break
            self.record_sample(walls)
            longest = max(longest, time.monotonic() - t)
            index += 1

    def finish(self):
        self.outcome.check(len({json.dumps(s, sort_keys=True) for s in self.summaries}) <= 1,
                           "outputs differ between passes")

    def end_to_end(self) -> dict:
        out = {}
        for name in END_TO_END:
            values = self.samples[name]
            if values:
                agg = max if name == "peak_rss_mb" else statistics.median
                out[name] = {"value": agg(values),
                             "unit": "MB" if name == "peak_rss_mb" else "s"}
        return out

    def per_layer(self, bundles: list) -> dict:
        """One untraced and one traced pass; per-layer metrics come from the
        traced one, summed over its commands and corpora."""
        walls = self.run_pass(bundles, 0)
        if not walls:
            return {}
        self.record_sample(walls)
        traced_walls = self.run_pass(bundles, 1, spans=True)
        if not traced_walls:
            return {}
        corpora = [self.dir / "pass1" / f"corpus{i}" for i in range(len(bundles))]
        layers, self.absent = trace_launch.aggregate(
            [[d / f"{step}.spans" for step in STEPS] for d in corpora], self.hooks)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items()}
        metrics["workspace.files_written"] = {"value": self.workspace["files"], "unit": "count"}
        metrics["workspace.report_bytes"] = {"value": self.workspace["report_bytes"], "unit": "B"}
        imports = []
        for i in range(IMPORT_REPEATS):
            _, wall, _ = self.cmd([sys.executable, "-c", "import xsign.cli"],
                                  self.dir, f"import{i}")
            imports.append(wall)
        metrics["cli.import_s"] = {"value": statistics.median(imports), "unit": "s"}
        metrics["workspace.ingest_wall_s"] = {"value": walls["ingest"], "unit": "s"}
        pipeline = lambda w: sum(w[s] for s in PIPELINE)
        metrics["trace.overhead_ratio"] = {
            "value": pipeline(traced_walls) / pipeline(walls), "unit": "ratio"}
        return metrics


def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding `path`, from the longest matching mount."""
    best, fstype = "", "unknown"
    target = str(path.resolve())
    with open("/proc/self/mounts") as fh:
        for line in fh:
            _, mount, kind = line.split()[:3]
            if (target == mount or target.startswith(mount.rstrip("/") + "/")) \
                    and len(mount) > len(best):
                best, fstype = mount, kind
    return fstype


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
                  expected: dict, hooks: list = trace_launch.HOOKS) -> tuple:
    """Returns (details, result) for one run."""
    run = Run(workload, seed, seconds, expected, hooks)
    bundles = run.setup()
    metrics = {}
    if bundles and trace:
        metrics = run.per_layer(bundles)
    elif bundles:
        run.measure(bundles)
        metrics = run.end_to_end()
    run.finish()
    failed = len(run.outcome.failures)
    attempted = max(run.outcome.attempted, failed, 1)
    details = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "fs_type": filesystem_type(WORK), "pinned": run.pinned is not None,
        "passes": len(run.samples["ingest_s"]), "samples": run.samples,
        "fail_ratio": failed / attempted, "failures": run.outcome.failures,
        "absent": sorted(run.absent), "outputs": run.summaries[-1] if run.summaries else [],
        "inputs": run.inputs,
    }
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    shutil.rmtree(run.dir, ignore_errors=True)
    return details, result


def record(workload: Workload, seed: int):
    details, result = run_benchmark(workload, seed, 0, False, {})
    if not result["correct"]:
        sys.exit(f"not recorded, the run failed: {details['failures']}")
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    expected.setdefault(workload.name, {})[str(seed)] = [
        {"inputs": i, "outputs": o} for i, o in zip(details["inputs"], details["outputs"])]
    EXPECTED.write_text(json.dumps(expected, sort_keys=True, indent=1) + "\n")
    print(json.dumps({"recorded": workload.name, "seed": seed}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="run one pass and pin its digests in expected.json")
    args = parser.parse_args()
    # Interrupted, a run still stops and reaps the command it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "xsign" / "cli.py").is_file():
        print(f"no xsign sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.record:
        record(workload, args.seed)
        return 0
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    details, result = run_benchmark(workload, args.seed, args.seconds,
                                    bool(args.trace), expected)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
