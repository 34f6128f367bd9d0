#!/usr/bin/env python3
"""Run one xsign command with spans recorded around each layer's functions.

    python3 perfbench/trace_launch.py SPANS HOOKS_JSON <xsign arguments>

Installs a wrapper on every function named in HOOKS_JSON (a list shaped like
``HOOKS``), then calls ``xsign.cli.main``. Every module that imported the
function by name gets the wrapper too. A span (id, name, start, end, parent)
is kept in memory per call and written on exit to SPANS; the command itself
is span 0, the root of the rest. ``SPANS.json`` holds the span names, the
hooks that were not found and the counters the observers collected.
``aggregate`` turns the files of one command sequence into per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

# metric prefix, module, attribute, metrics besides "<prefix>_s" (inclusive
# time): "calls", "self" (self time), "latency" (per-call p50/p99.9).
HOOKS = [
    ["workspace.ingest_paths", "xsign.workspace", "Workspace.ingest_paths", []],
    ["workspace.load_records", "xsign.workspace", "Workspace.load_records", []],
    ["workspace.input_hash", "xsign.workspace", "Workspace.input_hash", []],
    ["workspace.write_report", "xsign.workspace", "Workspace.write_report", []],
    ["certmodel.parse_certificate", "xsign.certmodel", "parse_certificate", ["calls"]],
    ["certmodel.verify_signature", "xsign.certmodel", "verify_signature", ["calls"]],
    ["pathengine.build_index", "xsign.pathengine", "build_index", []],
    ["pathengine.enumerate_paths", "xsign.pathengine", "enumerate_paths", ["calls"]],
    ["pathengine.assess_trust", "xsign.pathengine", "assess_trust",
     ["calls", "self", "latency"]],
    ["revocation.matching_records", "xsign.revocation", "matching_records", ["calls"]],
    ["revocation.revocation_onset", "xsign.revocation", "revocation_onset", []],
    ["xsdetect.group_xs", "xsign.xsdetect", "group_xs", []],
    ["xsdetect.classify_groups", "xsign.xsdetect", "classify_groups", []],
    ["findings.run_all", "xsign.findings", "run_all", []],
    *[[f"findings.{name}", "xsign.findings", name, []] for name in (
        "find_valid_after_revocation", "find_trust_deltas", "find_multi_algorithm",
        "find_ownership_span", "find_backdating", "find_revocation_inconsistency",
        "find_barrier_breach")],
    ["analysis.analyze_corpus", "xsign.analysis", "analyze_corpus", ["calls"]],
    ["analysis.lint_corpus", "xsign.analysis", "lint_corpus", []],
    ["xsext.lint_cross_sign", "xsign.xsext", "lint_cross_sign", []],
    ["reports.assessments_jsonl", "xsign.reports", "assessments_jsonl", []],
    ["reports.findings_jsonl", "xsign.reports", "findings_jsonl", []],
]


def _arg(args, kwargs, position, name, default=None):
    return args[position] if len(args) > position else kwargs.get(name, default)


# Observers see (counters, args, kwargs, result) of each call. Outcome counts
# are kept as sets so that work repeated by later commands counts once.
def _verify_signature(c, args, kwargs, result):
    child, issuer = _arg(args, kwargs, 0, "child"), _arg(args, kwargs, 1, "issuer_candidate")
    c.setdefault("edges", set()).add(child.fingerprint + ">" + issuer.fingerprint)


def _enumerate_paths(c, args, kwargs, result):
    anchors = ",".join(sorted(_arg(args, kwargs, 4, "anchors", ())))
    key = "|".join((_arg(args, kwargs, 0, "cert").fingerprint,
                    str(_arg(args, kwargs, 2, "max_depth", "default")),
                    str(_arg(args, kwargs, 3, "mode", "default")),
                    hashlib.sha1(anchors.encode()).hexdigest()))
    c.setdefault("enumerations", {})[key] = [
        len(result.paths), len(result.usable_paths()), int(result.truncated)]


def _matching_records(c, args, kwargs, result):
    c["scanned"] = c.get("scanned", 0) + len(_arg(args, kwargs, 2, "records"))
    c["matched"] = c.get("matched", 0) + len(result)


def _group_xs(c, args, kwargs, result):
    c.setdefault("groups", set()).update("|".join(g.key) for g in result[0])


def _run_all(c, args, kwargs, result):
    c.setdefault("findings", set()).update(
        hashlib.sha1(json.dumps(f.to_json(), sort_keys=True).encode()).hexdigest()
        for f in result)


def _lint_cross_sign(c, args, kwargs, result):
    c.setdefault("verdicts", set()).update(
        "|".join((v.code, v.member, v.detail)) for v in result)


OBSERVERS = {
    "certmodel.verify_signature": _verify_signature,
    "pathengine.enumerate_paths": _enumerate_paths,
    "revocation.matching_records": _matching_records,
    "xsdetect.group_xs": _group_xs,
    "findings.run_all": _run_all,
    "xsext.lint_cross_sign": _lint_cross_sign,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = ["command"]
        self.spans = array("d")     # id, name index, start, end, parent id
        self.stack = [0]
        self.next_id = 1
        self.counters: dict = {}
        self.absent: list[str] = []

    def wrap(self, prefix: str, fn):
        name_index = len(self.names)
        self.names.append(prefix)
        observe = OBSERVERS.get(prefix)
        counters = self.counters.setdefault(prefix, {})
        spans, stack = self.spans, self.stack

        def observe_safely(args, kwargs, result):
            # A function whose arguments or result changed shape loses its
            # counters (reported absent), not the command.
            nonlocal observe
            try:
                observe(counters, args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError):
                observe = None
                self.absent.append(f"{prefix}:counters")

        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.extend((sid, name_index, start, end, parent))
            if observe is not None:
                observe_safely(args, kwargs, result)
            return result

        return wrapper

    def install(self, hooks: list):
        """Wrap each hooked function in its own module and in every xsign
        module that imported it by name; a hook that no longer exists is
        recorded as absent."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "xsign" or n.startswith("xsign.")]
        for prefix, module_name, attr, _ in hooks:
            owner = sys.modules.get(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None)
            if not callable(original):
                self.absent.append(prefix)
                continue
            wrapper = self.wrap(prefix, original)
            if path:
                setattr(owner, name, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self, path: Path, start: float, end: float):
        self.spans.extend((0, 0, start, end, -1))
        with open(path, "wb") as fh:
            self.spans.tofile(fh)
        counters = {prefix: {k: sorted(v) if isinstance(v, set) else v
                             for k, v in c.items()}
                    for prefix, c in self.counters.items()}
        Path(f"{path}.json").write_text(json.dumps(
            {"names": self.names, "absent": self.absent, "counters": counters}))


def main() -> int:
    spans_path, hooks, argv = Path(sys.argv[1]), json.loads(sys.argv[2]), sys.argv[3:]
    import xsign.cli

    tracer = Tracer()
    tracer.install(hooks)
    start = perf_counter()
    try:
        return xsign.cli.main(argv)
    finally:
        tracer.dump(spans_path, start, perf_counter())


def _percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _merge_counters(metas: list) -> dict:
    merged: dict = {}
    for meta in metas:
        for prefix, c in meta["counters"].items():
            into = merged.setdefault(prefix, {})
            for key, value in c.items():
                if isinstance(value, int):
                    into[key] = into.get(key, 0) + value
                elif isinstance(value, dict):
                    into.setdefault(key, {}).update(value)
                else:
                    into.setdefault(key, set()).update(value)
    return merged


def _counts(prefix: str, c: dict) -> dict:
    """Counter-derived metrics of one hook over one command sequence."""
    if prefix == "certmodel.verify_signature":
        return {f"{prefix}.distinct_edges": len(c.get("edges", ()))}
    if prefix == "pathengine.enumerate_paths":
        found = c.get("enumerations", {})
        return {
            f"{prefix}.distinct_certs": len({key.split("|")[0] for key in found}),
            "pathengine.paths": sum(v[0] for v in found.values()),
            "pathengine.paths_usable": sum(v[1] for v in found.values()),
            "pathengine.truncated_certs": len(
                {key.split("|")[0] for key, v in found.items() if v[2]}),
        }
    if prefix == "revocation.matching_records":
        return {"revocation.records_scanned": c.get("scanned", 0),
                "revocation.records_matched": c.get("matched", 0)}
    if prefix == "xsdetect.group_xs":
        return {"xsdetect.groups": len(c.get("groups", ()))}
    if prefix == "findings.run_all":
        return {"findings.count": len(c.get("findings", ()))}
    if prefix == "xsext.lint_cross_sign":
        return {"xsext.verdicts": len(c.get("verdicts", ()))}
    return {}


def aggregate(sequences: list, hooks: list) -> tuple:
    """Per-layer metrics {name: (value, unit)} and the set of absent hooks.

    `sequences` holds, per corpus, the span files of its commands. Times and
    call counts are summed over every command; outcome counts are distinct
    within a corpus (a later command repeating the work counts once) and
    summed over the corpora."""
    calls, total, self_time, durations = {}, {}, {}, {}
    counts: dict = {}
    absent: set = set()
    for span_files in sequences:
        metas = [json.loads(Path(f"{path}.json").read_text()) for path in span_files]
        for meta in metas:
            absent.update(meta["absent"])
        for prefix, c in _merge_counters(metas).items():
            for name, value in _counts(prefix, c).items():
                counts[name] = counts.get(name, 0) + value
        for path, meta in zip(span_files, metas):
            spans = array("d")
            spans.frombytes(Path(path).read_bytes())
            rows = [spans[i:i + 5] for i in range(0, len(spans), 5)]
            covered: dict = {}
            for _, _, start, end, parent in rows:
                covered[parent] = covered.get(parent, 0.0) + end - start
            for sid, name_index, start, end, _ in rows:
                name = meta["names"][int(name_index)]
                duration = end - start
                calls[name] = calls.get(name, 0) + 1
                total[name] = total.get(name, 0.0) + duration
                self_time[name] = self_time.get(name, 0.0) + duration - covered.get(sid, 0.0)
                durations.setdefault(name, []).append(duration)

    metrics = {}
    for prefix, _, _, extra in hooks:
        if prefix in absent:
            continue
        metrics[f"{prefix}_s"] = (total.get(prefix, 0.0), "s")
        if "calls" in extra:
            metrics[f"{prefix}.calls"] = (calls.get(prefix, 0), "count")
        if "self" in extra:
            metrics[f"{prefix}.self_s"] = (self_time.get(prefix, 0.0), "s")
        if "latency" in extra:
            values = durations.get(prefix) or [0.0]
            for label, q in (("p50", 0.5), ("p999", 0.999)):
                metrics[f"{prefix}.{label}_ms"] = (1000 * _percentile(values, q), "ms")
        if f"{prefix}:counters" not in absent:
            for name in _counts(prefix, {}):
                metrics[name] = (counts.get(name, 0), "count")
    return metrics, absent


if __name__ == "__main__":
    sys.exit(main())
