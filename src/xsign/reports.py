"""Report rendering: JSONL (canonical), CSV flattening, and the markdown
category summary."""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Iterator, Sequence

from .findings import CATEGORIES, SEVERITY, Finding
from .pathengine import TrustAssessment
from .xsdetect import XSCertGroup
from .xsext import LintVerdict

_SIGNAL = {"bad": "!!", "warn": "!", "info": "."}
_ENCODER = json.JSONEncoder(sort_keys=True)


def jsonl(objs: Sequence[dict]) -> list[str]:
    return [json.dumps(obj, sort_keys=True) for obj in objs]


def findings_jsonl(findings: Sequence[Finding]) -> list[str]:
    return jsonl([f.to_json() for f in findings])


def groups_jsonl(groups: Sequence[XSCertGroup]) -> list[str]:
    return jsonl([g.to_json() for g in groups])


def assessments_jsonl(assessments: Iterable[TrustAssessment]) -> Iterator[str]:
    """One line per assessment, encoded as the lines are taken, so that a
    streamed assessment is dropped once its line is written."""
    return (_ENCODER.encode(a.to_json()) for a in assessments)


def lint_jsonl(verdicts: Sequence[LintVerdict]) -> list[str]:
    return jsonl([v.to_json() for v in verdicts])


def findings_markdown(findings: Sequence[Finding]) -> str:
    """Category summary: one row per category with the number of groups."""
    counts: dict[str, set] = {cat: set() for cat in CATEGORIES}
    for f in findings:
        counts[f.category].add((f.subject, f.spki))
    lines = [
        "| signal | category | groups |",
        "|--------|----------|--------|",
    ]
    for cat in CATEGORIES:
        lines.append(f"| {_SIGNAL[SEVERITY[cat]]} | {cat} | {len(counts[cat])} |")
    lines.append("")
    for f in findings:
        lines.append(f"- **{f.category}** ({f.severity}) {f.subject} "
                     f"[key {f.spki[:12]}]")
    return "\n".join(lines) + "\n"


def findings_csv(findings: Sequence[Finding]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["category", "severity", "subject", "spki", "members",
                     "evidence"])
    for f in findings:
        writer.writerow([f.category, f.severity, f.subject, f.spki,
                         " ".join(f.members),
                         json.dumps(f.evidence, sort_keys=True)])
    return buf.getvalue()


def assessments_csv(assessments: Sequence[TrustAssessment]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["fingerprint", "view", "store", "from", "to", "paths"])
    for a in assessments:
        doc = a.to_json()
        for store_id, items in doc["stores"].items():
            for item in items:
                writer.writerow([doc["fingerprint"], doc["view"], store_id,
                                 item["from"], item["to"],
                                 ";".join(",".join(p) for p in item["paths"])])
    return buf.getvalue()
