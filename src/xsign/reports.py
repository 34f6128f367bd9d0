"""Report rendering: JSONL (canonical), CSV flattening, and the markdown
category summary. The findings renderers read the JSON rows of a written
report, and the assessments CSV its lines. This module imports no model
module, so that `report` over current reports runs none."""

from __future__ import annotations

import csv
import io
import json
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .constants import CATEGORIES, SEVERITY

if TYPE_CHECKING:
    from .findings import Finding
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
    streamed assessment is dropped once its line is written. A row without
    a trusted interval is `to_json`'s encoding written from a template: its
    `{store_id: []}` map depends only on the store ids, so it is encoded
    once per set of ids."""
    empty_stores: dict[tuple[str, ...], str] = {}
    for a in assessments:
        if any(a.stores.values()):
            yield _ENCODER.encode(a.to_json())
            continue
        ids = tuple(a.stores)
        stores = empty_stores.get(ids)
        if stores is None:
            stores = empty_stores[ids] = _ENCODER.encode(dict.fromkeys(ids, []))
        yield (f'{{"fingerprint": {_ENCODER.encode(a.fingerprint)}, '
               f'"stores": {stores}, "view": {_ENCODER.encode(a.view_id)}}}')


def lint_jsonl(verdicts: Sequence[LintVerdict]) -> list[str]:
    return jsonl([v.to_json() for v in verdicts])


def findings_markdown(rows: Sequence[dict]) -> str:
    """Category summary of the findings report's rows: one row per category
    with the number of groups, then one line per finding."""
    counts: dict[str, set] = {cat: set() for cat in CATEGORIES}
    for f in rows:
        counts[f["category"]].add((f["subject"], f["spki"]))
    lines = [
        "| signal | category | groups |",
        "|--------|----------|--------|",
    ]
    for cat in CATEGORIES:
        lines.append(f"| {_SIGNAL[SEVERITY[cat]]} | {cat} | {len(counts[cat])} |")
    lines.append("")
    for f in rows:
        lines.append(f"- **{f['category']}** ({f['severity']}) {f['subject']} "
                     f"[key {f['spki'][:12]}]")
    return "\n".join(lines) + "\n"


def findings_csv(rows: Iterable[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["category", "severity", "subject", "spki", "members",
                     "evidence"])
    for f in rows:
        writer.writerow([f["category"], f["severity"], f["subject"],
                         f["spki"], " ".join(f["members"]),
                         json.dumps(f["evidence"], sort_keys=True)])
    return buf.getvalue()


def assessments_csv(lines: Iterable[str]) -> Iterator[str]:
    """One line per (assessment, store, trusted interval) of the assessment
    report's lines, rendered as they are taken. Fields are joined with
    commas and not quoted. An interval is an object with the key `from`,
    and a backslash is the only way to escape a key, so a line that holds
    neither `"from"` nor a backslash holds no interval and is not
    decoded."""
    yield "fingerprint,view,store,from,to,paths\n"
    for line in lines:
        if '"from"' not in line and "\\" not in line:
            continue
        row = json.loads(line)
        for store_id, items in row["stores"].items():
            for item in items:
                paths = ";".join(",".join(p) for p in item["paths"])
                yield (f"{row['fingerprint']},{row['view']},{store_id},"
                       f"{item['from']},{item['to']},{paths}\n")
