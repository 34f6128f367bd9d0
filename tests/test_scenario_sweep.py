"""Every structural scenario's reports, pinned by digest.

The digests in golden/scenario_sweep.json cover groups, reissuance,
assessments, findings and lint JSONL at default analysis options, with the
scenario parameters of scripts/run_scenarios.py. Lint is pinned on both of
its routes: the verdicts `analyze_corpus` returns and `lint_corpus`. A
refactor that keeps them equal keeps every report byte-identical.
Regenerate (only for an intended output change) with:
PYTHONPATH=src python tests/test_scenario_sweep.py
"""

import hashlib
import json
from pathlib import Path

from xsign import reports
from xsign.analysis import analyze_corpus, lint_corpus
from xsign.corpus import SCENARIOS, ScenarioSpec, generate

GOLDEN = Path(__file__).parent / "golden" / "scenario_sweep.json"


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines)
                          .encode("utf-8")).hexdigest()


def _bundle(scenario_id: str):
    params = {"n": 80, "revocation_rate": 0.2} \
        if scenario_id == "random" else {}
    return generate(ScenarioSpec(scenario_id, seed=1, mode="structural",
                                 params=params))


def scenario_digests(scenario_id: str) -> dict[str, str]:
    """Every report's digest, lint included, from one `analyze_corpus`."""
    bundle = _bundle(scenario_id)
    result = analyze_corpus(bundle.records, bundle.stores, bundle.revocations,
                            bundle.views, bundle.operator_map,
                            extensions=bundle.extensions)
    return {
        "groups": _digest(reports.groups_jsonl(result.xs_groups)),
        "reissuance": _digest(reports.groups_jsonl(result.reissuance_groups)),
        "assessments": _digest(reports.assessments_jsonl(result.rows)),
        "findings": _digest(reports.findings_jsonl(result.findings)),
        "lint": _digest(reports.lint_jsonl(result.verdicts)),
    }


def cold_lint_digest(scenario_id: str) -> str:
    """The lint report's digest from `lint_corpus`, the cold-lint route."""
    bundle = _bundle(scenario_id)
    verdicts, _ = lint_corpus(bundle.records, bundle.stores,
                              bundle.revocations, bundle.extensions,
                              bundle.views, bundle.operator_map)
    return _digest(reports.lint_jsonl(verdicts))


def test_scenario_reports_match_golden_digests():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(SCENARIOS)
    for scenario_id in sorted(SCENARIOS):
        assert scenario_digests(scenario_id) == golden[scenario_id], scenario_id
        assert cold_lint_digest(scenario_id) == golden[scenario_id]["lint"], \
            scenario_id


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {sid: scenario_digests(sid) for sid in sorted(SCENARIOS)},
        indent=2, sort_keys=True) + "\n", encoding="utf-8")
