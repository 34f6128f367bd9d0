"""Every structural scenario's reports, pinned by digest.

The digests in golden/scenario_sweep.json cover groups, reissuance,
assessments, findings and lint JSONL at default analysis options, with the
scenario parameters of scripts/run_scenarios.py. Lint is pinned on both of
its routes: the verdicts `analyze_corpus` returns and `lint_corpus`. A
refactor that keeps them equal keeps every report byte-identical. The
`bundle` digest pins the generator itself: the name and bytes of every file
`Bundle.write` writes, hashed as perfbench/run.py's `input_digest` does.
Regenerate (only for an intended output change) with:
PYTHONPATH=src python tests/test_scenario_sweep.py

In cryptographic mode every scenario is also taken through the command
line, and its reports compared with the in-memory analysis. The script
itself is run too, and its counts compared with the sweep's.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from xsign import certmodel, reports, revocation
from xsign.analysis import AnalysisOptions, analyze_corpus, lint_corpus
from xsign.cli import main
from xsign.corpus import SCENARIOS, ScenarioSpec, generate

GOLDEN = Path(__file__).parent / "golden" / "scenario_sweep.json"
SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_scenarios.py"


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines)
                          .encode("utf-8")).hexdigest()


def _bundle(scenario_id: str, mode: str = "structural"):
    params = {"n": 80, "revocation_rate": 0.2} \
        if scenario_id == "random" else {}
    return generate(ScenarioSpec(scenario_id, seed=1, mode=mode,
                                 params=params))


def bundle_digest(bundle) -> str:
    """The written bundle's file names and bytes, in file-name order."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        bundle.write(Path(tmp))
        for path in sorted(Path(tmp).iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def scenario_digests(scenario_id: str) -> dict[str, str]:
    """The bundle's digest and every report's, lint included, from one
    `analyze_corpus`."""
    bundle = _bundle(scenario_id)
    result = analyze_corpus(bundle.records, bundle.stores, bundle.revocations,
                            bundle.views, bundle.operator_map,
                            extensions=bundle.extensions)
    return {
        "bundle": bundle_digest(bundle),
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
                              bundle.revocations, bundle.views,
                              bundle.operator_map,
                              extensions=bundle.extensions)
    return _digest(reports.lint_jsonl(verdicts))


def test_scenario_reports_match_golden_digests():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(SCENARIOS)
    for scenario_id in sorted(SCENARIOS):
        assert scenario_digests(scenario_id) == golden[scenario_id], scenario_id
        assert cold_lint_digest(scenario_id) == golden[scenario_id]["lint"], \
            scenario_id


def test_run_scenarios_script_prints_the_sweep_counts():
    """The script exits 0 and prints, for each scenario, the certificate,
    group and verdict counts of `analyze_corpus` over the sweep's bundle."""
    proc = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                          text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    printed = {fields[0]: [int(f) for f in fields[1:4]]
               for fields in map(str.split, proc.stdout.splitlines()[2:])}
    expected = {}
    for scenario_id in sorted(SCENARIOS):
        bundle = _bundle(scenario_id)
        result = analyze_corpus(bundle.records, bundle.stores,
                                bundle.revocations, bundle.views,
                                bundle.operator_map,
                                extensions=bundle.extensions)
        expected[scenario_id] = [len(bundle.records), len(result.xs_groups),
                                 len(result.verdicts)]
    assert printed == expected


def _no_verification(child_raw, issuer_raw):
    raise AssertionError("a signature was verified, not read from the "
                         "workspace's signature file")


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
def test_cryptographic_workspaces_match_in_memory_reports(
        tmp_path, monkeypatch, scenario_id):
    """A cold cryptographic `analyze` of the PEM-ingested workspace writes
    the reports that `analyze_corpus` gives over the generated records, and
    so does one ingested as JSONL first and PEM second. The command
    verifies no signature: it reads each from the signature file."""
    bundle = _bundle(scenario_id, "cryptographic")
    monkeypatch.setattr(certmodel, "_SIGNATURES", {})
    result = analyze_corpus(
        bundle.records, bundle.stores, bundle.revocations,
        bundle.views or [revocation.all_sources_view(bundle.revocations)],
        bundle.operator_map, AnalysisOptions(mode="cryptographic"),
        extensions=bundle.extensions)
    expected = {
        "groups.jsonl": reports.groups_jsonl(result.xs_groups),
        "reissuance.jsonl": reports.groups_jsonl(result.reissuance_groups),
        "assessments.jsonl": list(reports.assessments_jsonl(result.rows)),
        "findings.jsonl": reports.findings_jsonl(result.findings),
        "lint.jsonl": reports.lint_jsonl(result.verdicts),
    }
    bundle_dir = tmp_path / "bundle"
    bundle.write(bundle_dir)
    files = sorted(str(p) for p in bundle_dir.iterdir())
    pem = [f for f in files if not f.endswith("certs.jsonl")]
    jsonl = [f for f in files if not f.endswith("certs.pem")]
    routes = {"pem": [("pem", pem)],
              "jsonl-then-pem": [("jsonl", jsonl),
                                 ("pem", [str(bundle_dir / "certs.pem")])]}
    for route, ingests in routes.items():
        ws_dir = tmp_path / route
        for fmt, paths in ingests:
            assert main(["ingest", "--ws", str(ws_dir), "--format", fmt,
                         *paths]) == 0
        with monkeypatch.context() as m:
            m.setattr(certmodel, "_SIGNATURES", {})
            m.setattr(certmodel, "_verify_der", _no_verification)
            assert main(["analyze", "--ws", str(ws_dir),
                         "--mode", "cryptographic"]) == 0
        for name, lines in expected.items():
            written = (ws_dir / "reports" / name).read_text(encoding="utf-8")
            assert written.splitlines() == lines, (route, name)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {sid: scenario_digests(sid) for sid in sorted(SCENARIOS)},
        indent=2, sort_keys=True) + "\n", encoding="utf-8")
