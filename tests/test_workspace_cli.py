import hashlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import xsign
import xsign.workspace
from xsign import reports
from xsign.analysis import (COVERAGE_VIEW_ID, AnalysisOptions, analyze_corpus,
                            build_run)
from xsign.cli import main
from xsign.corpus import ScenarioSpec, generate
from xsign.findings import Finding, find_revocation_inconsistency
from xsign.workspace import Workspace
from xsign.xsext import ExpandingTrust, XsExtension, lint_cross_sign


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _make_ws(tmp_path, capsys, scenario="certinomis", seed=1,
             mode="structural"):
    bundle_dir = tmp_path / f"bundle-{scenario}"
    ws_dir = tmp_path / f"ws-{scenario}"
    code, _, _ = _run(capsys, "scenario", scenario, "--seed", str(seed),
                      "--mode", mode, "--out", str(bundle_dir))
    assert code == 0
    code, out, _ = _run(capsys, "ingest", "--ws", str(ws_dir),
                        "--format", "jsonl", str(bundle_dir))
    assert code == 0
    return ws_dir, json.loads(out)


def test_ingest_zero_files(tmp_path, capsys):
    code, out, _ = _run(capsys, "ingest", "--ws", str(tmp_path / "ws"),
                        "--format", "jsonl")
    assert code == 0
    assert json.loads(out)["added"] == 0


def test_ingest_is_idempotent(tmp_path, capsys):
    ws_dir, summary = _make_ws(tmp_path, capsys)
    assert summary["added"] == 8
    bundle_dir = tmp_path / "bundle-certinomis"
    code, out, _ = _run(capsys, "ingest", "--ws", str(ws_dir),
                        "--format", "jsonl", str(bundle_dir))
    assert code == 0
    again = json.loads(out)
    assert again["added"] == 0
    assert again["duplicates"] == 8


def test_schema_error_carries_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"fingerprint": "ab", "subject": "CN=x"}\n'
                   '{"selector": {"type": "wat"}}\n')
    code, _, err = _run(capsys, "ingest", "--ws", str(tmp_path / "ws"),
                        "--format", "jsonl", str(bad))
    assert code == 3
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "schema"
    assert payload["line"] == 1


_EXPANDING = {"motivations": [{"kind": "expanding_trust",
                                "target_stores": ["web1"]}]}
# A view id given twice, and the coverage view's id: either would drop a
# view from a report with one row per (certificate, view id).
_BAD_VIEW_IDS = [
    [{"consumer_id": "v", "accepted_sources": ["crl"]},
     {"consumer_id": "v", "accepted_sources": []}],
    [{"consumer_id": COVERAGE_VIEW_ID, "accepted_sources": ["crl"]}],
]


@pytest.mark.parametrize("name, text, line", [
    ("views.json", {"views": [{"consumer_id": "v"}]}, None),
    ("views.json", {"views": [{"consumer_id": "v",
                               "accepted_sources": "onecrl"}]}, None),
    ("ext.jsonl", {"extension": _EXPANDING}, 1),
    ("ext.jsonl", {"member": "ab" * 32, "extension": {"motivations": []}}, 1),
    ("explanations.jsonl", {"explained": 5}, 1),
    *[("views.json", {"views": views}, None) for views in _BAD_VIEW_IDS],
])
def test_ingest_rejects_configs_the_loaders_cannot_read(tmp_path, capsys,
                                                        name, text, line):
    # Ingested, each of these would break every later command.
    path = tmp_path / name
    path.write_text(json.dumps(text) + "\n")
    ws_dir = tmp_path / "ws"
    code, out, err = _run(capsys, "ingest", "--ws", str(ws_dir), str(path))
    assert code == 3 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "schema" and payload["path"] == str(path)
    assert payload.get("line") == line
    assert not any((ws_dir / "config").iterdir())


def test_unknown_scenario_exit_code(tmp_path, capsys):
    code, _, err = _run(capsys, "scenario", "nope", "--out",
                        str(tmp_path / "x"))
    assert code == 1
    assert json.loads(err.strip())["error"] == "unknown_scenario"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])  # missing --ws
    assert exc.value.code == 2


def test_analyze_report_pipeline(tmp_path, capsys):
    ws_dir, _ = _make_ws(tmp_path, capsys)
    code, out, _ = _run(capsys, "analyze", "--ws", str(ws_dir))
    assert code == 0
    assert json.loads(out)["findings"] > 0
    code, out, _ = _run(capsys, "report", "--ws", str(ws_dir),
                        "--kind", "findings", "--format", "md")
    assert code == 0
    row = next(line for line in out.splitlines()
               if "valid_after_revocation" in line and line.startswith("|"))
    assert "| 1 |" in row


def test_analyze_cache_and_determinism(tmp_path, capsys):
    ws_a, _ = _make_ws(tmp_path, capsys, scenario="actalis")
    code, out, _ = _run(capsys, "analyze", "--ws", str(ws_a))
    assert code == 0 and not json.loads(out)["cached"]
    first = {p.name: p.read_bytes()
             for p in sorted((ws_a / "reports").glob("*.jsonl"))}
    code, out, _ = _run(capsys, "analyze", "--ws", str(ws_a))
    assert code == 0 and json.loads(out)["cached"]
    second = {p.name: p.read_bytes()
              for p in sorted((ws_a / "reports").glob("*.jsonl"))}
    assert first == second

    # A fresh workspace over the same inputs produces identical bytes.
    bundle_dir = tmp_path / "bundle-actalis"
    ws_b = tmp_path / "ws-actalis-2"
    _run(capsys, "ingest", "--ws", str(ws_b), "--format", "jsonl",
         str(bundle_dir))
    _run(capsys, "analyze", "--ws", str(ws_b))
    third = {p.name: p.read_bytes()
             for p in sorted((ws_b / "reports").glob("*.jsonl"))}
    assert first == third


def test_cache_invalidated_on_new_input(tmp_path, capsys):
    ws_dir, _ = _make_ws(tmp_path, capsys, scenario="twin")
    _run(capsys, "analyze", "--ws", str(ws_dir))
    extra = tmp_path / "extra.jsonl"
    extra.write_text(json.dumps({
        "fingerprint": "77" * 32, "subject": "CN=new", "issuer": "CN=new",
        "spki": "66" * 32, "serial": "1",
        "not_before": "2015-01-01T00:00:00Z",
        "not_after": "2020-01-01T00:00:00Z", "is_ca": True,
        "self_signed": True}) + "\n")
    _run(capsys, "ingest", "--ws", str(ws_dir), "--format", "jsonl",
         str(extra))
    code, out, _ = _run(capsys, "analyze", "--ws", str(ws_dir))
    assert code == 0
    assert not json.loads(out)["cached"]


def test_views_flag_overrides_config(tmp_path, capsys):
    ws_dir, _ = _make_ws(tmp_path, capsys, scenario="diginotar")
    code, out, _ = _run(capsys, "analyze", "--ws", str(ws_dir),
                        "--views", "isolated=,chrome=chrome-blacklist")
    assert code == 0
    report = (ws_dir / "reports" / "assessments.jsonl").read_text()
    views = {json.loads(line)["view"] for line in report.splitlines()}
    assert views == {"isolated", "chrome"}


def test_pem_ingest_cryptographic_bundle(tmp_path, capsys):
    bundle_dir = tmp_path / "cryb"
    code, _, _ = _run(capsys, "scenario", "figure1", "--mode", "cryptographic",
                      "--out", str(bundle_dir))
    assert code == 0
    ws_dir = tmp_path / "ws-pem"
    code, out, _ = _run(capsys, "ingest", "--ws", str(ws_dir),
                        "--format", "pem", str(bundle_dir / "certs.pem"))
    assert code == 0
    assert json.loads(out)["added"] == 15
    ws = Workspace(ws_dir)
    assert all(r.raw is not None for r in ws.load_records())


def test_lint_command(tmp_path, capsys):
    ws_dir, _ = _make_ws(tmp_path, capsys, scenario="letsencrypt")
    code, out, _ = _run(capsys, "lint", "--ws", str(ws_dir))
    assert code == 0
    verdicts = [json.loads(line) for line in out.splitlines()]
    assert any(v["verdict"].startswith("V1") for v in verdicts)
    assert not any(v["verdict"].startswith("V2") for v in verdicts)
    code, out, _ = _run(capsys, "report", "--ws", str(ws_dir),
                        "--kind", "lint", "--format", "json")
    assert code == 0 and out.strip()


def test_report_csv_formats(tmp_path, capsys):
    ws_dir, _ = _make_ws(tmp_path, capsys, scenario="actalis")
    _run(capsys, "analyze", "--ws", str(ws_dir))
    code, out, _ = _run(capsys, "report", "--ws", str(ws_dir),
                        "--kind", "findings", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "category,severity,subject,spki,members,evidence"
    code, out, _ = _run(capsys, "report", "--ws", str(ws_dir),
                        "--kind", "assessments", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "fingerprint,view,store,from,to,paths"


def test_golden_certinomis_findings(tmp_path, capsys):
    ws_dir, _ = _make_ws(tmp_path, capsys)
    _run(capsys, "analyze", "--ws", str(ws_dir))
    got = (ws_dir / "reports" / "findings.jsonl").read_bytes()
    golden = Path(__file__).parent / "golden" / "certinomis_findings.jsonl"
    assert got == golden.read_bytes()
    for line in got.decode().splitlines():
        assert Finding.from_json(json.loads(line)).to_json() == json.loads(line)


def test_unknown_store_filter(tmp_path, capsys):
    ws_dir, _ = _make_ws(tmp_path, capsys, scenario="figure1")
    code, _, err = _run(capsys, "analyze", "--ws", str(ws_dir),
                        "--stores", "web1,missing-store")
    assert code == 1
    assert json.loads(err.strip())["error"] == "analysis"
    code, out, _ = _run(capsys, "analyze", "--ws", str(ws_dir),
                        "--stores", "web1")
    assert code == 0


def test_analyze_summary_counts_truncated_certificates(tmp_path, capsys):
    ws_dir, _ = _make_ws(tmp_path, capsys, scenario="figure1")
    ws = Workspace(ws_dir)
    cut = analyze_corpus(ws.load_records(), ws.load_stores(),
                         ws.load_revocations(), ws.load_views(),
                         ws.load_operator_map(), AnalysisOptions(max_depth=2))
    list(cut.rows)
    assert cut.rows.truncated
    code, out, err = _run(capsys, "analyze", "--ws", str(ws_dir),
                          "--max-depth", "2")
    assert code == 0
    assert json.loads(out)["truncated"] == len(cut.rows.truncated)
    assert json.loads(err) == {"warning": "truncated", "max_depth": 2,
                               "certs": len(cut.rows.truncated)}
    # A cache hit reports the same truncation as the run that filled it.
    code, out, err = _run(capsys, "analyze", "--ws", str(ws_dir),
                          "--max-depth", "2")
    assert code == 0 and json.loads(out)["cached"] is True
    assert json.loads(out)["truncated"] == len(cut.rows.truncated)
    assert json.loads(err) == {"warning": "truncated", "max_depth": 2,
                               "certs": len(cut.rows.truncated)}
    # A stamp that lacks the count is not current: the run recomputes.
    stamp = ws.reports_dir / "stamp.json"
    recorded = json.loads(stamp.read_text())
    del recorded["analysis"]["truncated"]
    stamp.write_text(json.dumps(recorded))
    code, out, err = _run(capsys, "analyze", "--ws", str(ws_dir),
                          "--max-depth", "2")
    assert code == 0 and json.loads(out)["cached"] is False
    assert json.loads(out)["truncated"] == len(cut.rows.truncated)
    code, out, err = _run(capsys, "analyze", "--ws", str(ws_dir))
    assert code == 0
    assert json.loads(out)["truncated"] == 0
    assert err == ""


def test_lint_and_report_warn_when_depth_cuts_short(tmp_path, capsys,
                                                    monkeypatch):
    ws_dir, _ = _make_ws(tmp_path, capsys, scenario="figure1")
    ws = Workspace(ws_dir)
    cut = analyze_corpus(ws.load_records(), ws.load_stores(),
                         ws.load_revocations(), ws.load_views(),
                         ws.load_operator_map(), AnalysisOptions(max_depth=2))
    list(cut.rows)
    # Lint enumerates the cross-sign members only.
    members = {fp for group in cut.xs_groups for fp in group.members}
    cut_members = [fp for fp in cut.rows.truncated if fp in members]
    assert 0 < len(cut_members) < len(cut.rows.truncated)
    code, linted, err = _run(capsys, "lint", "--ws", str(ws_dir),
                             "--max-depth", "2")
    assert code == 0
    assert linted == (ws_dir / "reports" / "lint.jsonl").read_text()
    assert json.loads(err) == {"warning": "truncated", "max_depth": 2,
                               "certs": len(cut_members)}
    # The first report materializes the reports, the second reads them
    # from the cache; both warn with the count kept in the stamp.
    stamps = []
    for _ in range(2):
        code, out, err = _run(capsys, "report", "--ws", str(ws_dir),
                              "--kind", "groups", "--max-depth", "2")
        assert code == 0 and out
        assert json.loads(err) == {"warning": "truncated", "max_depth": 2,
                                   "certs": len(cut.rows.truncated)}
        stamps.append((ws.reports_dir / "stamp.json").stat().st_mtime_ns)
    assert stamps[0] == stamps[1]
    # The analysis linted too: lint now serves its result, and warns with
    # the member count the stamp keeps.
    calls = _count_loads(monkeypatch)
    code, served, err = _run(capsys, "lint", "--ws", str(ws_dir),
                             "--max-depth", "2")
    assert code == 0 and calls == [] and served == linted
    assert json.loads(err) == {"warning": "truncated", "max_depth": 2,
                               "certs": len(cut_members)}
    code, out, err = _run(capsys, "report", "--ws", str(ws_dir),
                          "--kind", "groups")
    assert code == 0 and err == ""


def test_report_lint_relints_after_new_input(tmp_path, capsys):
    ws_dir, _ = _make_ws(tmp_path, capsys, scenario="figure1")
    code, before, _ = _run(capsys, "lint", "--ws", str(ws_dir))
    assert code == 0
    bundle_dir = tmp_path / "bundle-random"
    code, _, _ = _run(capsys, "scenario", "random", "--param", "n=300",
                      "--out", str(bundle_dir))
    assert code == 0
    code, _, _ = _run(capsys, "ingest", "--ws", str(ws_dir), str(bundle_dir))
    assert code == 0
    code, reported, _ = _run(capsys, "report", "--ws", str(ws_dir),
                             "--kind", "lint")
    assert code == 0
    code, linted, _ = _run(capsys, "lint", "--ws", str(ws_dir))
    assert code == 0
    assert reported == linted != before


def _count_loads(monkeypatch) -> list:
    """Record each `Workspace.load_records` call, which only a command that
    builds results makes."""
    calls = []
    real = Workspace.load_records

    def load_records(self):
        calls.append(self.root)
        return real(self)

    monkeypatch.setattr(Workspace, "load_records", load_records)
    return calls


def test_lint_after_analyze_serves_lint_jsonl(tmp_path, capsys, monkeypatch):
    ws_dir, _ = _make_ws(tmp_path, capsys, scenario="figure1")
    code, out, _ = _run(capsys, "analyze", "--ws", str(ws_dir))
    assert code == 0 and "lint.jsonl" in json.loads(out)["reports"]

    def no_load(self):
        raise AssertionError("lint loaded the records")

    monkeypatch.setattr(Workspace, "load_records", no_load)
    code, served, err = _run(capsys, "lint", "--ws", str(ws_dir))
    assert code == 0 and served and err == ""
    code, reported, _ = _run(capsys, "report", "--ws", str(ws_dir),
                             "--kind", "lint")
    assert code == 0 and reported == served
    monkeypatch.undo()
    # A cold lint of the same bundle in a fresh workspace prints the same.
    cold_dir = tmp_path / "ws-cold"
    _run(capsys, "ingest", "--ws", str(cold_dir), str(tmp_path / "bundle-figure1"))
    code, cold, _ = _run(capsys, "lint", "--ws", str(cold_dir))
    assert code == 0 and cold == served
    assert (cold_dir / "reports" / "lint.jsonl").read_text() == served


def test_lint_relints_when_its_options_change(tmp_path, capsys, monkeypatch):
    ws_dir, _ = _make_ws(tmp_path, capsys, scenario="figure1")
    code, _, _ = _run(capsys, "analyze", "--ws", str(ws_dir))
    assert code == 0
    calls = _count_loads(monkeypatch)
    code, default, _ = _run(capsys, "lint", "--ws", str(ws_dir))
    assert code == 0 and calls == []
    code, wide, _ = _run(capsys, "lint", "--ws", str(ws_dir),
                         "--max-validity", "400")
    assert code == 0 and len(calls) == 1
    code, again, _ = _run(capsys, "lint", "--ws", str(ws_dir))
    assert code == 0 and len(calls) == 2 and again == default
    code, _, _ = _run(capsys, "lint", "--ws", str(ws_dir))
    assert code == 0 and len(calls) == 2


def test_view_order_is_part_of_the_stamp_key(tmp_path, capsys):
    # The revocation-inconsistency analyzer lists the views' scopes in the
    # order given, so the reports of one order are not current for another.
    ws_dir, _ = _make_ws(tmp_path, capsys)
    code, _, _ = _run(capsys, "analyze", "--ws", str(ws_dir),
                      "--views", "mozilla=onecrl,google=crlset,none=")
    assert code == 0
    reordered = ("--views", "none=,google=crlset,mozilla=onecrl")
    code, out, _ = _run(capsys, "analyze", "--ws", str(ws_dir), *reordered)
    assert code == 0 and json.loads(out)["cached"] is False
    fresh_dir = tmp_path / "ws-fresh"
    _run(capsys, "ingest", "--ws", str(fresh_dir),
         str(tmp_path / "bundle-certinomis"))
    code, _, _ = _run(capsys, "analyze", "--ws", str(fresh_dir), *reordered)
    assert code == 0
    for name in ("findings.jsonl", "assessments.jsonl", "lint.jsonl"):
        assert ((ws_dir / "reports" / name).read_bytes()
                == (fresh_dir / "reports" / name).read_bytes()), name


def test_served_commands_load_no_input(tmp_path, capsys, monkeypatch):
    ws_dir, _ = _make_ws(tmp_path, capsys)
    code, _, _ = _run(capsys, "analyze", "--ws", str(ws_dir))
    assert code == 0

    def no_load(self):
        raise AssertionError("a served command loaded an input")

    for name in vars(Workspace):
        if name.startswith("load_"):
            monkeypatch.setattr(Workspace, name, no_load)
    served = [("analyze",), ("lint",),
              *(("report", "--kind", kind)
                for kind in ("findings", "groups", "assessments", "lint")),
              ("report", "--format", "md"),
              ("report", "--kind", "assessments", "--format", "csv")]
    for argv in served:
        code, out, _ = _run(capsys, *argv, "--ws", str(ws_dir))
        assert code == 0 and out, argv


def test_one_entry_stamp_is_not_current(tmp_path, capsys):
    ws_dir, _ = _make_ws(tmp_path, capsys, scenario="figure1")
    code, out, _ = _run(capsys, "analyze", "--ws", str(ws_dir))
    assert code == 0
    ws = Workspace(ws_dir)
    stamp = ws.reports_dir / "stamp.json"
    # The shape earlier versions wrote: one entry, for the analysis.
    options = json.loads(stamp.read_text())["analysis"]["options"]
    stamp.write_text(json.dumps({"input_hash": ws.input_hash(options),
                                 "options": options, "truncated": 0}))
    code, out, _ = _run(capsys, "analyze", "--ws", str(ws_dir))
    assert code == 0 and json.loads(out)["cached"] is False
    assert sorted(json.loads(stamp.read_text())) == ["analysis", "lint"]


def test_reports_interrupted_before_their_stamp_are_not_served(
        tmp_path, capsys, monkeypatch):
    ws_dir, _ = _make_ws(tmp_path, capsys, scenario="figure1")
    code, _, _ = _run(capsys, "analyze", "--ws", str(ws_dir))
    assert code == 0
    reports_dir = ws_dir / "reports"
    first = {p.name: p.read_bytes() for p in reports_dir.glob("*.jsonl")}

    def killed(self, **entries):
        raise KeyboardInterrupt

    # Each killed run "dies" after rewriting its reports, before its stamp;
    # the run after it must not serve what the killed run left.
    for killed_argv, argv in ((("analyze", "--max-depth", "2"), ("analyze",)),
                              (("lint", "--max-validity", "30"), ("lint",))):
        monkeypatch.setattr(Workspace, "write_stamp", killed)
        with pytest.raises(KeyboardInterrupt):
            main([killed_argv[0], "--ws", str(ws_dir), *killed_argv[1:]])
        monkeypatch.undo()
        assert {p.name: p.read_bytes()
                for p in reports_dir.glob("*.jsonl")} != first
        code, out, _ = _run(capsys, *argv, "--ws", str(ws_dir))
        assert code == 0
        assert {p.name: p.read_bytes()
                for p in reports_dir.glob("*.jsonl")} == first
    assert out == first["lint.jsonl"].decode()


@pytest.mark.parametrize("name, line, command", [
    ("config/views.json", '{"views": [{"consumer_id": "v"}]}', "analyze"),
    ("config/extensions.jsonl", '{"member": "ab"}', "lint"),
    ("config/revocations.jsonl", '{"selector": {"type": "spki"}}', "analyze"),
    ("certs/*.json", '{"fingerprint": "ab"}', "lint"),
    # A well-formed record under another certificate's file name.
    ("certs/*.json", json.dumps({
        "fingerprint": "00" * 32, "subject": "CN=x", "issuer": "CN=x",
        "spki": "11" * 32, "serial": "1", "is_ca": True,
        "not_before": "2015-01-01T00:00:00Z",
        "not_after": "2020-01-01T00:00:00Z"}), "analyze"),
])
def test_commands_reject_workspace_files_the_loaders_cannot_read(
        tmp_path, capsys, name, line, command):
    # Written past ingest's checks: by hand or by an earlier version.
    ws_dir, _ = _make_ws(tmp_path, capsys, scenario="figure1")
    path = min(ws_dir.glob(name), default=ws_dir / name)
    path.write_text(line + "\n")
    code, out, err = _run(capsys, command, "--ws", str(ws_dir))
    assert code == 3 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "schema" and payload["path"] == str(path)
    assert payload.get("line") == (1 if name.endswith(".jsonl") else None)


def test_a_der_copied_over_another_is_rejected(tmp_path, capsys):
    # Without the check the second certificate would vanish: its file
    # parses to the first one's record, which the index keeps once.
    bundle_dir = tmp_path / "bundle"
    code, _, _ = _run(capsys, "scenario", "figure1", "--mode", "cryptographic",
                      "--out", str(bundle_dir))
    assert code == 0
    ws_dir = tmp_path / "ws"
    code, _, _ = _run(capsys, "ingest", "--ws", str(ws_dir),
                      "--format", "pem", str(bundle_dir / "certs.pem"))
    assert code == 0
    first, second = sorted((ws_dir / "certs").glob("*.der"))[:2]
    second.write_bytes(first.read_bytes())
    code, out, err = _run(capsys, "analyze", "--ws", str(ws_dir))
    assert code == 3 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "schema" and payload["path"] == str(second)


@pytest.mark.parametrize("encoding", ["utf-16", "utf-32", "utf-8-sig"])
def test_a_record_file_not_in_utf8_is_rejected(tmp_path, capsys, encoding):
    # Workspace files are UTF-8 without a BOM; JSON parsed from bytes would
    # detect these encodings and read the record.
    ws_dir, _ = _make_ws(tmp_path, capsys, scenario="figure1")
    path = min((ws_dir / "certs").glob("*.json"))
    path.write_bytes(path.read_text("utf-8").encode(encoding))
    code, out, err = _run(capsys, "analyze", "--ws", str(ws_dir))
    assert code == 3 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "schema" and payload["path"] == str(path)


def test_invalid_depth_rejected_on_corpus_without_groups(tmp_path, capsys):
    ws_dir = tmp_path / "ws"
    single = tmp_path / "single.jsonl"
    single.write_text(json.dumps({
        "fingerprint": "77" * 32, "subject": "CN=new", "issuer": "CN=new",
        "spki": "66" * 32, "serial": "1",
        "not_before": "2015-01-01T00:00:00Z",
        "not_after": "2020-01-01T00:00:00Z", "is_ca": True,
        "self_signed": True}) + "\n")
    code, _, _ = _run(capsys, "ingest", "--ws", str(ws_dir), str(single))
    assert code == 0
    for command in ("analyze", "lint"):
        code, out, err = _run(capsys, command, "--ws", str(ws_dir),
                              "--max-depth", "0")
        assert code == 1 and out == ""
        assert json.loads(err)["detail"] == "max_depth must be >= 1"


def _lint_from_full_analysis(ws: Workspace, options: AnalysisOptions):
    """Lint verdicts fed from a complete `analyze_corpus` result: the
    reference that the lint command's own, narrower build must match."""
    records, stores = ws.load_records(), ws.load_stores()
    revocations, operator_map = ws.load_revocations(), ws.load_operator_map()
    result = analyze_corpus(records, stores, revocations, ws.load_views(),
                            operator_map, options)
    run, _, _ = build_run(records, stores, revocations, result.views,
                          operator_map, options, ws.load_extensions(),
                          ws.load_explanations())
    verdicts = []
    for group in result.xs_groups:
        verdicts.extend(lint_cross_sign(
            group, run,
            {fp: result.assessments.covered_stores(fp, COVERAGE_VIEW_ID)
             for fp in group.members},
            bool(find_revocation_inconsistency(group, run))))
    verdicts.sort(key=lambda v: (v.code, v.member, v.detail))
    return reports.lint_jsonl(verdicts)


def test_lint_honours_analysis_options(tmp_path, capsys):
    printed = {}
    for scenario, params in (("figure1", {}),
                             ("random", {"n": 80, "revocation_rate": 0.2})):
        bundle = generate(ScenarioSpec(scenario, seed=1, params=params))
        # Every member claims to expand trust into every store, so the V4
        # verdicts depend on each member's coverage.
        store_ids = tuple(sorted(s.store_id for s in bundle.stores))
        bundle.extensions = {r.fingerprint: XsExtension((ExpandingTrust(store_ids),))
                             for r in bundle.records}
        bundle.write(tmp_path / scenario)
        ws_dir = tmp_path / f"ws-{scenario}"
        code, _, _ = _run(capsys, "ingest", "--ws", str(ws_dir),
                          "--format", "jsonl", str(tmp_path / scenario))
        assert code == 0
        for flags, options in (((), AnalysisOptions()),
                               (("--max-depth", "2"), AnalysisOptions(max_depth=2)),
                               (("--mode", "strict"), AnalysisOptions(mode="strict"))):
            code, out, _ = _run(capsys, "lint", "--ws", str(ws_dir), *flags)
            assert code == 0
            expected = _lint_from_full_analysis(Workspace(ws_dir), options)
            assert out.splitlines() == expected, (scenario, flags)
            printed[scenario, flags] = out
    v4 = {key for key, out in printed.items() if "V4_" in out}
    assert ("figure1", ()) in v4 and ("figure1", ("--max-depth", "2")) not in v4


def test_lint_rejects_unknown_store_like_analyze(tmp_path, capsys):
    ws_dir, _ = _make_ws(tmp_path, capsys, scenario="figure1")
    code, out, err = _run(capsys, "lint", "--ws", str(ws_dir),
                          "--stores", "bogus")
    assert code == 1
    assert out == ""
    payload = json.loads(err.strip())
    assert payload["error"] == "analysis"
    assert "bogus" in payload["detail"]


def test_analysis_rejects_a_repeated_store_id(tmp_path, capsys):
    # A store named twice would be assessed twice and its findings written
    # twice.
    ws_dir, _ = _make_ws(tmp_path, capsys)
    for command in ("analyze", "lint"):
        code, out, err = _run(capsys, command, "--ws", str(ws_dir),
                              "--stores", "mozilla,mozilla")
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "analysis"
        assert "mozilla" in payload["detail"]
    assert not any((ws_dir / "reports").iterdir())


def test_raw_bytes_attach_to_existing_record(tmp_path, capsys):
    # Metadata-only ingest first, PEM second: the raw sidecar appears and
    # the cache invalidates.
    code, _, _ = _run(capsys, "scenario", "figure1", "--mode", "cryptographic",
                      "--out", str(tmp_path / "bundle"))
    assert code == 0
    ws_dir = tmp_path / "ws"
    _run(capsys, "ingest", "--ws", str(ws_dir), "--format", "jsonl",
         str(tmp_path / "bundle" / "certs.jsonl"))
    ws = Workspace(ws_dir)
    assert all(r.raw is None for r in ws.load_records())
    _run(capsys, "analyze", "--ws", str(ws_dir))
    code, out, _ = _run(capsys, "ingest", "--ws", str(ws_dir), "--format",
                        "pem", str(tmp_path / "bundle" / "certs.pem"))
    assert code == 0
    assert json.loads(out)["duplicates"] == 15
    assert all(r.raw is not None for r in ws.load_records())
    code, out, _ = _run(capsys, "analyze", "--ws", str(ws_dir))
    assert not json.loads(out)["cached"]


def test_interrupted_ingest_keeps_earlier_records(tmp_path, monkeypatch):
    bundle = generate(ScenarioSpec("figure1", seed=1))
    bundle.write(tmp_path / "bundle")
    real_replace = os.replace
    renamed = []

    def replace(src, dst):
        # The process "dies" before the fifth record's rename.
        if Path(dst).parent.name == "certs":
            if len(renamed) == 4:
                raise OSError("killed")
            renamed.append(Path(dst).name)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    ws = Workspace(tmp_path / "ws")
    with pytest.raises(OSError, match="killed"):
        ws.ingest_paths([tmp_path / "bundle" / "certs.jsonl"], "jsonl")
    monkeypatch.undo()
    # No partial `<fp>.json` and no temp file is left behind.
    assert sorted(os.listdir(ws.certs_dir)) == sorted(renamed)
    earlier = sorted(r.fingerprint for r in bundle.records)[:4]
    assert [r.fingerprint for r in ws.load_records()] == earlier


_LOADED_CRYPTOGRAPHY = """
import json, sys
from xsign.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps("cryptography" in sys.modules))
"""


def _env() -> dict:
    """The environment of a fresh interpreter that imports this xsign."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(xsign.__file__).parents[1]),
                    os.environ.get("PYTHONPATH")) if p))


def _loads_cryptography(*commands) -> bool:
    """Run the xsign commands in one fresh interpreter and report whether
    they imported `cryptography`."""
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_CRYPTOGRAPHY, json.dumps(commands)],
        env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_structural_commands_do_not_load_cryptography(tmp_path):
    bundle, ws = str(tmp_path / "bundle"), str(tmp_path / "ws")
    assert not _loads_cryptography(
        ["scenario", "figure1", "--out", bundle],
        ["ingest", "--ws", ws, bundle],
        ["analyze", "--ws", ws],
        ["analyze", "--ws", ws],
        ["lint", "--ws", ws],
        ["report", "--ws", ws, "--kind", "assessments", "--format", "csv",
         "--out", str(tmp_path / "assessments.csv")])


def test_pem_ingest_loads_cryptography(tmp_path):
    generate(ScenarioSpec("figure1", seed=1, mode="cryptographic")).write(
        tmp_path / "bundle")
    assert _loads_cryptography(
        ["ingest", "--ws", str(tmp_path / "ws"), "--format", "pem",
         str(tmp_path / "bundle" / "certs.pem")])


def _pem_workspace(tmp_path, capsys, ws_name="ws") -> tuple[Path, Path]:
    """A workspace ingested from the PEM of a cryptographic figure1 bundle,
    and the bundle's directory."""
    bundle_dir = tmp_path / "bundle"
    if not bundle_dir.exists():
        generate(ScenarioSpec("figure1", seed=1, mode="cryptographic")).write(
            bundle_dir)
    ws_dir = tmp_path / ws_name
    code, _, _ = _run(capsys, "ingest", "--ws", str(ws_dir), "--format",
                      "pem", str(bundle_dir / "certs.pem"))
    assert code == 0
    return ws_dir, bundle_dir


def test_cold_cryptographic_commands_do_not_load_cryptography(tmp_path,
                                                              capsys):
    # Each signature check is answered from the file `ingest` wrote, and
    # each record is read from its JSON.
    for command, mode in (("analyze", "cryptographic"),
                          ("lint", "cryptographic"), ("analyze", "structural")):
        ws_dir, _ = _pem_workspace(tmp_path, capsys, f"{command}-{mode}")
        assert not _loads_cryptography(
            [command, "--ws", str(ws_dir), "--mode", mode])
        assert (ws_dir / "reports" / "lint.jsonl").exists()


def test_raw_bytes_replace_the_metadata_they_attach_to(tmp_path, capsys):
    # A record ingested as JSON that its DER contradicts: once the DER is
    # attached, the record is the DER's parse.
    bundle = generate(ScenarioSpec("figure1", seed=1, mode="cryptographic"))
    bundle.write(tmp_path / "bundle")
    lines = (tmp_path / "bundle" / "certs.jsonl").read_text().splitlines()
    edited = json.loads(lines[0])
    edited["sig_alg"], edited["path_len"] = "md5-rsa", 7
    (tmp_path / "edited.jsonl").write_text(json.dumps(edited) + "\n")
    ws_dir = tmp_path / "ws"
    for fmt, path in (("jsonl", tmp_path / "edited.jsonl"),
                      ("pem", tmp_path / "bundle" / "certs.pem")):
        code, _, _ = _run(capsys, "ingest", "--ws", str(ws_dir),
                          "--format", fmt, str(path))
        assert code == 0
    def edited_record(records):
        return next(r for r in records
                    if r.fingerprint == edited["fingerprint"])
    assert edited_record(Workspace(ws_dir).load_records()) == \
        edited_record(bundle.records)
    assert json.loads((ws_dir / "certs" / f"{edited['fingerprint']}.json")
                      .read_text()) == json.loads(lines[0])


@pytest.mark.parametrize("with_paths", [False, True])
def test_ingest_upgrades_a_workspace_without_its_signature_file(
        tmp_path, capsys, with_paths):
    # An older xsign wrote no signature file, and parsed a record with raw
    # bytes from its `.der` without reading its `.json`.
    fresh, bundle_dir = _pem_workspace(tmp_path, capsys, "fresh")
    old, _ = _pem_workspace(tmp_path, capsys, "old")
    (old / "certs" / "signatures.jsonl").unlink()
    stale = min((old / "certs").glob("*.json"))
    obj = json.loads(stale.read_text())
    obj["key_usages"] = []
    stale.write_text(json.dumps(obj) + "\n")
    for argv in (["analyze"], ["lint"], ["report", "--kind", "findings"]):
        code, out, err = _run(capsys, *argv, "--ws", str(old),
                              "--mode", "cryptographic")
        assert code == 3 and out == "", argv
        payload = json.loads(err)
        assert payload["error"] == "schema" and payload["path"] == str(old)
        assert "re-run `xsign ingest" in payload["detail"]
    paths = ["--format", "pem", str(bundle_dir / "certs.pem")] \
        if with_paths else []
    code, out, _ = _run(capsys, "ingest", "--ws", str(old), *paths)
    assert code == 0
    assert json.loads(out)["duplicates"] == (15 if with_paths else 0)
    names = sorted(os.listdir(fresh / "certs"))
    assert sorted(os.listdir(old / "certs")) == names
    for name in names:
        assert (old / "certs" / name).read_bytes() == \
            (fresh / "certs" / name).read_bytes(), name
    for ws_dir in (fresh, old):
        code, _, _ = _run(capsys, "analyze", "--ws", str(ws_dir),
                          "--mode", "cryptographic")
        assert code == 0
    for name in ("groups.jsonl", "assessments.jsonl", "findings.jsonl",
                 "lint.jsonl"):
        assert (old / "reports" / name).read_bytes() == \
            (fresh / "reports" / name).read_bytes(), name


def test_an_interrupted_ingest_leaves_no_signature_file(tmp_path, capsys,
                                                        monkeypatch):
    ws_dir, _ = _pem_workspace(tmp_path, capsys)
    generate(ScenarioSpec("mutual", seed=1, mode="cryptographic")).write(
        tmp_path / "more")
    real_replace = os.replace

    def replace(src, dst):
        # The process "dies" before the new signature file is in place.
        if Path(dst).name == "signatures.jsonl":
            raise OSError("killed")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="killed"):
        Workspace(ws_dir).ingest_paths([tmp_path / "more" / "certs.pem"],
                                       "pem")
    monkeypatch.undo()
    assert not (ws_dir / "certs" / "signatures.jsonl").exists()
    code, _, err = _run(capsys, "analyze", "--ws", str(ws_dir))
    assert code == 3 and json.loads(err)["path"] == str(ws_dir)
    code, _, _ = _run(capsys, "ingest", "--ws", str(ws_dir))
    assert code == 0
    assert not _loads_cryptography(
        ["analyze", "--ws", str(ws_dir), "--mode", "cryptographic"])


def test_ingest_onto_a_file_is_a_schema_error(tmp_path, capsys):
    path = tmp_path / "F"
    path.write_text("")
    code, out, err = _run(capsys, "ingest", "--ws", str(path))
    assert code == 3 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "schema" and payload["path"] == str(path)
    assert path.read_text() == ""


@pytest.mark.parametrize("argv", [
    ["report", "--kind", "assessments", "--format", "csv"], ["lint"]])
def test_a_reader_that_stops_early_ends_the_command_quietly(tmp_path, capsys,
                                                           argv):
    # As `xsign ... | head -1`: the reader is gone before the command is
    # done writing.
    ws_dir, _ = _make_ws(tmp_path, capsys)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from xsign.cli import main; sys.exit(main())",
             *argv, "--ws", str(ws_dir)],
            env=_env(), stdout=write, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write)
    assert proc.stderr == b""
    assert proc.returncode == 141
    assert (ws_dir / "reports" / "lint.jsonl").exists()


@pytest.mark.parametrize("views", ["no-revocations=crl,all", "v=crl,v="])
def test_analysis_rejects_repeated_and_reserved_view_ids(tmp_path, capsys,
                                                         views):
    ws_dir, _ = _make_ws(tmp_path, capsys, scenario="figure1")
    for command in ("analyze", "lint"):
        code, out, err = _run(capsys, command, "--ws", str(ws_dir),
                              "--views", views)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "analysis"
    assert not any((ws_dir / "reports").iterdir())


@pytest.mark.parametrize("views", _BAD_VIEW_IDS)
def test_commands_reject_a_views_file_with_repeated_or_reserved_ids(
        tmp_path, capsys, views):
    ws_dir, _ = _make_ws(tmp_path, capsys, scenario="figure1")
    path = ws_dir / "config" / "views.json"
    path.write_text(json.dumps({"views": views}))
    for command in ("analyze", "lint"):
        code, out, err = _run(capsys, command, "--ws", str(ws_dir))
        assert code == 3 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "schema" and payload["path"] == str(path)


def test_inputs_are_hashed_once_per_command(tmp_path, capsys, monkeypatch):
    ws_dir, _ = _make_ws(tmp_path, capsys, scenario="figure1")
    hashes = []

    def counting(*args):
        hashes.append(args)
        return hashlib.sha256(*args)

    monkeypatch.setattr(xsign.workspace, "hashlib",
                        types.SimpleNamespace(sha256=counting))
    # A cold analyze checks its stamp and writes two entries; a cold lint
    # checks and writes one; a cached analyze only checks.
    for argv in (("analyze",), ("analyze",), ("lint", "--max-validity", "30")):
        hashes.clear()
        code, _, _ = _run(capsys, *argv, "--ws", str(ws_dir))
        assert code == 0 and len(hashes) == 1, argv
    monkeypatch.undo()
    # Each entry's digest is the one earlier versions recorded: the file
    # names in certs/, each config file's name and bytes, then the options.
    for entry in json.loads((ws_dir / "reports" / "stamp.json")
                            .read_text()).values():
        digest = hashlib.sha256()
        for name in sorted(os.listdir(ws_dir / "certs")):
            digest.update(name.encode())
        for name in sorted(os.listdir(ws_dir / "config")):
            digest.update(name.encode())
            digest.update((ws_dir / "config" / name).read_bytes())
        digest.update(json.dumps(entry["options"], sort_keys=True).encode())
        assert entry["input_hash"] == digest.hexdigest()


def test_report_rejects_a_rendering_before_analysing(tmp_path, capsys):
    ws_dir, _ = _make_ws(tmp_path, capsys, scenario="figure1")
    for kind, fmt in (("groups", "csv"), ("lint", "csv"),
                      ("assessments", "md")):
        code, out, err = _run(capsys, "report", "--ws", str(ws_dir),
                              "--kind", kind, "--format", fmt)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "usage"
    assert not any((ws_dir / "reports").iterdir())


def test_report_streams_the_same_bytes_to_stdout_and_out(tmp_path, capsys):
    ws_dir, _ = _make_ws(tmp_path, capsys, scenario="figure1")
    for kind, fmt in (("assessments", "json"), ("assessments", "csv"),
                      ("groups", "json"), ("findings", "json"),
                      ("findings", "csv"), ("findings", "md"),
                      ("lint", "json")):
        out_path = tmp_path / f"{kind}.{fmt}"
        code, printed, _ = _run(capsys, "report", "--ws", str(ws_dir),
                                "--kind", kind, "--format", fmt)
        assert code == 0 and printed
        code, _, _ = _run(capsys, "report", "--ws", str(ws_dir), "--kind",
                          kind, "--format", fmt, "--out", str(out_path))
        assert code == 0 and out_path.read_text(encoding="utf-8") == printed
    # The JSON rendering of a report is the report itself.
    for kind in ("assessments", "groups", "findings", "lint"):
        assert (tmp_path / f"{kind}.json").read_bytes() == (
            ws_dir / "reports" / f"{kind}.jsonl").read_bytes(), kind


def test_report_names_an_out_file_it_cannot_write(tmp_path, capsys):
    ws_dir, _ = _make_ws(tmp_path, capsys, scenario="figure1")
    (tmp_path / "adir").mkdir()
    for out_path in (tmp_path / "nodir" / "x.csv", tmp_path / "adir"):
        code, out, err = _run(capsys, "report", "--ws", str(ws_dir),
                              "--kind", "findings", "--format", "csv",
                              "--out", str(out_path))
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "usage"
        assert payload["path"] == str(out_path)
    assert not (tmp_path / "nodir").exists()
    assert not any((tmp_path / "adir").iterdir())
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("argv", [("analyze",), ("lint",), ("report",),
                                  ("report", "--kind", "lint")])
def test_only_ingest_creates_a_workspace(tmp_path, capsys, argv):
    missing, empty = tmp_path / "missing", tmp_path / "empty"
    empty.mkdir()
    for ws_dir in (missing, empty):
        code, out, err = _run(capsys, *argv, "--ws", str(ws_dir))
        assert code == 3 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "schema"
        assert payload["path"] == str(ws_dir)
    assert not missing.exists()
    assert not any(empty.iterdir())


def test_analysis_rejects_limits_below_their_range(tmp_path, capsys):
    ws_dir, _ = _make_ws(tmp_path, capsys)
    validity = "max_validity_days must be >= 1"
    overlap = "overlap_min must be >= 0"
    for argv, detail in ((("lint", "--max-validity", "-3"), validity),
                         (("lint", "--max-validity", "0"), validity),
                         (("analyze", "--overlap-min", "-5"), overlap),
                         (("lint", "--overlap-min", "-1"), overlap),
                         (("report", "--overlap-min", "-5"), overlap)):
        code, out, err = _run(capsys, *argv, "--ws", str(ws_dir))
        assert code == 1 and out == "", argv
        assert json.loads(err) == {"error": "analysis", "detail": detail}
    assert not any((ws_dir / "reports").iterdir())
    for argv in (("lint", "--max-validity", "1"),
                 ("analyze", "--overlap-min", "0")):
        code, out, _ = _run(capsys, *argv, "--ws", str(ws_dir))
        assert code == 0 and out, argv
    with pytest.raises(ValueError, match=validity):
        AnalysisOptions(max_validity_days=0)
    with pytest.raises(ValueError, match=overlap):
        AnalysisOptions(overlap_min=-1)


def _write_crypto_bundle(tmp_path):
    bundle = generate(ScenarioSpec("figure1", seed=1, mode="cryptographic"))
    bundle.write(tmp_path / "bundle")
    return bundle


@pytest.mark.parametrize("fmt, name", [
    # A cryptographic bundle under the default format: `certs.pem` is PEM.
    ("jsonl", "bundle"),
    ("pem", "one.der"),
    ("jsonl", "one.der"),
    # Bytes that are not UTF-8: as JSONL, which no suffix overrides, and as
    # a config document.
    ("jsonl", "blob.bin"),
    ("jsonl", "blob.json"),
])
def test_ingest_reads_each_file_as_its_suffix_says(tmp_path, capsys, fmt,
                                                   name):
    bundle = _write_crypto_bundle(tmp_path)
    (tmp_path / "one.der").write_bytes(bundle.records[0].raw)
    for blob in ("blob.bin", "blob.json"):
        (tmp_path / blob).write_bytes(b"\xff\xfe\x00binary\x80\n")
    ws_dir, path = tmp_path / "ws", tmp_path / name
    code, out, err = _run(capsys, "ingest", "--ws", str(ws_dir),
                          "--format", fmt, str(path))
    if name.startswith("blob"):
        assert code == 3 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "schema" and payload["path"] == str(path)
        return
    assert code == 0, err
    summary = json.loads(out)
    records = Workspace(ws_dir).load_records()
    assert all(r.raw is not None for r in records)
    if name == "bundle":
        assert (summary["added"], summary["duplicates"]) == (15, 15)
        assert summary["stores"] > 0 and summary["views"] > 0
        assert (ws_dir / "config" / "stores.json").exists()
    else:
        assert summary["added"] == 1
        assert [r.fingerprint for r in records] == \
            [bundle.records[0].fingerprint]


def test_der_files_ingest_as_their_pem_bundle_does(tmp_path, capsys):
    bundle = _write_crypto_bundle(tmp_path)
    der_dir = tmp_path / "der"
    der_dir.mkdir()
    for label in bundle.labels:
        (der_dir / f"{label}.der").write_bytes(bundle.record(label).raw)
    for ws_name, path in (("from-pem", tmp_path / "bundle" / "certs.pem"),
                          ("from-der", der_dir)):
        code, _, err = _run(capsys, "ingest", "--ws", str(tmp_path / ws_name),
                            str(path))
        assert code == 0, err
    names = sorted(os.listdir(tmp_path / "from-pem" / "certs"))
    assert "signatures.jsonl" in names and len(names) == 31
    assert sorted(os.listdir(tmp_path / "from-der" / "certs")) == names
    for name in names:
        assert (tmp_path / "from-der" / "certs" / name).read_bytes() == \
            (tmp_path / "from-pem" / "certs" / name).read_bytes(), name


@pytest.mark.parametrize("name", ["cut.der", "garbled.pem"])
def test_undecodable_certificate_files_are_named(tmp_path, capsys, name):
    bundle = _write_crypto_bundle(tmp_path)
    if name.endswith(".der"):
        raw = bundle.records[0].raw
        data = raw[:len(raw) // 2]
    else:
        pem = (tmp_path / "bundle" / "certs.pem").read_text()
        block = pem[:pem.index("-----END CERTIFICATE-----\n") + 26]
        head, *body, tail = block.splitlines()
        data = "\n".join([head, body[0][::-1], *body[1:], tail, ""]).encode()
    path = tmp_path / name
    path.write_bytes(data)
    code, out, err = _run(capsys, "ingest", "--ws", str(tmp_path / "ws"),
                          str(path))
    assert code == 3 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "schema" and payload["path"] == str(path)
    assert payload["detail"].startswith("undecodable certificate")


@pytest.mark.parametrize("command, name", [
    ("ingest", "missing.jsonl"), ("ingest", "missing.pem"),
    ("ingest", "missing.json"), ("ingest", "missing"),
    ("scenario", "afile"), ("scenario", "afile/sub"),
])
def test_a_path_given_that_cannot_be_used_is_a_usage_error(tmp_path, capsys,
                                                          command, name):
    (tmp_path / "afile").write_text("kept\n")
    path = str(tmp_path / name)
    if command == "ingest":
        bundle = _write_crypto_bundle(tmp_path)
        good = tmp_path / "one.der"
        good.write_bytes(bundle.records[0].raw)
        argv = ("ingest", "--ws", str(tmp_path / "ws"), str(good), path)
    else:
        argv = ("scenario", "figure1", "--out", path)
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload.pop("detail")
    assert payload == {"error": "usage", "path": path}
    if command == "ingest":
        # The input before the missing one stays, with its signature file,
        # which `load_records` requires.
        records = Workspace(tmp_path / "ws").load_records()
        assert [r.fingerprint for r in records] == \
            [bundle.records[0].fingerprint]
    else:
        assert (tmp_path / "afile").read_text() == "kept\n"


def test_workspace_files_are_read_as_utf8_in_any_locale(tmp_path, capsys):
    ws_dir, _ = _make_ws(tmp_path, capsys, scenario="figure1")
    config = ws_dir / "config"
    (config / "views.json").write_text(json.dumps(
        {"views": [{"consumer_id": "mü", "accepted_sources": []}]},
        ensure_ascii=False), encoding="utf-8")
    (config / "explanations.jsonl").write_text(
        json.dumps({"explained": "Zürich"}, ensure_ascii=False) + "\n",
        encoding="utf-8")
    # An ASCII locale, with neither UTF-8 mode nor locale coercion.
    env = dict(_env(), LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    for _ in range(2):  # cold, then served from the stamp
        proc = subprocess.run(
            [sys.executable, "-m", "xsign.cli", "analyze", "--ws", str(ws_dir)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["cached"] is True
    rows = (ws_dir / "reports" / "assessments.jsonl").read_text("utf-8")
    assert {json.loads(line)["view"] for line in rows.splitlines()} == {"mü"}
