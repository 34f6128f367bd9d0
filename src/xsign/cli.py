"""Command-line front end.

Exit codes: 0 ok, 1 analysis error, 2 usage error (among them an `ingest`
input that cannot be read, and a `scenario --out` directory or a `report
--out` file that cannot be written), 3 input schema error (a `--ws` that
`ingest` did not make, or that is not a directory, among them), 141
standard output closed by its reader before the command was done (quietly,
as `cat` killed by SIGPIPE). Errors go to stderr as one JSON object per
failure; a warning (a result cut short by `--max-depth`) goes there the same
way and leaves the exit code as it is.

A command served from the cache (a cached `analyze`, a served `lint`,
`report` over current reports) runs only this module, `workspace`,
`reports` and `constants`. The model modules are registered lazily before
the package's own imports: each is in `sys.modules` and on the package, and
runs when one of its attributes is first read. So this module, `workspace`
and `reports` name model code as `module.attr`, never by a from-import, which
would run the module. A command that misses the cache runs every model
module before it reads its inputs (see `_analysis_inputs`).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

_MODEL_MODULES = ("analysis", "findings", "pathengine", "xsdetect", "xsext",
                  "certmodel", "revocation", "truststore", "names",
                  "intervals", "timeutil")


def _register_lazily(names: tuple[str, ...]):
    """Put each module of the package named in `names` into `sys.modules`
    and onto the package without running it. A module already imported is
    left as it is."""
    package = sys.modules[__package__]
    for name in names:
        qualified = f"{__package__}.{name}"
        if qualified in sys.modules:
            continue
        spec = importlib.util.find_spec(qualified)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[qualified] = module
        spec.loader.exec_module(module)
        setattr(package, name, module)


# Before the package's own imports, so that none of them runs a model module.
_register_lazily(_MODEL_MODULES)

from . import analysis, pathengine, reports, revocation, truststore
from .constants import (DEFAULT_MAX_DEPTH, DEFAULT_MAX_VALIDITY_DAYS,
                        DEFAULT_OVERLAP_MIN_DAYS, MODES)
from .workspace import SchemaError, UsageError, Workspace, _write_atomic

if TYPE_CHECKING:
    from .revocation import RevocationRecord, RevocationView

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_USAGE = 2
EXIT_SCHEMA = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports `cat` cut short

REPORT_FILES = ("groups.jsonl", "reissuance.jsonl", "assessments.jsonl",
                "findings.jsonl")
LINT_REPORT = "lint.jsonl"


def _err(payload: dict):
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _parse_views(spec: str,
                 revocations: list[RevocationRecord]) -> list[RevocationView]:
    views = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        if "=" in entry:
            name, _, srcs = entry.partition("=")
            views.append(revocation.RevocationView(
                name, frozenset(s for s in srcs.split("+") if s)))
        elif entry == "all":
            views.append(revocation.all_sources_view(revocations))
        elif entry == "none":
            views.append(revocation.RevocationView("none", frozenset()))
        else:
            views.append(revocation.RevocationView(entry, frozenset([entry])))
    return views


def _options_dict(args) -> dict:
    """The key of both stamp entries: the options as given, view order
    included. `--views` and `--stores` are keyed as typed (null `--views`
    meaning `views.json`); the config files they resolve against are in the
    input hash."""
    return {"max_depth": args.max_depth, "overlap_min": args.overlap_min,
            "mode": args.mode, "max_validity": args.max_validity,
            "stores": args.stores, "views": args.views}


def _analysis_inputs(args, ws: Workspace) -> dict:
    """Every input an analysis reads, each loaded once, as the keywords of
    both `analyze_corpus` and `lint_corpus`. With no view given by
    `--views` or `views.json`, the run uses one view that accepts every
    source. A view id given twice, or equal to the coverage view's, is an
    analysis error.

    Every model module runs first, before any input is read. Reading an
    attribute of a lazily registered module runs it; one first read
    mid-analysis (`xsext`, `intervals`) would compile while the inputs fill
    the heap, and that transient memory would add to the peak."""
    for name in _MODEL_MODULES:
        getattr(sys.modules[f"{__package__}.{name}"], "__dict__")
    revocations = ws.load_revocations()
    views = (_parse_views(args.views, revocations) if args.views
             else ws.load_views()) or [revocation.all_sources_view(revocations)]
    revocation.check_view_ids(views)
    store_ids = args.stores.split(",") if args.stores else None
    stores = pathengine.select_stores(ws.load_stores(), store_ids)
    return dict(
        records=ws.load_records(), stores=stores, revocations=revocations,
        views=views, operator_map=ws.load_operator_map(),
        options=analysis.AnalysisOptions(
            max_depth=args.max_depth, overlap_min=args.overlap_min,
            mode=args.mode, max_validity_days=args.max_validity),
        extensions=ws.load_extensions(), explanations=ws.load_explanations())


def _warn_truncated(count: int, max_depth: int):
    if count:
        _err({"warning": "truncated", "certs": count, "max_depth": max_depth})


def _run_analysis(args, ws: Workspace):
    """Materialize the reports, `lint.jsonl` among them, unless the stamp
    says they are current, and warn when the depth bound cut enumeration
    short. Returns the analysis result (None on a cache hit) and the number
    of certificates whose enumeration was cut short."""
    options = _options_dict(args)
    stamp = ws.current_stamp("analysis", options, REPORT_FILES)
    if stamp is not None:
        result, truncated = None, stamp["truncated"]
    else:
        result = analysis.analyze_corpus(**_analysis_inputs(args, ws))
        ws.drop_stamp("analysis", "lint")
        ws.write_report("groups.jsonl", reports.groups_jsonl(result.xs_groups))
        ws.write_report("reissuance.jsonl",
                        reports.groups_jsonl(result.reissuance_groups))
        # Assesses every certificate that is not a cross-sign member as
        # its rows are written, and completes `rows.truncated`.
        ws.write_report("assessments.jsonl",
                        reports.assessments_jsonl(result.rows))
        ws.write_report("findings.jsonl",
                        reports.findings_jsonl(result.findings))
        ws.write_report(LINT_REPORT, reports.lint_jsonl(result.verdicts))
        truncated = len(result.rows.truncated)
        ws.write_stamp(analysis=(options, truncated),
                       lint=(options, len(result.truncated_members)))
    _warn_truncated(truncated, args.max_depth)
    return result, truncated


def _run_lint(args, ws: Workspace) -> Iterable[str]:
    """The verdict lines of `lint.jsonl`, linting anew and rewriting it
    unless its stamp entry is current; warns when the depth bound cut a
    member's enumeration short."""
    options = _options_dict(args)
    stamp = ws.current_stamp("lint", options, [LINT_REPORT])
    if stamp is not None:
        lines = ws.report_lines(LINT_REPORT)
        truncated = stamp["truncated"]
    else:
        verdicts, members = analysis.lint_corpus(**_analysis_inputs(args, ws))
        lines = reports.lint_jsonl(verdicts)
        ws.drop_stamp("lint")
        ws.write_report(LINT_REPORT, lines)
        truncated = len(members)
        ws.write_stamp(lint=(options, truncated))
    _warn_truncated(truncated, args.max_depth)
    return lines


def cmd_scenario(args) -> int:
    from .corpus import ScenarioSpec, UnknownScenario, generate
    params = {}
    for item in args.param or ():
        key, _, value = item.partition("=")
        params[key] = int(value) if value.isdigit() else value
    try:
        bundle = generate(ScenarioSpec(args.scenario_id, seed=args.seed,
                                       mode=args.mode, params=params))
    except UnknownScenario as exc:
        _err({"error": "unknown_scenario", "detail": str(exc)})
        return EXIT_ANALYSIS
    try:
        bundle.write(Path(args.out))
    except OSError as exc:
        raise UsageError("cannot write the --out directory: "
                         f"{exc.strerror}", args.out) from exc
    print(json.dumps({"scenario": args.scenario_id, "seed": args.seed,
                      "mode": args.mode, "certs": len(bundle.records),
                      "out": str(args.out)}, sort_keys=True))
    return EXIT_OK


def cmd_ingest(args) -> int:
    ws = Workspace(Path(args.workspace))
    summary = ws.ingest_paths([Path(p) for p in args.paths], args.format)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_analyze(args) -> int:
    ws = Workspace.existing(Path(args.workspace))
    result, truncated = _run_analysis(args, ws)
    summary = {"workspace": str(ws.root), "cached": result is None,
               "reports": sorted((*REPORT_FILES, LINT_REPORT)),
               "truncated": truncated}
    if result is not None:
        summary["findings"] = len(result.findings)
        summary["xs_groups"] = len(result.xs_groups)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_lint(args) -> int:
    for line in _run_lint(args, Workspace.existing(Path(args.workspace))):
        print(line)
    return EXIT_OK


def cmd_report(args) -> int:
    """Render a report as its lines are read; only the markdown rendering
    needs every finding at once. The JSON rendering is the report's own
    non-blank lines."""
    if args.format == "md" and args.kind != "findings":
        _err({"error": "usage",
              "detail": "markdown rendering exists for findings only"})
        return EXIT_USAGE
    if args.format == "csv" and args.kind not in ("findings", "assessments"):
        _err({"error": "usage",
              "detail": f"csv rendering not available for {args.kind}"})
        return EXIT_USAGE
    ws = Workspace.existing(Path(args.workspace))
    if args.kind == "lint":
        lines = _run_lint(args, ws)
    else:
        _run_analysis(args, ws)
        lines = ws.report_lines(f"{args.kind}.jsonl")
    lines = (line for line in lines if line.strip())
    rows = (json.loads(line) for line in lines)
    if args.format == "json":
        out = (f"{line}\n" for line in lines)
    elif args.format == "md":
        out = [reports.findings_markdown(list(rows))]
    elif args.kind == "findings":
        out = [reports.findings_csv(rows)]
    else:
        out = reports.assessments_csv(rows)
    if args.out:
        try:
            _write_atomic(Path(args.out), (chunk.encode() for chunk in out))
        except OSError as exc:
            raise UsageError(f"cannot write the --out file: {exc.strerror}",
                             args.out) from exc
    else:
        sys.stdout.writelines(out)
    return EXIT_OK


def _add_analysis_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH,
                        help="maximum path length in certificates")
    parser.add_argument("--overlap-min", type=int,
                        default=DEFAULT_OVERLAP_MIN_DAYS,
                        help="minimum overlap in days for a cross-sign group")
    parser.add_argument("--mode", default="structural", choices=MODES)
    parser.add_argument("--views", default=None,
                        help="comma list: name=src1+src2, bare source name, "
                             "'all' or 'none'")
    parser.add_argument("--stores", default=None,
                        help="comma list of store ids to assess "
                             "(default: all configured)")
    # Only `lint` has `--max-validity`; `report --kind lint` lints at this.
    parser.set_defaults(max_validity=DEFAULT_MAX_VALIDITY_DAYS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xsign",
        description="Cross-sign analysis over certificate corpora")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenario", help="generate a synthetic corpus bundle")
    p.add_argument("scenario_id")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--mode", default="structural",
                   choices=["structural", "cryptographic"])
    p.add_argument("--out", required=True)
    p.add_argument("--param", action="append",
                   help="scenario parameter, e.g. n=200")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("ingest", help="ingest certificates and configs")
    p.add_argument("--ws", dest="workspace", required=True)
    p.add_argument("--format", default="jsonl", choices=["pem", "der", "jsonl"])
    p.add_argument("paths", nargs="*")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("analyze", help="run grouping, assessment and findings")
    p.add_argument("--ws", dest="workspace", required=True)
    _add_analysis_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("lint", help="lint cross-sign groups against the "
                                    "operational rules")
    p.add_argument("--ws", dest="workspace", required=True)
    p.add_argument("--max-validity", type=int,
                   default=DEFAULT_MAX_VALIDITY_DAYS)
    _add_analysis_flags(p)
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("report", help="render a materialized report")
    p.add_argument("--ws", dest="workspace", required=True)
    p.add_argument("--kind", default="findings",
                   choices=["findings", "groups", "assessments", "lint"])
    p.add_argument("--format", default="json", choices=["json", "csv", "md"])
    p.add_argument("--out", default=None)
    _add_analysis_flags(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed standard output early (`xsign lint | head`).
        # Python's flush at exit would fail on it again and print a
        # traceback, so standard output is pointed at the null device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except UsageError as exc:
        _err(exc.to_json())
        return EXIT_USAGE
    except SchemaError as exc:
        _err(exc.to_json())
        return EXIT_SCHEMA
    except (truststore.UnknownStore, ValueError) as exc:
        _err({"error": "analysis", "detail": str(exc)})
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
