"""Every function that the benchmark's tracer hooks exists in the library.

`perfbench/trace_launch.py` reports a hooked function that no longer exists
as absent, and only the minutes-long `perfbench/selftest.py` fails on that.
These checks catch a deleted or renamed hooked function, a hooked module
that `import xsign.cli` no longer loads (the tracer wraps only the modules
loaded at that point), a moved parameter that an observer reads, and an
argument or result that an observer can no longer read, in the ordinary
test run. They read `HOOKS` and `OBSERVERS` and change nothing in
`perfbench/`."""

import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import xsign
from xsign.analysis import AnalysisOptions, analyze_corpus

TRACE_LAUNCH = Path(__file__).resolve().parents[1] / "perfbench" / "trace_launch.py"

# The parameters the observers read by position (and by this name when
# passed by keyword), with the names the library gives them.
OBSERVED_PARAMETERS = {
    "pathengine.enumerate_paths": {0: "cert", 2: "max_depth", 3: "mode",
                                   4: "anchors"},
    "revocation.matching_records": {2: "revocations"},
    "certmodel.verify_signature": {0: "child", 1: "issuer_candidate"},
}

# Run in a fresh interpreter: import the CLI and nothing else, then resolve
# each hook (given as JSON in argv[1]) in the modules that import loaded.
_RESOLVE_AFTER_CLI_IMPORT = """
import sys
import xsign.cli
import json
missing = []
for prefix, module_name, attr, _ in json.loads(sys.argv[1]):
    owner = sys.modules.get(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    if not callable(owner):
        missing.append(prefix)
print(json.dumps(missing))
"""


def _trace_launch():
    spec = importlib.util.spec_from_file_location("trace_launch", TRACE_LAUNCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooked(hooks: list, prefix: str):
    [(module_name, attr)] = [(m, a) for p, m, a, _ in hooks if p == prefix]
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_hooked_function_exists():
    hooks = _trace_launch().HOOKS
    assert hooks
    missing = []
    for prefix, module_name, attr, _ in hooks:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not module_name.startswith("xsign.") or not callable(owner):
            missing.append(f"{prefix} ({module_name}.{attr})")
    assert not missing, f"hooked but not found: {', '.join(missing)}"


def test_importing_the_cli_loads_every_hooked_function():
    src = str(Path(xsign.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", _RESOLVE_AFTER_CLI_IMPORT,
         json.dumps(_trace_launch().HOOKS)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    missing = json.loads(proc.stdout)
    assert not missing, ("not loaded by `import xsign.cli`: "
                         f"{', '.join(missing)}")


def test_observed_parameters_keep_their_names_and_positions():
    trace_launch = _trace_launch()
    assert OBSERVED_PARAMETERS.keys() <= trace_launch.OBSERVERS.keys()
    for prefix, expected in OBSERVED_PARAMETERS.items():
        names = list(inspect.signature(
            _hooked(trace_launch.HOOKS, prefix)).parameters)
        assert {pos: names[pos] for pos in expected if pos < len(names)} \
            == expected, prefix


def _recorder(calls: list, fn):
    def record(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result
    return record


def test_observers_read_the_calls_of_an_analysis(monkeypatch, figure1_crypto):
    """Every observer, run on the arguments and result of each call of its
    hooked function in a cryptographic analysis, raises nothing. The tracer
    drops an observer that raises and reports its counters absent, which
    only the minutes-long self-test notices."""
    trace_launch = _trace_launch()
    calls = {prefix: [] for prefix in trace_launch.OBSERVERS}
    modules = [m for n, m in sys.modules.items()
               if n == "xsign" or n.startswith("xsign.")]
    for prefix in trace_launch.OBSERVERS:
        original = _hooked(trace_launch.HOOKS, prefix)
        record = _recorder(calls[prefix], original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, record)
    bundle = figure1_crypto
    analyze_corpus(bundle.records, bundle.stores, bundle.revocations,
                   bundle.views, bundle.operator_map,
                   AnalysisOptions(mode="cryptographic"),
                   extensions=bundle.extensions)
    assert all(calls.values()), [p for p, seen in calls.items() if not seen]
    for prefix, observe in trace_launch.OBSERVERS.items():
        counters: dict = {}
        for args, kwargs, result in calls[prefix]:
            observe(counters, args, kwargs, result)


def test_traced_commands_leave_no_hook_absent(tmp_path, certinomis):
    """Each command of a bench pass, started through `trace_launch.py` as
    `perfbench/run.py` starts it, finds every hook, and the spans of the
    pass yield every per-layer metric of `BENCHMARK.json` that `run.py`
    does not add itself. A hooked module that the CLI no longer runs
    before the tracer installs would show up here as absent."""
    trace_launch = _trace_launch()
    root = TRACE_LAUNCH.parents[1]
    declared = {m["name"] for m in json.loads(
        (root / "BENCHMARK.json").read_text())["per_layer"]}
    added_by_run = set(re.findall(r'metrics\["([\w.]+)"\] =',
                                  (root / "perfbench" / "run.py").read_text()))
    assert added_by_run and added_by_run < declared

    bundle, ws = tmp_path / "bundle", str(tmp_path / "ws")
    certinomis.write(bundle)
    src = str(Path(xsign.__file__).parents[1])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    hooks = json.dumps(trace_launch.HOOKS)
    steps = [("ingest", "--ws", ws, str(bundle)), ("analyze", "--ws", ws),
             ("analyze", "--ws", ws), ("lint", "--ws", ws),
             ("report", "--ws", ws, "--kind", "assessments", "--format",
              "csv", "--out", str(tmp_path / "assessments.csv"))]
    spans, printed = [], []
    for i, argv in enumerate(steps):
        spans.append(tmp_path / f"step{i}.spans")
        proc = subprocess.run(
            [sys.executable, str(TRACE_LAUNCH), str(spans[-1]), hooks, *argv],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (argv, proc.stderr)
        printed.append(proc.stdout)
        meta = json.loads(Path(f"{spans[-1]}.json").read_text())
        assert meta["absent"] == [], argv
    assert json.loads(printed[2])["cached"] is True
    metrics, absent = trace_launch.aggregate([spans], trace_launch.HOOKS)
    assert not absent
    assert declared - added_by_run <= metrics.keys(), sorted(
        declared - added_by_run - metrics.keys())
