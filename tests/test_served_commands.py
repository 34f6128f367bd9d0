"""A command served from the cache (a cached `analyze`, a served `lint`,
`report` over current reports) runs only the CLI, the workspace, the
renderers and the constants. `xsign.cli` registers the model modules
lazily: each sits in `sys.modules` as a module that has not run, until one
of its attributes is read."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import xsign
from xsign.cli import main

MODEL_MODULES = ("analysis", "findings", "pathengine", "xsdetect", "xsext",
                 "certmodel", "revocation", "truststore", "names",
                 "intervals", "timeutil")

REPORTS = [("findings", "json"), ("groups", "json"), ("assessments", "json"),
           ("lint", "json"), ("findings", "md"), ("findings", "csv"),
           ("assessments", "csv")]
SERVED = [["analyze"], ["lint"],
          *(["report", "--kind", kind, "--format", fmt]
            for kind, fmt in REPORTS)]

# Run in a fresh interpreter: each command of argv[1] with its standard
# output in the file named beside it, then print which model modules ran
# (a module that ran is a plain module; a registered one that did not is
# the lazy subclass) and whether `cryptography` was imported.
_SERVE = """
import contextlib, json, sys, types
from xsign.cli import main
for argv, out in json.loads(sys.argv[1]):
    with open(out, "w", encoding="utf-8") as fh, \\
            contextlib.redirect_stdout(fh):
        assert main(argv) == 0, argv
ran = [name for name in json.loads(sys.argv[2])
       if type(sys.modules.get("xsign." + name)) is types.ModuleType]
print(json.dumps({"ran": ran, "cryptography": "cryptography" in sys.modules}))
"""

# Run in a fresh interpreter: the command of argv[1], printing the model
# modules that had not run when it read its first input.
_FIRST_INPUT = """
import json, sys, types
from xsign.cli import main
from xsign.workspace import Workspace
unrun = []
original = Workspace.load_revocations
def load_revocations(self):
    if not unrun:
        unrun.append([name for name in json.loads(sys.argv[2])
                      if type(sys.modules["xsign." + name])
                      is not types.ModuleType])
    return original(self)
Workspace.load_revocations = load_revocations
assert main(json.loads(sys.argv[1])) == 0
print(json.dumps(unrun))
"""


def _python(script: str, argv: list) -> object:
    """The last line `script` prints, as JSON, run in a fresh interpreter
    with `argv` and the model module names as its two arguments."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(xsign.__file__).parents[1]),
                    os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv),
         json.dumps(MODEL_MODULES)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cold(ws_template: Path, ws_dir: Path, argv: list, capsys) -> str:
    """The standard output of `argv` on a fresh copy of the ingested
    workspace, which has no reports yet."""
    shutil.copytree(ws_template, ws_dir)
    capsys.readouterr()
    assert main([*argv, "--ws", str(ws_dir)]) == 0, argv
    return capsys.readouterr().out


@pytest.mark.parametrize("fixture, fmt, flags", [
    ("certinomis", "jsonl", []),
    ("figure1_crypto", "pem", ["--mode", "cryptographic"]),
])
def test_served_commands_run_no_model_module(tmp_path, capsys, request,
                                             fixture, fmt, flags):
    bundle_dir = tmp_path / "bundle"
    request.getfixturevalue(fixture).write(bundle_dir)
    # A PEM workspace takes its certificates from `certs.pem` alone.
    skipped = "certs.jsonl" if fmt == "pem" else "certs.pem"
    sources = [str(p) for p in sorted(bundle_dir.iterdir())
               if p.name != skipped]
    template = tmp_path / "ingested"
    assert main(["ingest", "--ws", str(template), "--format", fmt,
                 *sources]) == 0
    ws_dir = tmp_path / "ws"
    shutil.copytree(template, ws_dir)
    assert main(["analyze", "--ws", str(ws_dir), *flags]) == 0

    commands = [[[*argv, "--ws", str(ws_dir), *flags],
                 str(tmp_path / f"served{i}.out")]
                for i, argv in enumerate(SERVED)]
    loaded = _python(_SERVE, commands)
    assert loaded == {"ran": [], "cryptography": False}

    cached = json.loads(Path(commands[0][1]).read_text())
    assert cached["cached"] is True
    for i, argv in enumerate(SERVED[1:], start=1):
        served = Path(commands[i][1]).read_text(encoding="utf-8")
        assert served, argv
        assert served == _cold(template, tmp_path / f"cold{i}",
                               [*argv, *flags], capsys), argv


@pytest.mark.parametrize("command", ["analyze", "lint"])
def test_a_cache_miss_runs_the_model_before_reading_inputs(tmp_path, certinomis,
                                                           command):
    """A model module that first ran mid-analysis would compile while the
    inputs fill the heap, and raise the command's peak memory."""
    bundle_dir, ws_dir = tmp_path / "bundle", tmp_path / "ws"
    certinomis.write(bundle_dir)
    assert main(["ingest", "--ws", str(ws_dir), str(bundle_dir)]) == 0
    assert _python(_FIRST_INPUT, [command, "--ws", str(ws_dir)]) == [[]]
