"""Every function that the benchmark's tracer hooks exists in the library.

`perfbench/trace_launch.py` reports a hooked function that no longer exists
as absent, and only the minutes-long `perfbench/selftest.py` fails on that.
This check catches a deleted or renamed hooked function in the ordinary
test run. It reads `HOOKS` and changes nothing in `perfbench/`."""

import importlib
import importlib.util
from pathlib import Path

TRACE_LAUNCH = Path(__file__).resolve().parents[1] / "perfbench" / "trace_launch.py"


def _hooks() -> list:
    spec = importlib.util.spec_from_file_location("trace_launch", TRACE_LAUNCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


def test_every_hooked_function_exists():
    hooks = _hooks()
    assert hooks
    missing = []
    for prefix, module_name, attr, _ in hooks:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not module_name.startswith("xsign.") or not callable(owner):
            missing.append(f"{prefix} ({module_name}.{attr})")
    assert not missing, f"hooked but not found: {', '.join(missing)}"
