"""Every function, class, method and module-level constant defined in the
library is referenced somewhere besides its own definition: in the library,
in `scripts/` or in `perfbench/` (whose tracer hooks functions by name).

The check is by name: a name counts as used when it occurs as an identifier,
in code, a string or a comment, more often than it is defined."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "xsign"
SEARCHED = (LIBRARY, ROOT / "scripts", ROOT / "perfbench")

# Unreferenced on purpose, one reason each.
ALLOWED = {
    "without_raw": "test helper: the interchange round-trip test compares "
                   "a parsed record with its JSON twin through it",
    "XS_EXTENSION_OID": "the README gives its value as the motivation "
                        "extension's identifier",
}


def _definitions() -> Counter:
    defined: Counter = Counter()
    for path in sorted(LIBRARY.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(module):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined[node.name] += 1
        for node in module.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] += 1
    return defined


def _occurrences() -> Counter:
    seen: Counter = Counter()
    for base in SEARCHED:
        for path in sorted(base.rglob("*.py")):
            seen.update(re.findall(r"[A-Za-z_]\w*",
                                   path.read_text(encoding="utf-8")))
    return seen


def _unreferenced() -> set[str]:
    seen = _occurrences()
    return {name for name, count in _definitions().items()
            if not (name.startswith("__") and name.endswith("__"))
            and seen[name] <= count}


def test_every_library_definition_is_referenced():
    dead = sorted(_unreferenced() - ALLOWED.keys())
    assert not dead, f"defined but never referenced: {', '.join(dead)}"


def test_allowlist_names_only_unreferenced_definitions():
    stale = sorted(ALLOWED.keys() - _unreferenced())
    assert not stale, f"allowlisted but referenced or gone: {', '.join(stale)}"
