"""Every function, class, method and module-level constant defined in the
library is referenced somewhere besides its own definition: in the library,
in `scripts/` or in `perfbench/` (whose tracer hooks functions by name).

In the library and `scripts/` a reference is code: a name read, an
attribute, or a name imported; a word in a comment, a docstring or a string
does not count. `perfbench/` is scanned for words, because its tracer names
the functions it hooks in strings. A definition that only `perfbench/`
keeps alive is listed, with its reason, in `BENCH_ONLY`."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "xsign"
CODE = (LIBRARY, ROOT / "scripts")
HOOKING = ROOT / "perfbench"

# Unreferenced on purpose, one reason each.
ALLOWED = {
    "XS_EXTENSION_OID": "the README gives its value as the motivation "
                        "extension's identifier",
}

# Called only by `perfbench/`, one reason each.
BENCH_ONLY = {
    "assess_trust": "the tracer hooks it for the `pathengine.assess_trust` "
                    "rows; ROADMAP.md deletes it once those rows time "
                    "`assess_paths`",
    "usable_paths": "the trace launcher counts usable paths with it; "
                    "ROADMAP.md deletes it with `assess_trust`",
}


def _definitions() -> set[str]:
    defined: set[str] = set()
    for path in sorted(LIBRARY.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(module):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.add(node.name)
        for node in module.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            defined.update(target.id for target in targets
                           if isinstance(target, ast.Name))
    return defined


def _code_references(source: str) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.alias):
            names.extend(node.name.split("."))
    return names


def _references() -> tuple[set[str], set[str]]:
    """The names the library and `scripts/` reference in code, and the
    words of `perfbench/`."""
    code: set[str] = set()
    for base in CODE:
        for path in sorted(base.rglob("*.py")):
            code.update(_code_references(path.read_text(encoding="utf-8")))
    words: set[str] = set()
    for path in sorted(HOOKING.rglob("*.py")):
        words.update(re.findall(r"[A-Za-z_]\w*",
                                path.read_text(encoding="utf-8")))
    return code, words


def _unreferenced(seen: set[str]) -> set[str]:
    return {name for name in _definitions()
            if not (name.startswith("__") and name.endswith("__"))
            and name not in seen}


def test_every_library_definition_is_referenced():
    code, words = _references()
    dead = sorted(_unreferenced(code | words) - ALLOWED.keys())
    assert not dead, f"defined but never referenced: {', '.join(dead)}"


def test_allowlist_names_only_unreferenced_definitions():
    code, words = _references()
    stale = sorted(ALLOWED.keys() - _unreferenced(code | words))
    assert not stale, f"allowlisted but referenced or gone: {', '.join(stale)}"


def test_definitions_only_the_bench_calls_are_listed():
    code, words = _references()
    bench_only = _unreferenced(code) - _unreferenced(code | words)
    assert bench_only == BENCH_ONLY.keys()
