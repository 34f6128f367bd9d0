"""Every function, class, method and module-level constant defined in the
library is referenced somewhere besides its own definition: in the library,
in `scripts/` or in `perfbench/` (whose tracer hooks functions by name).

In the library and `scripts/` a reference is code: a name read, an
attribute, or a name imported; a word in a comment, a docstring or a string
does not count. `perfbench/` is scanned for words, because its tracer names
the functions it hooks in strings."""

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


def _references() -> set[str]:
    seen: set[str] = set()
    for base in CODE:
        for path in sorted(base.rglob("*.py")):
            seen.update(_code_references(path.read_text(encoding="utf-8")))
    for path in sorted(HOOKING.rglob("*.py")):
        seen.update(re.findall(r"[A-Za-z_]\w*",
                               path.read_text(encoding="utf-8")))
    return seen


def _unreferenced() -> set[str]:
    seen = _references()
    return {name for name in _definitions()
            if not (name.startswith("__") and name.endswith("__"))
            and name not in seen}


def test_every_library_definition_is_referenced():
    dead = sorted(_unreferenced() - ALLOWED.keys())
    assert not dead, f"defined but never referenced: {', '.join(dead)}"


def test_allowlist_names_only_unreferenced_definitions():
    stale = sorted(ALLOWED.keys() - _unreferenced())
    assert not stale, f"allowlisted but referenced or gone: {', '.join(stale)}"
