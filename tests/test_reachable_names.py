"""Every function, method and class of the package is named where it is used.

A definition that no package code calls, the benchmark does not wrap and
the README does not document is kept alive only by its own tests. The scan
reads each function, method and class in ``src/mergerfees`` and looks its
name up among:

- each ``Name`` and ``Attribute`` in ``src/`` (a ``def`` and an import or
  re-export are not names of this kind, so they do not count);
- each name, attribute and word of a string in ``perfbench/*.py``, whose
  tracer wraps package functions by their names as strings;
- each word of ``README.md``.

The match is by bare name, so a method is kept by any use of its name.
Dunder methods are called by Python itself and are not scanned.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# buyer-specific fee effects (ROADMAP item 11) restrict an oracle to one
# buyer's products through it
ALLOWED = {"SetFunction.restrict"}


def _definitions(node, prefix=""):
    """(qualified name, bare name) of each function, method and class under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualified = f"{prefix}{child.name}"
            yield qualified, child.name
            yield from _definitions(child, qualified + ".")
        else:
            yield from _definitions(child, prefix)


def _names(path, strings):
    """Every Name and Attribute in path, and with ``strings`` each word of its string constants."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(WORD.findall(node.value))
    return names


def _named():
    names = set(WORD.findall((ROOT / "README.md").read_text(encoding="utf-8")))
    for path in sorted((ROOT / "src").rglob("*.py")):
        names |= _names(path, strings=False)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        names |= _names(path, strings=True)
    return names


def test_every_package_definition_is_named_outside_its_tests():
    named = _named()
    unnamed = [
        f"{path.name}: {qualified}"
        for path in sorted((ROOT / "src" / "mergerfees").glob("*.py"))
        for qualified, name in _definitions(ast.parse(path.read_text(encoding="utf-8")))
        if not (name.startswith("__") and name.endswith("__"))
        and name not in named
        and qualified not in ALLOWED
    ]
    assert not unnamed, "definitions nothing outside the tests names: " + ", ".join(unnamed)


def test_the_allowlist_holds_only_unnamed_definitions():
    named = _named()
    assert all(qualified.rsplit(".", 1)[-1] not in named for qualified in ALLOWED), ALLOWED
