"""Every name a module of ``src/`` or ``tests/`` imports is read there.

An import that nothing reads costs load time and hides what a module
depends on. The scan reads each import of a module, the name it binds (the
``as`` name, or the first part of a dotted module), and looks that name up
among the module's ``Name`` nodes. A package's ``__init__.py`` is skipped:
its imports are the names it exports. ``from __future__`` imports are
compiler directives, not names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unread_imports(path):
    """(line, name) of each name path imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_every_imported_name_is_read():
    modules = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unread = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in modules
        if path.name != "__init__.py"
        for line, name in _unread_imports(path)
    ]
    assert not unread, "imports nothing reads: " + ", ".join(unread)


def test_the_scan_finds_an_unread_import(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import os\nimport numpy as np\nfrom math import pi, tau\n\nprint(np.pi, tau)\n")
    assert _unread_imports(path) == [(1, "os"), (3, "pi")]
