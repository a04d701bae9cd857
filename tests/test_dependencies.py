"""The package needs nothing beyond the standard library and numpy.

An AST scan reads every ``import`` and ``from`` statement in
``src/mergerfees``; ``pyproject.toml`` is read with a regex, since Python
3.10 has no ``tomllib``.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_package_imports_only_stdlib_and_numpy():
    outside = []
    for path in sorted((ROOT / "src" / "mergerfees").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # other nodes, and the package's own relative imports
                continue
            outside += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in ALLOWED]
    assert not outside, f"imports outside the standard library and numpy: {outside}"


def test_pyproject_depends_on_numpy_alone():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    assert block, "pyproject.toml lists no dependencies"
    names = [re.match(r"[\w.-]+", spec).group() for spec in re.findall(r'"([^"]+)"', block[1])]
    assert names == ["numpy"], f"runtime dependencies: {names}"
