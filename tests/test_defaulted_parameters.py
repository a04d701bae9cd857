"""Every defaulted parameter of the package is passed by some call.

A default that no call overrides is a constant with a name: the value is
settable but nothing sets it. The scan reads each function in
``src/mergerfees`` and every call in ``src/``, ``tests/`` and ``perfbench/``
and matches them by name (a class name for ``__init__``). A parameter
counts as passed when a call with that name gives it by keyword or gives
enough positional arguments to reach it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the scenario builder passes these through ``block.build(**kwargs)``, which
# the scan cannot follow: scenario ``costs`` of a one_stop model
PASSED_BY_KEYWORD_SPREAD = {("OneStopDemand", "costs")}


def _defaulted_parameters():
    """(module, callable name, parameter, position after self or None) for each default."""
    found = []
    for path in sorted((ROOT / "src" / "mergerfees").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = {
            child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
        }
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner = owners[fn]
            method = isinstance(owner, ast.ClassDef)
            name = owner.name if method and fn.name == "__init__" else fn.name
            positional = fn.args.posonlyargs + fn.args.args
            bound = 1 if method and positional and positional[0].arg in ("self", "cls") else 0
            first = len(positional) - len(fn.args.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                found.append((path.stem, name, arg.arg, i - bound))
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    found.append((path.stem, name, arg.arg, None))
    return found


def _calls():
    """(called name, positional argument count, keyword names) for every call."""
    calls = []
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                positional = sum(not isinstance(a, ast.Starred) for a in node.args)
                calls.append((name, positional, {k.arg for k in node.keywords}))
    return calls


def _passes(call, name, param, position):
    called, positional, keywords = call
    # super().__init__(...) reaches the defaults of a base class's __init__
    if called != name and not (called == "__init__" and name[:1].isupper()):
        return False
    return param in keywords or (position is not None and positional > position)


def test_every_defaulted_parameter_is_passed_by_some_call():
    calls = _calls()
    unpassed = [
        f"{module}.{name}({param})"
        for module, name, param, position in _defaulted_parameters()
        if (name, param) not in PASSED_BY_KEYWORD_SPREAD
        and not any(_passes(call, name, param, position) for call in calls)
    ]
    assert not unpassed, "defaulted parameters no call passes: " + ", ".join(unpassed)
