"""Command-line interface: analyze a scenario, run verification suites, sweep.

Exit codes: 0 success (optimizer degeneracy downgrades to a warning),
2 validation error, 3 numerical failure, 1 failed verification rows.
"""

from __future__ import annotations

import argparse
import ast
import copy
import errno
import itertools
import math
import os
import sys

import numpy as np

from .bargaining import MAX_SHAPLEY_PLAYERS
from .errors import ConvergenceError, DomainError, ScenarioError
from .reproduce import SUITES, run_suite
from .scenario import (
    _read_json,
    canonical_json,
    load_scenario,
    parse_scenario,
    render_human,
    run_analysis,
)

EXIT_OK = 0
EXIT_ROWS_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _write_out(text: str, path: str | None) -> None:
    if not path:
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ScenarioError(f"--out: cannot write {path} ({exc.strerror or exc})") from exc


def _check_out(path: str | None) -> None:
    """Reject an ``--out`` path that cannot be written, before any work starts."""
    if not path:
        return
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return
    raise ScenarioError(f"--out: cannot write {path} ({os.strerror(code)})")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ScenarioError(f"--seed: must be >= 0, got {seed}")


def cmd_analyze(args) -> int:
    _check_seed(args.seed)
    scenario = load_scenario(args.file)
    firms, limit = len(scenario.ownership.firms), MAX_SHAPLEY_PLAYERS - 1
    if args.shapley and firms > limit:
        raise ScenarioError(f"--shapley: {firms} firms exceed the exact-enumeration limit ({limit})")
    report = run_analysis(scenario, seed=args.seed, include_shapley=args.shapley)
    text = canonical_json(report)
    _write_out(text, args.out)
    if args.json:
        print(text)
    else:
        print(render_human(report))
    return EXIT_OK


def cmd_reproduce(args) -> int:
    rows = run_suite(args.suite)
    width = max(len(r.name) for r in rows)
    failed = 0
    for r in rows:
        mark = "PASS" if r.passed else "FAIL"
        failed += 0 if r.passed else 1
        rel = {"abs": "~", "ge": ">=", "le": "<=", "exact": "=="}[r.comparison]
        line = (
            f"{mark}  {r.name:<{width}}  computed {r.computed: .6g}  "
            f"{rel} {r.expected:.6g}"
        )
        if r.comparison == "abs":
            line += f" (tol {r.tolerance:g})"
        if r.note:
            line += f"  [{r.note}]"
        print(line)
    print(f"{len(rows) - failed}/{len(rows)} rows passed")
    if args.out:
        _write_out(canonical_json({"suite": args.suite, "rows": [r.describe() for r in rows]}), args.out)
    return EXIT_OK if failed == 0 else EXIT_ROWS_FAILED


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

_ALLOWED_NODES = (
    ast.Expression, ast.BoolOp, ast.And, ast.Or, ast.UnaryOp, ast.Not, ast.USub,
    ast.UAdd, ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Compare,
    ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq, ast.Name, ast.Load,
    ast.Constant,
)


def compile_predicate(expr: str):
    """Compile a small comparison expression over report fields.

    Allowed: names, numeric/string constants, arithmetic, comparisons,
    and/or/not. Example: "gap > 0 and gross == 'strict_gross_complements'".
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ScenarioError(f"predicate: {exc.msg}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ScenarioError(
                f"predicate: {type(node).__name__} not allowed in predicate expressions"
            )
    code = compile(tree, "<predicate>", "eval")

    def evaluate(names: dict) -> bool:
        try:
            return bool(eval(code, {"__builtins__": {}}, names))
        except (NameError, TypeError, ArithmeticError) as exc:
            raise ScenarioError(f"predicate: {exc}") from exc

    return evaluate


def _range_parts(spec: str) -> tuple[str, float, float, int]:
    """Parse key=a:b:n into (dotted key, a, b, n)."""
    if "=" not in spec:
        raise ScenarioError(f"range {spec!r}: expected key=a:b:n")
    key, _, rhs = spec.partition("=")
    parts = rhs.split(":")
    if len(parts) != 3:
        raise ScenarioError(f"range {spec!r}: expected key=a:b:n")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ScenarioError(f"range {spec!r}: {exc}") from exc
    if n < 1:
        raise ScenarioError(f"range {spec!r}: need at least one point")
    return key.strip(), a, b, n


def parse_range(spec: str) -> tuple[str, np.ndarray]:
    """Parse key=a:b:n into (dotted key, n evenly spaced values)."""
    key, a, b, n = _range_parts(spec)
    return key, np.array([a]) if n == 1 else np.linspace(a, b, n)


def _set_path(obj: dict, dotted: str, value: float) -> None:
    parts = dotted.split(".")
    cur = obj
    for part in parts[:-1]:
        if part not in cur or not isinstance(cur[part], dict):
            cur[part] = {}
        cur = cur[part]
    cur[parts[-1]] = float(value)


def _sweep_node(template: dict, assignment: dict[str, float], seed: int) -> dict:
    raw = copy.deepcopy(template)
    for key, value in assignment.items():
        _set_path(raw, key, value)
    row: dict = {"params": dict(sorted(assignment.items()))}
    try:
        scenario = parse_scenario(raw)
        report = run_analysis(scenario, seed=seed)
    except ScenarioError as exc:
        row["error"] = f"validation: {exc}"
        return row
    except (DomainError, ConvergenceError) as exc:
        row["error"] = f"numerical: {exc}"
        return row
    row.update(
        {
            "gap": report["fees"]["gap"],
            "t_pre": report["fees"]["t_pre"],
            "t_post": report["fees"]["t_post"],
            "second_difference": report["profit_relation"]["second_difference"],
            "verdict": report["profit_relation"]["kind"],
            "gross": report["gross_relations"]["overall"],
            "warnings": report["diagnostics"]["warnings"],
        }
    )
    return row


def cmd_sweep(args) -> int:
    _check_seed(args.seed)
    template = _read_json(args.template, "template")
    parse_scenario(copy.deepcopy(template))  # validate before the first node
    predicate = compile_predicate(args.predicate) if args.predicate else None

    if not args.range:
        raise ScenarioError("sweep needs at least one --range")
    # count the nodes before any grid is built: one range may ask for 10^13 points
    total = math.prod(_range_parts(spec)[3] for spec in args.range)
    if total > args.max_nodes:
        raise ScenarioError(
            f"sweep would evaluate {total} nodes, above the --max-nodes cap {args.max_nodes}"
        )
    ranges = [parse_range(spec) for spec in args.range]
    grids = [vals for _, vals in ranges]
    keys = [key for key, _ in ranges]
    assignments = [
        {k: float(v) for k, v in zip(keys, node)} for node in itertools.product(*grids)
    ]

    rows = [_sweep_node(template, a, args.seed) for a in assignments]

    matches = 0
    for row in rows:
        if predicate is not None and "error" not in row:
            names = dict(row["params"])
            names.update(
                gap=row["gap"],
                delta=row["second_difference"],
                second_difference=row["second_difference"],
                verdict=row["verdict"],
                gross=row["gross"],
                t_pre=row["t_pre"],
                t_post=row["t_post"],
            )
            row["predicate"] = predicate(names)
            matches += 1 if row["predicate"] else 0

    payload = {
        "template": template,
        "ranges": {k: [float(v) for v in g] for k, g in zip(keys, grids)},
        "seed": args.seed,
        "rows": rows,
    }
    if predicate is not None:
        payload["predicate"] = args.predicate
        payload["matches"] = matches
    text = canonical_json(payload)
    _write_out(text, args.out)

    for row in rows:
        params = " ".join(f"{k}={v:g}" for k, v in row["params"].items())
        if "error" in row:
            print(f"{params}  ERROR {row['error']}")
        else:
            extra = ""
            if "predicate" in row:
                extra = "  MATCH" if row["predicate"] else ""
            print(f"{params}  gap={row['gap']:+.6g}  {row['verdict']}{extra}")
    if predicate is not None:
        print(f"{matches}/{len(rows)} nodes match the predicate")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mergerfees",
        description="How an upstream merger moves negotiated fees, from demand primitives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="run the full pipeline on a scenario file")
    p_an.add_argument("file")
    p_an.add_argument("--out", help="write the canonical machine report here")
    p_an.add_argument("--seed", type=int, default=0)
    p_an.add_argument("--shapley", action="store_true", help="include Shapley fees")
    p_an.add_argument("--json", action="store_true", help="print the machine report instead of the summary")
    p_an.set_defaults(fn=cmd_analyze)

    p_re = sub.add_parser("reproduce", help="run a built-in verification suite")
    p_re.add_argument("suite", choices=SUITES)
    p_re.add_argument("--out", help="write rows as canonical JSON")
    p_re.set_defaults(fn=cmd_reproduce)

    p_sw = sub.add_parser("sweep", help="evaluate a scenario template over parameter ranges")
    p_sw.add_argument("template")
    p_sw.add_argument("--range", action="append", default=[], metavar="KEY=A:B:N",
                      help="dotted scenario key and an inclusive linspace, e.g. model.gamma=-0.7:0.7:15")
    p_sw.add_argument("--predicate", help="expression over gap/delta/verdict/gross/params")
    p_sw.add_argument("--out", help="write rows as canonical JSON")
    p_sw.add_argument("--seed", type=int, default=0)
    p_sw.add_argument("--max-nodes", type=int, default=10000)
    p_sw.set_defaults(fn=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        return args.fn(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DomainError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
