"""Independent checks of the fee answer in each op's output.

Only the fee-question fields are read: ``fees.*``,
``profit_relation.second_difference``, ``profit_relation.kind`` and, when
requested, ``shapley``. References are computed here from the scenario,
without the program's code:

* reduced form: profit (x . pi) * G(x . v), with G evaluated directly;
* linear: the interior optimum q_S = solve(B_SS + B_SS^T, a_S - c_S);
* eq7 at b = 0: the scalar first-order condition of Appendix A;
* everything else: the golden second differences in golden.json.

Every analyze op also has to satisfy the paper's identities:
|gap + (1 - beta) * second difference| <= 1e-9, unchanged fees for firms
outside the merger, and Shapley efficiency.
"""

from __future__ import annotations

import bisect
import math

import numpy as np
from scipy.optimize import brentq

IDENTITY_TOL = 1e-9
CLASSIFY_TOL = 1e-9  # the program's documented classification tolerance
EXACT_TOL = 1e-9  # reduced form and linear references, relative to the profit scale
EQ7_TOL = 1e-8  # eq7 b = 0: optimizer accuracy against the scalar condition


# -- profit references --------------------------------------------------------


def cdf(spec: dict, s: float) -> float:
    s = max(s, 0.0)
    family = spec["family"]
    if family == "affine":
        return min(max((s - spec["a"]) / (spec["b"] - spec["a"]), 0.0), 1.0)
    if family == "exponential":
        return 1.0 - math.exp(-spec["lam"] * s)
    if family == "power":
        return 1.0 if s >= spec["s_bar"] else (s / spec["s_bar"]) ** spec["k"]
    if family == "step":
        weights = spec.get("weights") or [1.0 / len(spec["thresholds"])] * len(spec["thresholds"])
        return sum(w for t, w in zip(spec["thresholds"], weights) if t <= s)
    if family == "table":
        xs = [p[0] for p in spec["points"]]
        ys = [p[1] for p in spec["points"]]
        if s <= xs[0]:
            return ys[0]
        if s >= xs[-1]:
            return ys[-1]
        k = bisect.bisect_right(xs, s)
        return ys[k - 1] + (ys[k] - ys[k - 1]) * (s - xs[k - 1]) / (xs[k] - xs[k - 1])
    raise ValueError(f"unknown CDF family {family!r}")


def reduced_form_profit(model: dict):
    def profit(members: frozenset) -> float:
        return sum(model["pi"][i - 1] for i in members) * cdf(model["cdf"], sum(model["v"][i - 1] for i in members))

    return profit


def linear_profit(model: dict):
    a = np.asarray(model["a"], dtype=float)
    B = np.asarray(model["B"], dtype=float)
    c = np.asarray(model.get("costs", [0.0] * len(a)), dtype=float)

    def profit(members: frozenset) -> float:
        if not members:
            return 0.0
        idx = np.array(sorted(members)) - 1
        bss = B[np.ix_(idx, idx)]
        q = np.linalg.solve(bss + bss.T, a[idx] - c[idx])
        if np.any(q <= 0):
            raise ValueError(f"reference optimum not interior for portfolio {sorted(members)}")
        return float(np.dot(a[idx] - c[idx] - bss @ q, q))

    return profit


def eq7_b0_profit(model: dict):
    """Optimized profit of the b = 0 family (Appendix A), zero costs.

    Without product 3 each carried product earns 1/4. With product 3 and k
    pair members carried at a common quantity s/k, q3 is solved out in closed
    form and profit is one function of s; its maximum is found from the roots
    of the scalar first-order condition and the end points.
    """
    gamma = model["gamma"]

    def reduced(s: float, k: int) -> float:
        third = max(0.0, 1.0 + gamma * math.sqrt(s))
        return s - s * s / k + third * third / 4.0

    def foc(s: float, k: int) -> float:
        root = math.sqrt(s)
        return 1.0 - 2.0 * s / k + (gamma / (4.0 * root)) * max(0.0, 1.0 + gamma * root)

    def best(k: int) -> float:
        grid = np.concatenate([np.geomspace(1e-12, 0.05, 80), np.linspace(0.05, 2.0 * k, 400)])
        candidates = [reduced(0.0, k), reduced(grid[-1], k)]
        for lo, hi in zip(grid, grid[1:]):
            f_lo, f_hi = foc(lo, k), foc(hi, k)
            if f_lo * f_hi < 0:
                candidates.append(reduced(brentq(foc, lo, hi, args=(k,), xtol=1e-15, rtol=8.9e-16), k))
        return max(candidates)

    def profit(members: frozenset) -> float:
        k = len(members & {1, 2})
        if 3 not in members or k == 0:
            return 0.25 * len(members)
        return best(k)

    return profit


# -- fee references -----------------------------------------------------------


def firm_label(firm) -> str:
    return "+".join(str(i) for i in sorted(firm))


def firms_of(scenario: dict, n: int) -> list:
    groups = scenario["bargaining"].get("ownership")
    return [frozenset(g) for g in groups] if groups else [frozenset([i]) for i in range(1, n + 1)]


def fee_reference(profit, n: int, scenario: dict) -> dict:
    beta = scenario["bargaining"]["beta"]
    i, j = scenario["bargaining"]["merging_pair"]
    full = frozenset(range(1, n + 1))
    base = profit(full)
    inc = {f: base - profit(full - f) for f in firms_of(scenario, n)}
    t_pre = (1.0 - beta) * (inc[frozenset([i])] + inc[frozenset([j])])
    t_post = (1.0 - beta) * (base - profit(full - {i, j}))
    delta = base + profit(full - {i, j}) - profit(full - {i}) - profit(full - {j})
    others = {firm_label(f): (1.0 - beta) * v for f, v in inc.items() if f not in (frozenset([i]), frozenset([j]))}
    return {"t_pre": t_pre, "t_post": t_post, "gap": t_post - t_pre, "second_difference": delta,
            "non_merging": others, "scale": max(1.0, abs(base))}


# -- checks -------------------------------------------------------------------


def kind_of(delta: float) -> str:
    if delta > CLASSIFY_TOL:
        return "strict_complements"
    if delta < -CLASSIFY_TOL:
        return "strict_substitutes"
    return "additive"


def _close(errors: list, name: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        errors.append(f"{name}: {got!r} vs reference {want!r} (tolerance {tol:g})")


def check_analyze(report: dict, check: dict, golden_tol: float) -> list:
    """Return the list of problems found in one analyze report (empty if none)."""
    scenario = check["scenario"]
    model = scenario["model"]
    beta = scenario["bargaining"]["beta"]
    fees = report["fees"]
    relation = report["profit_relation"]
    delta = relation["second_difference"]
    errors: list = []
    if not abs(fees["gap"] + (1.0 - beta) * delta) <= IDENTITY_TOL:
        errors.append(f"sign identity: gap {fees['gap']!r}, second difference {delta!r}")
    if relation["kind"] != kind_of(delta):
        errors.append(f"profit_relation.kind {relation['kind']!r} but second difference {delta!r}")
    if fees["non_merging_pre"] != fees["non_merging_post"]:
        errors.append("fees of firms outside the merger changed")
    if report.get("shapley"):
        total = fees["retailer_net_pre"] + fees["t_pre"] + sum(fees["non_merging_pre"].values())
        for side in ("pre", "post"):
            block = report["shapley"][side]
            _close(errors, f"shapley.{side} efficiency", block["total_fees"] + block["retailer_net"], total,
                   EXACT_TOL * max(1.0, abs(total)))

    kind = model["kind"]
    if kind == "reduced_form":
        ref, tol = fee_reference(reduced_form_profit(model), len(model["v"]), scenario), EXACT_TOL
    elif kind == "linear":
        ref, tol = fee_reference(linear_profit(model), len(model["a"]), scenario), EXACT_TOL
    elif kind == "eq7" and model["b"] == 0.0:
        ref, tol = fee_reference(eq7_b0_profit(model), 3, scenario), EQ7_TOL
    else:
        want = check.get("golden")
        if want is None:
            return errors + ["no reference or golden value for this scenario"]
        _close(errors, "second_difference (golden)", delta, want, golden_tol)
        _close(errors, "gap (golden)", fees["gap"], -(1.0 - beta) * want, golden_tol)
        return errors
    scale = tol * ref["scale"]
    for name in ("t_pre", "t_post", "gap"):
        _close(errors, f"fees.{name}", fees[name], ref[name], scale)
    _close(errors, "second_difference", delta, ref["second_difference"], scale)
    if set(fees["non_merging_pre"]) != set(ref["non_merging"]):
        errors.append(f"non-merging firms {sorted(fees['non_merging_pre'])} vs {sorted(ref['non_merging'])}")
    else:
        for label, want in ref["non_merging"].items():
            _close(errors, f"fees.non_merging_pre[{label}]", fees["non_merging_pre"][label], want, scale)
    return errors


def check_sweep(payload: dict, check: dict, golden_tol: float) -> list:
    """Problems as (node key or None for the whole sweep, message) pairs."""
    beta = check["template"]["bargaining"]["beta"]
    rows = payload["rows"]
    errors: list = []
    if len(rows) != check["nodes"]:
        errors.append((None, f"{len(rows)} rows for {check['nodes']} nodes"))
    matches = 0
    for row in rows:
        b, gamma = row["params"]["model.b"], row["params"]["model.gamma"]
        key = f"{float(b)!r}|{float(gamma)!r}"
        node: list = []
        if "error" in row:
            errors.append((key, row["error"]))
            continue
        delta = row["second_difference"]
        if not abs(row["gap"] + (1.0 - beta) * delta) <= IDENTITY_TOL:
            node.append(f"sign identity: gap {row['gap']!r}, second difference {delta!r}")
        if row["verdict"] != kind_of(delta):
            node.append(f"verdict {row['verdict']!r} for second difference {delta!r}")
        if b == 0.0:
            ref = fee_reference(eq7_b0_profit({"gamma": gamma}), 3, check["template"])
            _close(node, "gap", row["gap"], ref["gap"], EQ7_TOL)
            _close(node, "second_difference", delta, ref["second_difference"], EQ7_TOL)
        elif key not in check["golden"]:
            node.append("no golden value")
        else:
            _close(node, "second_difference (golden)", delta, check["golden"][key], golden_tol)
        names = {"gap": row["gap"], "delta": delta, "second_difference": delta, "verdict": row["verdict"],
                 "gross": row["gross"], "t_pre": row["t_pre"], "t_post": row["t_post"]}
        expected = bool(eval(check["predicate"], {"__builtins__": {}}, names))
        if row.get("predicate") is not expected:
            node.append(f"predicate {row.get('predicate')!r}, expected {expected!r}")
        matches += expected
        errors.extend((key, message) for message in node)
    if payload.get("matches") != matches:
        errors.append((None, f"matches {payload.get('matches')!r}, expected {matches}"))
    return errors


def check_reproduce(payload: dict) -> list:
    return [f"row {r['name']} failed" for r in payload["rows"] if not r["passed"]]
