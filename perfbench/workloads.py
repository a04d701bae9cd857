"""Seeded workload generator: scenario files, sweep templates and the op mix.

Every workload is a fixed cycle of op slots. Each slot draws fresh
parameters from its domain (below), so the same seed gives the same files
and the mix shares are exact per cycle. Draws are written as scenario JSON
and the program only ever sees those files.

Draws whose fee answer has no independent closed form (appendix_b,
one_stop, eq7 with b != 0) come from the pools in ``golden.json``, which
``make_golden.py`` recorded with a fixed seed; the workload seed picks and
orders pool entries and draws the bargaining weight.

A run repeats one round of distinct commands. Each repeat of an analyze
command reads its own file, whose model differs from the round's draw by a
relative 1e-12 in one parameter (``PERTURB``), so that a result kept from
an earlier command of the same process cannot answer a repeat. That is far
below every check's tolerance and leaves the work of the command unchanged.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("paper-n3", "reduced-form-wide", "sweep-eq7")

BETA = (0.2, 0.8)
RF_VALUES = (0.1, 10.0)  # v_i and pi_i
ALL_CDF_FAMILIES = ("affine", "exponential", "power", "step", "table")
STRICT_CDF_FAMILIES = ("affine", "exponential", "power", "table")
EQ7_B = (-0.3, 0.3)
EQ7_GAMMA = (-0.7, 0.7)
APPENDIX_B = {"b": (0.02, 0.3), "gamma": (0.1, 0.8), "alpha": (1e-4, 0.2)}  # times a sign
ONE_STOP = {"alpha": (0.5, 2.0), "beta": (0.5, 2.0), "families": ("exponential", "affine", "power")}
LINEAR = {"a": (0.8, 1.2), "cost": (0.0, 0.2), "diag": (1.0, 2.0), "off": (0.05, 0.45), "row_mass": 0.8}
SWEEP_PREDICATES = (
    "gap > 0 and gross == 'strict_gross_complements'",
    "delta < 0 or verdict == 'strict_substitutes'",
)
# Shipped examples, embedded so that edits under scenarios/ do not move the benchmark.
SHIPPED = {
    "eq7_small_coupling": {
        "schema_version": 1,
        "model": {"kind": "eq7", "b": 1e-4, "gamma": 0.5},
        "bargaining": {"beta": 0.5, "merging_pair": [1, 2]},
    },
    "exponential_three_product": {
        "schema_version": 1,
        "model": {"kind": "reduced_form", "v": [1.0, 1.0, 1.0], "pi": [1.0, 1.0, 10.0],
                  "cdf": {"family": "exponential", "lam": 1.0}},
        "bargaining": {"beta": 0.5, "merging_pair": [1, 2]},
    },
    "hin_step": {
        "schema_version": 1,
        "model": {"kind": "reduced_form", "v": [1.0, 1.0, 1.0], "pi": [1.0, 1.0, 1.0],
                  "cdf": {"family": "step", "thresholds": [1.5]}},
        "bargaining": {"beta": 0.5, "merging_pair": [1, 2]},
    },
}

# One cycle of each workload, in execution order. The shares put the median
# and the 90th percentile of a round inside one op type each.
CYCLES = {
    "paper-n3": (
        "shipped:eq7_small_coupling", "reduced_form:affine", "eq7:b0", "appendix_b",
        "linear:3", "reduced_form:exponential", "reproduce:appendix-b", "eq7:golden",
        "shipped:exponential_three_product", "appendix_b", "reduced_form:power", "one_stop",
        "eq7:b0", "reduced_form:step", "reproduce:appendix-a", "linear:3", "eq7:golden",
        "shipped:hin_step", "appendix_b", "reduced_form:table", "reproduce:appendix-b",
    ),
    "reduced-form-wide": ("rf_wide:8", "rf_wide:9", "rf_wide:8", "rf_wide:9", "rf_wide:10"),
    "sweep-eq7": ("sweep",),
}
# Cycles in one round: the round's commands are distinct draws, and the run
# repeats the round (see run.py). A round takes 1-2.5 s at the speed of the
# commit that added this benchmark.
ROUND_CYCLES = {"paper-n3": 1, "reduced-form-wide": 2, "sweep-eq7": 1}
PERTURB = 1e-12  # relative change of one model parameter per repeat
PERTURB_KEYS = ("pi", "a", "alpha", "gamma")  # the first one the model has is changed


@dataclass
class Op:
    """One CLI command: argv without ``--out``, plus what the checker needs."""

    slot: str
    argv: list
    check: dict = field(default_factory=dict)


def _beta(rng) -> float:
    return float(rng.uniform(*BETA))


def _pair(rng, n: int) -> list:
    i, j = sorted(int(k) for k in rng.choice(np.arange(1, n + 1), size=2, replace=False))
    return [i, j]


def cdf_spec(rng, family: str, total: float) -> dict:
    """A CDF of the family, strictly increasing on [0, total] unless step."""
    if family == "affine":
        return {"family": "affine", "a": 0.0, "b": total * float(rng.uniform(1.05, 2.0))}
    if family == "exponential":
        return {"family": "exponential", "lam": float(rng.uniform(0.5, 3.0)) / total}
    if family == "power":
        return {"family": "power", "k": float(rng.uniform(0.5, 3.0)),
                "s_bar": total * float(rng.uniform(1.05, 2.0))}
    if family == "table":
        top = total * float(rng.uniform(1.05, 2.0))
        xs = [0.0] + sorted(float(x) for x in rng.uniform(0.05, 0.95, size=3) * top) + [top]
        ys = [0.0] + sorted(float(y) for y in rng.uniform(0.05, 0.95, size=3)) + [1.0]
        return {"family": "table", "points": [[x, y] for x, y in zip(xs, ys)]}
    if family == "step":
        count = int(rng.integers(1, 4))
        weights = rng.dirichlet(np.ones(count))
        weights[-1] = 1.0 - float(np.sum(weights[:-1]))
        return {"family": "step", "thresholds": sorted(float(t) for t in rng.uniform(0.0, total, size=count)),
                "weights": [float(w) for w in weights]}
    raise ValueError(f"unknown CDF family {family!r}")


def reduced_form(rng, n: int, family: str, ownership: bool = False) -> dict:
    v = [float(x) for x in rng.uniform(*RF_VALUES, size=n)]
    pi = [float(x) for x in rng.uniform(*RF_VALUES, size=n)]
    pair = _pair(rng, n)
    bargaining = {"beta": _beta(rng), "merging_pair": pair}
    if ownership:
        others = [int(k) for k in rng.permutation([k for k in range(1, n + 1) if k not in pair])]
        groups = [[k] for k in pair]
        while others:
            size = int(rng.integers(1, 4))
            groups.append(sorted(others[:size]))
            others = others[size:]
        bargaining["ownership"] = groups
    return {"schema_version": 1,
            "model": {"kind": "reduced_form", "v": v, "pi": pi, "cdf": cdf_spec(rng, family, sum(v))},
            "bargaining": bargaining}


def linear(rng, n: int) -> dict:
    """Strict-complement linear system with a dominant diagonal.

    Off-diagonal slopes of B are negative and each row's off-diagonal mass is
    at most ``row_mass`` times its diagonal, so B_SS + B_SS^T is a
    nonsingular M-matrix for every portfolio S and every optimum is interior.
    """
    diag = rng.uniform(*LINEAR["diag"], size=n)
    B = -rng.uniform(*LINEAR["off"], size=(n, n))
    np.fill_diagonal(B, 0.0)
    for i in range(n):
        mass = -B[i].sum()
        limit = LINEAR["row_mass"] * diag[i]
        if mass > limit:
            B[i] *= limit / mass
    np.fill_diagonal(B, diag)
    a = rng.uniform(*LINEAR["a"], size=n)
    costs = rng.uniform(*LINEAR["cost"], size=n)
    return {"schema_version": 1,
            "model": {"kind": "linear", "a": a.tolist(), "B": B.tolist(), "costs": costs.tolist()},
            "bargaining": {"beta": _beta(rng), "merging_pair": _pair(rng, n)}}


def eq7(b: float, gamma: float, beta: float) -> dict:
    return {"schema_version": 1, "model": {"kind": "eq7", "b": b, "gamma": gamma},
            "bargaining": {"beta": beta, "merging_pair": [1, 2]}}


def draw_pool_model(rng, kind: str, index: int) -> dict:
    """Model block of one golden-pool draw (used by make_golden.py)."""
    if kind == "eq7":
        b = 0.0
        while b == 0.0:
            b = float(rng.uniform(*EQ7_B))
        return {"kind": "eq7", "b": b, "gamma": float(rng.uniform(*EQ7_GAMMA))}
    if kind == "appendix_b":
        sign = 1.0 if index % 2 == 0 else -1.0  # both signs, alternating
        return {"kind": "appendix_b", **{k: sign * float(rng.uniform(*r)) for k, r in APPENDIX_B.items()}}
    if kind == "one_stop":
        alpha = rng.uniform(*ONE_STOP["alpha"], size=3)
        beta = rng.uniform(*ONE_STOP["beta"], size=3)
        family = ONE_STOP["families"][index % len(ONE_STOP["families"])]
        total = float(np.sum(alpha * alpha / (2.0 * beta)))  # surplus at zero prices
        return {"kind": "one_stop", "alpha": alpha.tolist(), "beta": beta.tolist(),
                "cdf": cdf_spec(rng, family, total)}
    raise ValueError(kind)


class Generator:
    """Writes the files of one workload run under ``workdir``."""

    def __init__(self, workload: str, seed: int, workdir: str, golden: dict):
        if workload not in CYCLES:
            raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
        self.workload = workload
        self.rng = np.random.default_rng([seed % (1 << 64), WORKLOADS.index(workload)])
        self.workdir = workdir
        self.golden = golden
        self.count = 0
        self.pools = {k: [int(i) for i in self.rng.permutation(len(golden[k]))]
                      for k in ("eq7", "appendix_b", "one_stop", "sweep")}
        self.taken: dict = {}
        self.rf_wide_count = 0
        self.one_stop_count = 0

    def round(self) -> list:
        """The distinct commands of one round, in execution order."""
        return [self.op(slot) for _ in range(ROUND_CYCLES[self.workload]) for slot in CYCLES[self.workload]]

    def repeat(self, op: Op, index: int) -> Op:
        """Repeat ``index`` (from 1) of an analyze command, with its own perturbed file.

        Sweep and reproduce commands are repeated as they are.
        """
        if op.argv[0] != "analyze":
            return op
        obj = json.loads(json.dumps(op.check["scenario"]))
        model = obj["model"]
        key = next(k for k in PERTURB_KEYS if k in model)
        scale = 1.0 + index * PERTURB
        model[key] = [x * scale for x in model[key]] if isinstance(model[key], list) else model[key] * scale
        return Op(op.slot, ["analyze", self._write(obj)] + op.argv[2:], {**op.check, "scenario": obj})

    def _pool(self, kind: str, family: str | None = None) -> dict:
        """The next entry of the seeded pool order, of one CDF family if ``family`` is given."""
        order = self.pools[kind]
        if family is not None:
            order = [i for i in order if self.golden[kind][i]["model"]["cdf"]["family"] == family]
        key = kind if family is None else f"{kind}:{family}"
        taken = self.taken.get(key, 0)
        self.taken[key] = taken + 1
        return self.golden[kind][order[taken % len(order)]]

    def _write(self, obj: dict) -> str:
        self.count += 1
        path = os.path.join(self.workdir, "inputs", f"{self.count:05d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def _analyze(self, slot: str, obj: dict, shapley: bool, **check) -> Op:
        argv = ["analyze", self._write(obj)] + (["--shapley"] if shapley else [])
        return Op(slot, argv, {"scenario": obj, **check})

    def op(self, slot: str) -> Op:
        kind, _, arg = slot.partition(":")
        rng = self.rng
        if kind == "shipped":
            return self._analyze(slot, SHIPPED[arg], True, golden=self.golden["shipped"].get(arg))
        if kind == "reproduce":
            return Op(slot, ["reproduce", arg])
        if kind == "reduced_form":
            return self._analyze(slot, reduced_form(rng, 3, arg), True)
        if kind == "rf_wide":
            # families rotate, and each family alternates between singleton firms
            # and a seeded ownership partition, so the mix is balanced over 8 ops
            k = self.rf_wide_count
            self.rf_wide_count += 1
            family = STRICT_CDF_FAMILIES[k % len(STRICT_CDF_FAMILIES)]
            ownership = (k // len(STRICT_CDF_FAMILIES)) % 2 == 1
            return self._analyze(slot, reduced_form(rng, int(arg), family, ownership), True)
        if kind == "linear":
            return self._analyze(slot, linear(rng, int(arg)), True)
        if kind == "eq7" and arg == "b0":
            return self._analyze(slot, eq7(0.0, float(rng.uniform(*EQ7_GAMMA)), _beta(rng)), True)
        if kind == "eq7":
            entry = self._pool("eq7")
            obj = eq7(entry["model"]["b"], entry["model"]["gamma"], _beta(rng))
            return self._analyze(slot, obj, True, golden=entry["second_difference"])
        if kind in ("appendix_b", "one_stop"):
            family = None
            if kind == "one_stop":
                # the CDF families take turns in a fixed order, because their costs differ by a third
                family = ONE_STOP["families"][self.one_stop_count % len(ONE_STOP["families"])]
                self.one_stop_count += 1
            entry = self._pool(kind, family)
            obj = {"schema_version": 1, "model": entry["model"],
                   "bargaining": {"beta": _beta(rng), "merging_pair": [1, 2]}}
            return self._analyze(slot, obj, True, golden=entry["second_difference"])
        if kind == "sweep":
            return self.sweep()
        raise ValueError(f"unknown slot {slot!r}")

    def sweep(self) -> Op:
        spec = self._pool("sweep")
        template = eq7(0.0, 0.0, _beta(self.rng))
        predicate = SWEEP_PREDICATES[int(self.rng.integers(0, len(SWEEP_PREDICATES)))]
        argv = ["sweep", self._write(template),
                "--range", "model.gamma=%r:%r:%d" % tuple(spec["gamma"]),
                "--range", "model.b=%r:%r:%d" % tuple(spec["b"]),
                "--predicate", predicate]
        return Op("sweep", argv, {"template": template, "predicate": predicate, "golden": spec["nodes"],
                                  "nodes": spec["gamma"][2] * spec["b"][2]})


def manifest(workload: str) -> dict:
    """Domains and mix shares of a workload, as written next to its inputs."""
    cycle = CYCLES[workload]
    shares = {s: cycle.count(s) / len(cycle) for s in dict.fromkeys(cycle)}
    return {
        "workload": workload,
        "cycle": list(cycle),
        "cycles_per_round": ROUND_CYCLES[workload],
        "shares": shares,
        "repeat_perturbation": {"relative": PERTURB, "first_of": PERTURB_KEYS},
        "domains": {
            "beta": BETA, "reduced_form_values": RF_VALUES, "eq7_b": EQ7_B, "eq7_gamma": EQ7_GAMMA,
            "appendix_b_abs": APPENDIX_B, "one_stop": ONE_STOP, "linear": LINEAR,
            "cdf_families": {"paper-n3": ALL_CDF_FAMILIES, "reduced-form-wide": STRICT_CDF_FAMILIES},
            "sweep_predicates": SWEEP_PREDICATES,
        },
    }
