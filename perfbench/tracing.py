"""Spans and counters around the program's public functions, installed from outside.

Wrappers replace each name where it is looked up: every ``mergerfees``
module attribute bound to the function, and the methods on the
``DemandModel`` subclasses, ``ReducedFormMarket`` and ``SetFunction``.
Nothing under ``src/`` changes.

Coarse calls become spans (name, start, end, parent span, op id). Calls that
can happen more than 10^4 times per op become aggregated counters, keyed by
name and parent, with their busy time charged to the same parent stack, so
self time (a call's duration minus the time its traced children cover) stays
right for every span.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import program

# (name, module, attribute, span?) for module-level functions; cli.main and the
# sweep entry points are wrapped in install(), where they also set op ids
FUNCTIONS = (
    ("scenario.parse_scenario", "scenario", "parse_scenario", True),
    ("scenario.build_market_or_model", "scenario", "build_market_or_model", True),
    ("scenario.run_analysis", "scenario", "run_analysis", True),
    ("scenario.canonical_json", "scenario", "canonical_json", True),
    ("bargaining.merger_report", "bargaining", "merger_report", True),
    ("bargaining.nash_in_nash", "bargaining", "nash_in_nash", True),
    ("bargaining.shapley_fees", "bargaining", "shapley_fees", True),
    ("optimize.max_profit", "optimize", "max_profit", True),
    ("optimize.partial_max", "optimize", "partial_max", True),
    ("demand_systems.gross_relation", "demand_systems", "gross_relation", True),
    ("demand_systems.inverse_modularity", "demand_systems", "inverse_modularity", True),
    ("portfolios.classify_pair", "portfolios", "classify_pair", True),
    ("portfolios.second_difference", "portfolios", "second_difference", False),
    ("reproduce.run_suite", "reproduce", "run_suite", True),
)
DEMAND_METHODS = ("demand", "demand_jacobian", "portfolio_inverse", "portfolio_inverse_jacobian")
MARKET_METHODS = (
    ("reduced_form.demand", "demand", False),
    ("reduced_form.profit", "profit", False),
    ("reduced_form.diagnostics", "spillover", True),
    ("reduced_form.diagnostics", "loss_ratios", True),
    ("reduced_form.diagnostics", "complementarity_condition", True),
)
LOOKUP = "portfolios.SetFunction.lookups"
EVALUATE = "portfolios.SetFunction.evaluations"


class _ThreadState:
    def __init__(self):
        self.stack: list = []  # frames: [name, child seconds, span id]
        self.op = 0
        self.spans: list = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # (name, parent) -> [calls, busy s, self s]
        self.counts = defaultdict(float)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.sweeps: list = []  # (workers, wall s, cpu s) per sweep command

    def state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def set_op(self, op: int) -> None:
        self.state().op = op

    def count(self, name: str, amount: float = 1.0) -> None:
        self.state().counts[name] += amount

    def wrap(self, fn, name: str, span: bool, post=None, reentrant: bool = False):
        """Time calls of ``fn`` under ``name``; ``post(tracer, result)`` sees each result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer.state()
            stack = st.stack
            if reentrant and stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [name, 0.0, next(tracer._ids) if span else 0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self_time = duration - frame[1]
                stat = st.stats[(name, parent[0] if parent else "")]
                stat[0] += 1
                stat[1] += duration
                stat[2] += self_time
                if span:
                    st.spans.append((frame[2], name, parent[2] if parent else 0, st.op, start, end, self_time))
            if post is not None:
                post(tracer, result)
            return result

        return traced

    # -- results ---------------------------------------------------------------

    def merged(self) -> tuple:
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        counts = defaultdict(float)
        spans = []
        for st in self._states:
            for key, (calls, busy, own) in st.stats.items():
                acc = stats[key]
                acc[0] += calls
                acc[1] += busy
                acc[2] += own
            for key, value in st.counts.items():
                counts[key] += value
            spans.extend(st.spans)
        return stats, counts, sorted(spans, key=lambda s: s[4])

    def write(self, path: str) -> None:
        stats, counts, spans = self.merged()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "span_fields": ["id", "name", "parent", "op", "start_s", "end_s", "self_s"],
                "spans": spans,
                "counters": [{"name": k[0], "parent": k[1], "calls": v[0], "busy_s": v[1], "self_s": v[2]}
                             for k, v in sorted(stats.items())],
                "counts": dict(sorted(counts.items())),
                "sweeps": [{"workers": w, "wall_s": t, "cpu_s": c} for w, t, c in self.sweeps],
            }, fh)


def _replace_everywhere(original, wrapper) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "mergerfees" or mod_name.startswith("mergerfees."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def _after_max_profit(tracer: Tracer, result) -> None:
    tracer.count("optimize.max_profit.starts_used", result.starts_used)
    tracer.count("optimize.max_profit.degenerate", result.status.value == "degenerate")
    tracer.count("optimize.max_profit.maxiter", result.status.value == "maxiter")


def _after_gross(tracer: Tracer, result) -> None:
    tracer.count("demand_systems.gross_relation.nodes", result.region.resolution ** result.region.dim)


def _after_canonical(tracer: Tracer, result) -> None:
    tracer.count("scenario.canonical_json.bytes", len(result))  # outermost calls only: recursion bypasses


POST = {
    "optimize.max_profit": _after_max_profit,
    "demand_systems.gross_relation": _after_gross,
    "scenario.canonical_json": _after_canonical,
}


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions and methods. Call once per process."""
    pkg = {name: sys.modules[f"mergerfees.{name}"] for name in
           ("cli", "scenario", "bargaining", "optimize", "demand_systems", "portfolios", "reproduce",
            "reduced_form")}
    for name, module, attr, span in FUNCTIONS:
        original = getattr(pkg[module], attr)
        wrapper = tracer.wrap(original, name, span, POST.get(name), reentrant=(name == "scenario.canonical_json"))
        _replace_everywhere(original, wrapper)

    demand_model = pkg["demand_systems"].DemandModel
    classes, todo = [], [demand_model]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    for cls in classes:
        for method in DEMAND_METHODS:
            if method in vars(cls):
                setattr(cls, method, tracer.wrap(vars(cls)[method], f"demand_systems.{method}", False))
    market = pkg["reduced_form"].ReducedFormMarket
    for name, method, span in MARKET_METHODS:
        setattr(market, method, tracer.wrap(vars(market)[method], name, span))

    set_function = pkg["portfolios"].SetFunction
    set_function.__call__ = tracer.wrap(set_function.__call__, LOOKUP, False)
    original_init = set_function.__init__

    @functools.wraps(original_init)
    def init(self, n, fn, name=""):
        def evaluate(x):
            tracer.count(EVALUATE)
            return fn(x)

        original_init(self, n, evaluate, name)

    set_function.__init__ = init

    cli = pkg["cli"]
    main, ops = cli.main, itertools.count(1)

    @functools.wraps(main)
    def op_main(*args, **kwargs):
        tracer.set_op(next(ops))
        return main(*args, **kwargs)

    cli.main = tracer.wrap(op_main, "cli.main", True)
    node = cli._sweep_node  # the one private name: it is where a sweep node starts
    nodes = itertools.count(1_000_000)
    workers: set = set()

    @functools.wraps(node)
    def sweep_node(*args, **kwargs):
        tracer.set_op(next(nodes))
        workers.add(threading.get_ident())
        return node(*args, **kwargs)

    cli._sweep_node = tracer.wrap(sweep_node, "cli.sweep_node", True)
    command = cli.cmd_sweep

    @functools.wraps(command)
    def cmd_sweep(*args, **kwargs):
        workers.clear()
        wall, cpu = time.perf_counter(), program.cpu_seconds()
        try:
            return command(*args, **kwargs)
        finally:
            tracer.sweeps.append((len(workers), time.perf_counter() - wall, program.cpu_seconds() - cpu))

    cli.cmd_sweep = tracer.wrap(cmd_sweep, "cli.sweep", True)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-op layer metrics, keyed as in BENCHMARK.json's per_layer list."""
    stats, counts, _ = tracer.merged()
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for (name, parent), (n, _busy, own) in stats.items():
        calls[name] += n
        self_s[name] += own

    def per_op(x: float) -> float:
        return x / ops

    def ms(name: str) -> float:
        return per_op(self_s[name]) * 1000.0

    lookups = calls[LOOKUP]
    profit_calls = calls["optimize.max_profit"]
    sweep_workers = sum(w for w, _, _ in tracer.sweeps)
    out = {
        "cli.main.self_ms": ms("cli.main"),
        "cli.sweep.workers": _ratio(sweep_workers, len(tracer.sweeps)),
        "cli.sweep.cpu_util": _ratio(sum(c for _, _, c in tracer.sweeps), sum(w * t for w, t, _ in tracer.sweeps)),
        "scenario.parse_scenario.self_ms": ms("scenario.parse_scenario"),
        "scenario.build_market_or_model.calls": per_op(calls["scenario.build_market_or_model"]),
        "scenario.run_analysis.self_ms": ms("scenario.run_analysis"),
        "scenario.canonical_json.self_ms": ms("scenario.canonical_json"),
        "scenario.canonical_json.bytes": per_op(counts["scenario.canonical_json.bytes"]),
        "bargaining.merger_report.self_ms": ms("bargaining.merger_report"),
        "bargaining.nash_in_nash.calls": per_op(calls["bargaining.nash_in_nash"]),
        "bargaining.shapley_fees.self_ms": ms("bargaining.shapley_fees"),
        "bargaining.shapley_fees.lookups": per_op(stats[(LOOKUP, "bargaining.shapley_fees")][0]),
        "optimize.max_profit.calls": per_op(profit_calls),
        "optimize.max_profit.self_ms": ms("optimize.max_profit"),
        "optimize.max_profit.starts_used": per_op(counts["optimize.max_profit.starts_used"]),
        "optimize.max_profit.evals_per_call": _ratio(calls["demand_systems.portfolio_inverse"], profit_calls),
        "optimize.max_profit.degenerate_ratio": _ratio(counts["optimize.max_profit.degenerate"], profit_calls),
        "optimize.max_profit.maxiter_ratio": _ratio(counts["optimize.max_profit.maxiter"], profit_calls),
        "optimize.partial_max.calls": per_op(calls["optimize.partial_max"]),
        "optimize.partial_max.self_ms": ms("optimize.partial_max"),
        "demand_systems.portfolio_inverse.calls": per_op(calls["demand_systems.portfolio_inverse"]),
        "demand_systems.portfolio_inverse.self_ms": ms("demand_systems.portfolio_inverse"),
        "demand_systems.portfolio_inverse_jacobian.calls": per_op(calls["demand_systems.portfolio_inverse_jacobian"]),
        "demand_systems.portfolio_inverse_jacobian.self_ms": ms("demand_systems.portfolio_inverse_jacobian"),
        "demand_systems.gross_relation.self_ms": ms("demand_systems.gross_relation"),
        "demand_systems.gross_relation.nodes": per_op(counts["demand_systems.gross_relation.nodes"]),
        "demand_systems.demand_jacobian.calls": per_op(calls["demand_systems.demand_jacobian"]),
        "demand_systems.demand.calls": per_op(calls["demand_systems.demand"]),
        "demand_systems.inverse_modularity.self_ms": ms("demand_systems.inverse_modularity"),
        "reduced_form.demand.calls": per_op(calls["reduced_form.demand"]),
        "reduced_form.demand.self_ms": ms("reduced_form.demand"),
        "reduced_form.profit.calls": per_op(calls["reduced_form.profit"]),
        "reduced_form.profit.self_ms": ms("reduced_form.profit"),
        "reduced_form.diagnostics.self_ms": ms("reduced_form.diagnostics"),
        "portfolios.SetFunction.lookups": per_op(lookups),
        "portfolios.SetFunction.evaluations": per_op(counts[EVALUATE]),
        "portfolios.SetFunction.hit_ratio": _ratio(lookups - counts[EVALUATE], lookups),
        "portfolios.classify_pair.self_ms": ms("portfolios.classify_pair"),
        "portfolios.second_difference.calls": per_op(calls["portfolios.second_difference"]),
        "reproduce.run_suite.self_ms": ms("reproduce.run_suite"),
    }
    return out
