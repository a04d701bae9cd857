"""Fuzzed scenario files: `analyze` ends with exit 0, 2 or 3 and never raises.

Each example takes a small valid scenario of one model kind or CDF family
and replaces or deletes one field with an arbitrary JSON value. Sizes stay
small (lists of at most 4 entries, integers of at most 12) because a 2^n
table or a resolution^n grid with a large n is a legitimate but slow
request, not a failure. The explicit 10**12 sizes must end with exit 2
before anything is allocated.
"""

import contextlib
import copy
import io
import json
import math

from hypothesis import example, given, settings, strategies as st

from mergerfees.cli import main

REDUCED_FORM_N3 = {
    "schema_version": 1,
    "model": {
        "kind": "reduced_form",
        "v": [1.0, 1.0, 1.0],
        "pi": [1.0, 1.0, 10.0],
        "cdf": {"family": "table", "points": [[0.0, 0.0], [1.5, 0.5], [4.0, 1.0]]},
    },
    "bargaining": {"beta": 0.5, "merging_pair": [1, 2], "ownership": [[1], [2], [3]]},
    "optimizer": {"gradient_tol": 1e-9, "max_iter": 50, "multistart": 2},
}

LINEAR_N2 = {
    "schema_version": 1,
    "model": {"kind": "linear", "a": [1.0, 1.0], "B": [[2.0, 0.5], [0.5, 2.0]], "costs": [0.1, 0.1]},
    "bargaining": {"beta": 0.4, "merging_pair": [1, 2]},
    "optimizer": {"max_iter": 50, "multistart": 2, "floor": 1e-6, "value_gap": 1e-6},
    "region": {"lower": [0.0, 0.0], "upper": [1.0, 1.0], "resolution": 3},
}

EQ7 = {
    "schema_version": 1,
    "model": {"kind": "eq7", "b": 1e-4, "gamma": 0.5},
    "bargaining": {"beta": 0.5, "merging_pair": [1, 2]},
    "optimizer": {"multistart": 2},
    "region": {"lower": [0.1, 0.1, 0.1], "upper": [0.9, 0.9, 0.9], "resolution": 3},
}

APPENDIX_B = {
    "schema_version": 1,
    "model": {"kind": "appendix_b", "b": 0.1, "gamma": 0.5, "alpha": 0.05},
    "bargaining": {"beta": 0.5, "merging_pair": [1, 2]},
    "optimizer": {"multistart": 2},
    "region": {"lower": [0.1, 0.1, 0.1], "upper": [0.9, 0.9, 0.9], "resolution": 3},
}

ONE_STOP_N2 = {
    "schema_version": 1,
    "model": {
        "kind": "one_stop",
        "alpha": [1.0, 1.5],
        "beta": [1.0, 0.8],
        "cdf": {"family": "exponential", "lam": 1.0},
        "costs": [0.1, 0.1],
    },
    "bargaining": {"beta": 0.5, "merging_pair": [1, 2]},
    "optimizer": {"multistart": 2},
    "region": {"lower": [0.1, 0.1], "upper": [0.9, 0.9], "resolution": 3},
}

# the reduced-form market again under every other CDF family
OTHER_CDFS = {
    "affine": {"family": "affine", "a": 0.5, "b": 3.5},
    "power": {"family": "power", "k": 2.0, "s_bar": 4.0},
    "step": {"family": "step", "thresholds": [0.5, 1.5], "weights": [0.25, 0.75]},
}

BASES = {
    "reduced_form_n3": REDUCED_FORM_N3,
    "linear_n2": LINEAR_N2,
    "eq7": EQ7,
    "appendix_b": APPENDIX_B,
    "one_stop_n2": ONE_STOP_N2,
    **{
        f"reduced_form_{family}": {**REDUCED_FORM_N3, "model": {**REDUCED_FORM_N3["model"], "cdf": c}}
        for family, c in OTHER_CDFS.items()
    },
}
INTEGER_FIELDS = {
    ("schema_version",),
    ("bargaining", "merging_pair", 0),
    ("bargaining", "merging_pair", 1),
    ("optimizer", "max_iter"),
    ("optimizer", "multistart"),
    ("region", "resolution"),
}
# sizes that would allocate terabytes if they were accepted
SIZE_FIELDS = {("optimizer", "multistart"), ("region", "resolution")}
DELETE = object()

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-12, max_value=12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=8,
)


def field_paths(obj, prefix=()):
    """Every key path inside a scenario, outermost first."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


CASES = [(name, path) for name, base in BASES.items() for path in field_paths(base)]


def mutated(name, path, value):
    raw = copy.deepcopy(BASES[name])
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return raw


def non_finite(value):
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, list):
        return any(non_finite(v) for v in value)
    if isinstance(value, dict):
        return any(non_finite(v) for v in value.values())
    return False


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(case=st.sampled_from(CASES), value=st.one_of(st.just(DELETE), json_values))
@example(case=("reduced_form_n3", ("bargaining", "ownership")), value=[1, 2, 3])
@example(case=("reduced_form_n3", ("model", "cdf", "points", 0)), value=[0.0])
@example(case=("reduced_form_n3", ("model", "v", 0)), value=math.nan)
@example(case=("linear_n2", ("optimizer", "max_iter")), value=2.5)
@example(case=("linear_n2", ("optimizer", "multistart")), value=True)
@example(case=("linear_n2", ("optimizer", "multistart")), value=10**12)
@example(case=("linear_n2", ("region", "resolution")), value=10**12)
def test_fuzzed_scenario_ends_with_documented_exit_code(tmp_path_factory, case, value):
    name, path = case
    scenario = tmp_path_factory.getbasetemp() / "fuzzed.json"
    scenario.write_text(json.dumps(mutated(name, path, value)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", str(scenario), "--shapley"])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")
    if value is not DELETE and non_finite(value):
        assert code == 2, err.getvalue()
    if path in INTEGER_FIELDS and value is not DELETE and not (
        isinstance(value, int) and not isinstance(value, bool)
    ):
        assert code == 2, err.getvalue()
    if path in SIZE_FIELDS and isinstance(value, int) and value > 10**6:
        assert code == 2, err.getvalue()
