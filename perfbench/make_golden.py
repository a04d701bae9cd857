"""Record the golden pools in golden.json from the program at the current commit.

Run from the root of a checkout:  python3 perfbench/make_golden.py

Pools hold the draws whose fee answer has no independent closed form:
eq7 with b != 0, appendix_b (both signs), one_stop, the shipped eq7 example,
and the eq7 sweep grids. Each entry stores the model and the pair's profit
second difference the program gave for it; the bargaining weight is left
out because the second difference does not depend on it. Every draw is
kept: a draw the program fails on is recorded as a failure and fails the
benchmark, it is not redrawn.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import numpy as np

import program
import workloads

MASTER_SEED = 20240219
POOL_SIZE = 48
# (gamma start, gamma stop, points), (b start, b stop, points); b ranges are
# symmetric with an odd point count, so b = 0 is a node of every grid.
SWEEP_GRIDS = (
    ((-0.7, 0.7, 6), (-0.3, 0.3, 5)),
    ((-0.6, 0.5, 6), (-0.2, 0.2, 5)),
    ((-0.5, 0.7, 6), (-0.1, 0.1, 5)),
    ((-0.7, 0.2, 6), (-0.25, 0.25, 5)),
    ((-0.3, 0.7, 6), (-0.15, 0.15, 5)),
    ((-0.65, 0.65, 6), (-0.3, 0.3, 5)),
)
TOLERANCE = 1e-7  # absolute, on the second difference and the fee gap


def analyze(cli, tmp: str, model: dict) -> dict:
    scenario = {"schema_version": 1, "model": model, "bargaining": {"beta": 0.5, "merging_pair": [1, 2]}}
    path = os.path.join(tmp, "scenario.json")
    out = os.path.join(tmp, "report.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario, fh)
    code, err = program.call(cli, ["analyze", path, "--out", out])
    if code != 0:
        return {"model": model, "second_difference": None, "error": err.strip()}
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    return {"model": model, "second_difference": report["profit_relation"]["second_difference"]}


def sweep(cli, tmp: str, gamma, b) -> dict:
    path = os.path.join(tmp, "template.json")
    out = os.path.join(tmp, "sweep.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(workloads.eq7(0.0, 0.0, 0.5), fh)
    argv = ["sweep", path, "--range", "model.gamma=%r:%r:%d" % gamma, "--range", "model.b=%r:%r:%d" % b,
            "--out", out]
    code, err = program.call(cli, argv)
    if code != 0:
        raise SystemExit(f"sweep failed: {err}")
    with open(out, encoding="utf-8") as fh:
        rows = json.load(fh)["rows"]
    nodes = {}
    for row in rows:
        key = node_key(row["params"]["model.b"], row["params"]["model.gamma"])
        nodes[key] = None if "error" in row else row["second_difference"]
    return {"gamma": list(gamma), "b": list(b), "nodes": nodes}


def node_key(b: float, gamma: float) -> str:
    return f"{float(b)!r}|{float(gamma)!r}"


def main() -> int:
    cli = program.import_cli()
    rng = np.random.default_rng(MASTER_SEED)
    golden: dict = {"master_seed": MASTER_SEED, "tolerance": TOLERANCE}
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        shipped = workloads.SHIPPED["eq7_small_coupling"]["model"]
        golden["shipped"] = {"eq7_small_coupling": analyze(cli, tmp, shipped)["second_difference"]}
        for kind in ("eq7", "appendix_b", "one_stop"):
            golden[kind] = [analyze(cli, tmp, workloads.draw_pool_model(rng, kind, k)) for k in range(POOL_SIZE)]
            failed = sum(1 for e in golden[kind] if e["second_difference"] is None)
            print(f"{kind}: {POOL_SIZE} draws, {failed} failed", file=sys.stderr)
        golden["sweep"] = [sweep(cli, tmp, gamma, b) for gamma, b in SWEEP_GRIDS]
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
