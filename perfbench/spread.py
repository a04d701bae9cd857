"""Run the benchmark once per seed and report each metric's median and quartile spread.

Usage, from the root of a source checkout:

    python3 perfbench/spread.py --workload paper-n3 --seeds 1-10 [--trace 0] [--json FILE]

The spread is (Q3 - Q1) / median over the runs, with the quartiles of
``statistics.quantiles(values, n=4)``; BENCHMARK.json's bound for a metric
has to stay well above it. ``--json`` appends the runs and the summary to a
JSON file, as in baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec: str) -> list:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--json", help="append the runs and their summary to this file")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    runs = []
    for seed in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "wall_s": elapsed, **result})
        print(f"seed {seed}: {elapsed:.1f} s, failed {result['failed']}/{result['attempted']}, "
              + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bounds.get(name),
                         "unit": runs[0]["metrics"][name]["unit"]}
        bound = bounds.get(name)
        flag = "" if bound is None else (" OK" if spread < bound / 3 else " WIDE")
        print(f"{name:48s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  spread {spread:7.4f}"
              + ("" if bound is None else f"  bound {bound}") + flag)
    if args.json:
        data = {}
        if os.path.exists(args.json):
            with open(args.json, encoding="utf-8") as fh:
                data = json.load(fh)
        data.setdefault(args.workload, []).append({"trace": args.trace, "runs": runs, "summary": summary})
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
