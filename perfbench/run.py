"""mergerfees benchmark: fee-question throughput and latency through the real CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload paper-n3 --seed 1 --seconds 25 --trace 0

One client drives ``mergerfees.cli.main`` in-process in a closed loop: the
next command starts when the previous one returns. An op is one ``analyze``
or ``reproduce`` command; in ``sweep-eq7`` it is one sweep node, run by the
CLI's own worker pool. A round is a fixed list of distinct commands drawn
from the seed; the run repeats the round until ``--seconds`` are used up,
then checks every output against the references in reference.py.

Timings are taken per command at its fastest repeat. A shared host's
speed can drift by a third within seconds, and the fastest of many repeats spread
over the run is what stays put from run to run.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the rounds
twice, untraced and then traced, writes the spans and counters to
``.perfbench/<workload>/trace.json`` and prints the per-layer metrics plus
the tracing overhead. The last line of standard output is always the JSON
result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import program
import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKDIR = ".perfbench"
SETUP_RUNS = 5
MIN_ROUNDS = 3
SETUP_TIMEOUT_S = 60
SETUP_CODE = """\
import sys
sys.path.insert(0, "src")
import mergerfees.cli
from mergerfees.scenario import load_scenario
for path in sys.argv[1:]:
    load_scenario(path)
print("ready", flush=True)
"""


@dataclass
class Record:
    op: workloads.Op
    command: int  # position of the command in its round
    out: str
    code: int | None
    error: str
    seconds: float
    cpu: float


def run_rounds(cli, gen, commands: list, outdir: str, first: int, seconds: float | None = None,
               rounds: int | None = None, on_command=None):
    """Repeat the round of ``commands``: while the next round fits in ``seconds`` (and at
    least MIN_ROUNDS times), or exactly ``rounds`` times.

    Repeat ``first + r`` of each command runs in round r. Returns the records
    and the wall seconds of each round.
    """
    records: list = []
    walls: list = []
    start = time.perf_counter()
    while True:
        ops = [gen.repeat(op, first + len(walls)) for op in commands]
        t_round = time.perf_counter()
        for index, op in enumerate(ops):
            out = os.path.join(outdir, f"{len(records):05d}.json")
            if on_command is not None:
                on_command(index)
            t0, cpu = time.perf_counter(), program.cpu_seconds()
            code, error = program.call(cli, op.argv + ["--out", out])
            records.append(Record(op, index, out, code, error, time.perf_counter() - t0,
                                  program.cpu_seconds() - cpu))
        now = time.perf_counter()
        walls.append(now - t_round)
        if rounds is not None:
            if len(walls) >= rounds:
                break
        elif len(walls) >= MIN_ROUNDS and now - start + walls[-1] > seconds:
            break
    return records, walls


def fastest(records: list) -> dict:
    """Per command of the round: (ops, fastest wall seconds, least CPU seconds) over its repeats."""
    best: dict = {}
    for rec in records:
        ops = rec.op.check.get("nodes", 1)
        wall, cpu = best.get(rec.command, (ops, math.inf, math.inf))[1:]
        best[rec.command] = (ops, min(wall, rec.seconds), min(cpu, rec.cpu))
    return best


def check(records: list, golden_tol: float) -> tuple:
    """Return (ops attempted, ops failed, first few problems)."""
    attempted = failed = 0
    problems: list = []
    for rec in records:
        size = rec.op.check.get("nodes", 1)
        attempted += size
        if rec.code != 0:
            failed += size
            problems.append(f"{' '.join(rec.op.argv)}: exit {rec.code}: {rec.error.strip()[:300]}")
            continue
        try:
            with open(rec.out, encoding="utf-8") as fh:
                payload = json.load(fh)
            if rec.op.argv[0] == "sweep":
                found = reference.check_sweep(payload, rec.op.check, golden_tol)
                bad = {key for key, _ in found}
                failed += size if None in bad else len(bad)
                found = [f"{key}: {msg}" for key, msg in found]
            elif rec.op.argv[0] == "reproduce":
                found = reference.check_reproduce(payload)
                failed += bool(found)
            else:
                found = reference.check_analyze(payload, rec.op.check, golden_tol)
                failed += bool(found)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            found = [f"unreadable output: {type(exc).__name__}: {exc}"]
            failed += size
        problems.extend(f"{' '.join(rec.op.argv)}: {msg}" for msg in found)
    return attempted, failed, problems[:10]


def measure_setup(files: list) -> float:
    """Seconds from starting a fresh interpreter to having imported the CLI and loaded ``files``."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE, *files], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("set-up interpreter did not finish")
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {err.strip()[-500:]}")
    return elapsed


def environment(args, workers: str | None) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {"env": threads, "library": openblas_threads()},
        "MERGERFEES_MAX_WORKERS": workers if workers is not None else "unset",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def openblas_threads() -> int | str:
    """Thread count the loaded OpenBLAS reports, or why it is unknown."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    except OSError:
        return "unknown"
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def percentile(values: list, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = program.import_cli()
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (program.ProgramMissing, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)

    workdir = os.path.join(WORKDIR, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    for sub in ("inputs", "warmup", "out", "traced"):
        os.makedirs(os.path.join(workdir, sub))
    gen = workloads.Generator(args.workload, args.seed, workdir, golden)
    commands = gen.round()
    with open(os.path.join(workdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, **workloads.manifest(args.workload)}, fh, indent=1)

    workers = os.environ.get("MERGERFEES_MAX_WORKERS")
    current = [0]  # the running command's position in the round
    node_seconds: dict = {}  # (command, node parameters) -> fastest seconds
    if args.workload == "sweep-eq7":
        workers = os.environ["MERGERFEES_MAX_WORKERS"] = str(len(os.sched_getaffinity(0)))
        node = cli._sweep_node  # per-node latency: the nodes run inside the CLI's pool

        def timed_node(template, assignment, *a, **kw):
            key = (current[0], tuple(sorted(assignment.items())))
            t0 = time.perf_counter()
            try:
                return node(template, assignment, *a, **kw)
            finally:
                elapsed = time.perf_counter() - t0
                node_seconds[key] = min(elapsed, node_seconds.get(key, math.inf))

        cli._sweep_node = timed_node
    env = environment(args, workers)

    def on_command(index: int) -> None:
        current[0] = index

    # warm-up: the first command of each slot, untimed, on the round's unperturbed files
    warmup = list({op.slot: op for op in reversed(commands)}.values())
    run_rounds(cli, gen, warmup, os.path.join(workdir, "warmup"), 0, rounds=1)
    outdir = os.path.join(workdir, "out")
    lines = ["env " + json.dumps(env, sort_keys=True)]
    if args.trace:
        import tracing

        half = max(args.seconds / 2.0, 1e-3)
        plain, plain_walls = run_rounds(cli, gen, commands, outdir, 1, seconds=half)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced, traced_walls = run_rounds(cli, gen, commands, os.path.join(workdir, "traced"),
                                          1 + len(plain_walls), rounds=len(plain_walls))
        plain_wall, traced_wall = sum(plain_walls), sum(traced_walls)
        tracer.write(os.path.join(workdir, "trace.json"))
        records = plain + traced
        ops = sum(r.op.check.get("nodes", 1) for r in traced)
        metrics = tracing.layer_metrics(tracer, ops)
        metrics["tracing.overhead_ratio"] = traced_wall / plain_wall
        names = spec["per_layer"]
        lines.append(f"traced {ops} ops in {traced_wall:.3f} s, the same ops untraced in {plain_wall:.3f} s")
    else:
        records, walls = run_rounds(cli, gen, commands, outdir, 1, seconds=args.seconds, on_command=on_command)
        usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        cycle = len(workloads.CYCLES[args.workload])
        setup_files = sorted({op.argv[1] for op in commands[:cycle] if op.argv[0] != "reproduce"})
        setup = [measure_setup(setup_files) for _ in range(SETUP_RUNS)]
        best = fastest(records)
        ops = sum(n for n, _, _ in best.values())
        if args.workload == "sweep-eq7":
            latencies = list(node_seconds.values())
        else:
            latencies = [wall for _, wall, _ in best.values()]
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": ops / sum(wall for _, wall, _ in best.values()),
            "op_p50_ms": percentile(latencies, 50) * 1000.0,
            "op_p90_ms": percentile(latencies, 90) * 1000.0,
            "cpu_ms_per_op": sum(cpu for _, _, cpu in best.values()) / ops * 1000.0,
            "peak_rss_mb": usage / 1024.0,
        }
        names = spec["end_to_end"]
        lines.append(f"{len(walls)} rounds of {len(commands)} commands ({ops} ops) in {sum(walls):.3f} s, "
                     f"rounds {', '.join(f'{x:.2f}' for x in walls)} s; {len(latencies)} latency samples "
                     f"({sum(1 for x in latencies if x * 1000.0 > metrics['op_p90_ms'])} above p90); "
                     f"set-up runs {', '.join(f'{x:.3f}' for x in setup)} s")

    attempted, failed, problems = check(records, golden["tolerance"])
    lines += [f"problem: {p}" for p in problems]
    lines.append(f"failure_ratio = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}
    for item in names:
        value = metrics[item["name"]]
        result["metrics"][item["name"]] = {"value": value, "unit": item["unit"]}
        lines.append(f"{item['name']} = {value:.6g} {item['unit']}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
